// Package linecfg is the line grammar of cpackd's hot-reloadable config
// files (tenants, SLOs): one directive per line, whitespace-separated
// fields, blank and # comment lines skipped, key=value attributes, and
// errors prefixed with the file name and line number.
package linecfg

import (
	"bufio"
	"fmt"
	"os"
	"strings"
)

// Scan calls fn with the fields of each directive line of src, stopping
// at the first error. errf formats an error prefixed "name:line: ".
func Scan(src, name string, fn func(fields []string, errf func(string, ...any) error) error) error {
	sc := bufio.NewScanner(strings.NewReader(src))
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for lineNo := 1; sc.Scan(); lineNo++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		errf := func(format string, args ...any) error {
			return fmt.Errorf("%s:%d: %s", name, lineNo, fmt.Sprintf(format, args...))
		}
		if err := fn(strings.Fields(line), errf); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// Attrs calls fn with each key=value attribute in order, stopping at the
// first error; an attribute without "=" or with an empty value is one.
func Attrs(attrs []string, fn func(k, v string) error) error {
	for _, a := range attrs {
		k, v, ok := strings.Cut(a, "=")
		if !ok || v == "" {
			return fmt.Errorf("malformed attribute %q (want key=value)", a)
		}
		if err := fn(k, v); err != nil {
			return err
		}
	}
	return nil
}

// Load reads the file at path and parses it, naming it by its path.
func Load[T any](path string, parse func(src, name string) (T, error)) (T, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return *new(T), err
	}
	return parse(string(data), path)
}
