package linecfg

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestScanSkipsBlankAndCommentLines(t *testing.T) {
	src := "# header\n\n  a b  c \n\t# indented comment\nd e=f\n"
	var got [][]string
	err := Scan(src, "x.conf", func(fields []string, _ func(string, ...any) error) error {
		got = append(got, fields)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{{"a", "b", "c"}, {"d", "e=f"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fields %q, want %q", got, want)
	}
}

func TestScanErrorsNameTheLine(t *testing.T) {
	err := Scan("ok\n\n# c\nbad thing\nnever\n", "x.conf", func(fields []string, errf func(string, ...any) error) error {
		if fields[0] == "bad" {
			return errf("unknown directive %q", fields[0])
		}
		if fields[0] == "never" {
			t.Fatal("scan continued past an error")
		}
		return nil
	})
	if err == nil || err.Error() != `x.conf:4: unknown directive "bad"` {
		t.Fatalf("err = %v", err)
	}
	long := strings.Repeat("x", 2<<20)
	if err := Scan(long, "big.conf", func([]string, func(string, ...any) error) error { return nil }); err == nil ||
		!strings.HasPrefix(err.Error(), "big.conf: ") {
		t.Fatalf("overlong line: err = %v", err)
	}
}

func TestAttrs(t *testing.T) {
	var keys []string
	if err := Attrs([]string{"a=1", "b=x=y"}, func(k, v string) error {
		keys = append(keys, k+":"+v)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(keys, []string{"a:1", "b:x=y"}) {
		t.Fatalf("attrs %q", keys)
	}
	for _, bad := range []string{"noeq", "empty="} {
		err := Attrs([]string{bad}, func(k, v string) error { return nil })
		if want := `malformed attribute "` + bad + `" (want key=value)`; err == nil || err.Error() != want {
			t.Errorf("%q: err = %v, want %s", bad, err, want)
		}
	}
	stop := errors.New("stop")
	if err := Attrs([]string{"a=1", "b=2"}, func(k, v string) error { return stop }); err != stop {
		t.Fatalf("callback error not returned: %v", err)
	}
}

func TestLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.conf")
	if err := os.WriteFile(path, []byte("hello\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	parse := func(src, name string) (string, error) { return name + "|" + src, nil }
	got, err := Load(path, parse)
	if err != nil || got != path+"|hello\n" {
		t.Fatalf("Load = %q, %v", got, err)
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing"), parse); err == nil {
		t.Fatal("missing file loaded")
	}
}
