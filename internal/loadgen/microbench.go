package loadgen

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
)

// MicroBenchPattern selects the codec microbenchmarks a trajectory folds
// in and cmd/benchcompare guards: encode and decode throughput, the
// reference-vs-fast decoder split and the pooled serve-path decode, plus
// the served path cold and warm.
const MicroBenchPattern = "CompressThroughput|DecompressThroughput|DecodeThroughput|DecodePooled|ServerCompress"

// MicroBenchPackages are the packages holding those benchmarks: the
// module root, and internal/core, whose decoder benchmark needs the
// test-only reference walker.
var MicroBenchPackages = []string{".", "./internal/core"}

// RunMicroBench runs the codec microbenchmarks with `go test -bench` in
// the current module and parses the result lines. -p 1 runs the packages
// one after another: concurrent benchmark binaries would share the CPUs
// and skew each other's ns/op.
func RunMicroBench(ctx context.Context, stderr io.Writer, benchtime string) ([]MicroBench, error) {
	args := append([]string{"test", "-p", "1", "-run", "xxx", "-bench", MicroBenchPattern,
		"-benchmem", "-benchtime", benchtime}, MicroBenchPackages...)
	cmd := exec.CommandContext(ctx, "go", args...)
	cmd.Stderr = stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go test -bench: %w", err)
	}
	return ParseGoBench(bytes.NewReader(out))
}

// MicroBench is one `go test -bench` result line, normalized: the
// -<GOMAXPROCS> suffix is stripped from the name so trajectories compare
// across machines.
type MicroBench struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	MBPerSec    float64 `json:"mb_per_s,omitempty"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
}

var benchSuffix = regexp.MustCompile(`-\d+$`)

// ParseGoBench extracts benchmark result lines from `go test -bench`
// output (as produced with -benchmem). Non-result lines are ignored, so
// the full test output can be piped in unfiltered.
func ParseGoBench(r io.Reader) ([]MicroBench, error) {
	var out []MicroBench
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 3 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		iters, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			continue
		}
		mb := MicroBench{
			Name:       benchSuffix.ReplaceAllString(f[0], ""),
			Iterations: iters,
		}
		// The remainder is value-unit pairs: "123.4 ns/op", "56 MB/s",
		// "789 B/op", "12 allocs/op", plus custom metrics we skip.
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				continue
			}
			switch f[i+1] {
			case "ns/op":
				mb.NsPerOp = v
			case "MB/s":
				mb.MBPerSec = v
			case "B/op":
				mb.BytesPerOp = v
			case "allocs/op":
				mb.AllocsPerOp = v
			}
		}
		if mb.NsPerOp > 0 {
			out = append(out, mb)
		}
	}
	return out, sc.Err()
}
