package loadgen

import (
	"bufio"
	"bytes"
	"cmp"
	"context"
	"fmt"
	"io"
	"os/exec"
	"regexp"
	"slices"
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

// microBenchRuns is how many times RunMicroBench repeats the benchmark
// set. One pass at a short -benchtime is at the mercy of whatever else
// the host is doing; the median of several passes is less so.
const microBenchRuns = 5

// RunMicroBench runs the codec microbenchmarks with `go test -bench` in
// the current module, microBenchRuns times over, and returns each
// benchmark's median pass. -p 1 runs the packages one after another:
// concurrent benchmark binaries would share the CPUs and skew each
// other's ns/op.
func RunMicroBench(ctx context.Context, stderr io.Writer, benchtime string) ([]MicroBench, error) {
	args := append([]string{"test", "-p", "1", "-run", "xxx", "-bench", MicroBenchPattern,
		"-benchmem", "-benchtime", benchtime}, MicroBenchPackages...)
	var out bytes.Buffer
	for i := 0; i < microBenchRuns; i++ {
		cmd := exec.CommandContext(ctx, "go", args...)
		cmd.Stdout, cmd.Stderr = &out, stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("go test -bench: %w", err)
		}
	}
	return ParseGoBench(&out)
}

// medianByName folds repeated results of one benchmark into the pass
// with the median ns/op (the upper middle one for an even count), so
// every reported line is one real measurement. Benchmarks keep the
// order of their first appearance.
func medianByName(results []MicroBench) []MicroBench {
	var out []MicroBench
	byName := make(map[string][]MicroBench)
	for _, r := range results {
		if _, ok := byName[r.Name]; !ok {
			out = append(out, r)
		}
		byName[r.Name] = append(byName[r.Name], r)
	}
	for i := range out {
		rs := byName[out[i].Name]
		slices.SortFunc(rs, func(a, b MicroBench) int { return cmp.Compare(a.NsPerOp, b.NsPerOp) })
		out[i] = rs[len(rs)/2]
	}
	return out
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
// the full test output can be piped in unfiltered. A benchmark reported
// more than once (repeated passes, -count) folds to its median pass.
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
	return medianByName(out), sc.Err()
}
