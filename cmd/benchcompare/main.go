// Command benchcompare guards the codec microbenchmarks against
// regressions: it compares fresh `go test -bench` results (the median of
// several passes, or a captured output file) against the microbenchmark
// section of a committed BENCH_<n>.json trajectory and fails when any
// shared benchmark got more than -threshold times slower.
//
// Raw ns/op is not comparable across machines, so the comparison is
// anchor-normalized: one benchmark present in both runs (the reference
// decoder by default) estimates the machine-speed ratio, and every other
// benchmark's ns/op is judged against baseline × that ratio. A uniform
// slowdown (slower CI host) cancels out; a real regression in one
// benchmark does not.
//
//	benchcompare                  # baseline = highest BENCH_*.json, run benchmarks
//	benchcompare -against BENCH_8.json -input bench.out
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"codepack/internal/loadgen"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "benchcompare:", err)
		var uerr usageError
		if errors.As(err, &uerr) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

type usageError string

func (e usageError) Error() string { return string(e) }

// errRegression distinguishes "benchmarks got slower" (exit 1, report
// already printed) from operational failures.
var errRegression = errors.New("benchmark regression against baseline")

// anchors are tried in order as the machine-speed normalizer. The
// reference decoder is first: single-threaded, allocation-free, and by
// construction untouched by fast-path work, so it moves only when the
// machine does.
var anchors = []string{
	"BenchmarkDecodeThroughput/reference",
	"BenchmarkDecompressThroughput",
	"BenchmarkCompressThroughput",
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("benchcompare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		against   = fs.String("against", "", "baseline BENCH_<n>.json (default: highest-numbered in -dir)")
		dir       = fs.String("dir", ".", "directory searched for the default baseline")
		input     = fs.String("input", "", "read `go test -bench` output from this file instead of running benchmarks")
		threshold = fs.Float64("threshold", 1.20, "fail when normalized ns/op exceeds baseline by this factor")
		benchtime = fs.String("benchtime", "20x", "-benchtime when running benchmarks")
	)
	if err := fs.Parse(args); err != nil {
		return usageError(err.Error())
	}
	if *threshold <= 1 {
		return usageError("-threshold must be > 1")
	}

	path := *against
	if path == "" {
		var err error
		if path, err = latestTrajectory(*dir); err != nil {
			return err
		}
	}
	base, err := loadBaseline(path)
	if err != nil {
		return err
	}

	var cur []loadgen.MicroBench
	if *input != "" {
		f, err := os.Open(*input)
		if err != nil {
			return err
		}
		defer f.Close()
		if cur, err = loadgen.ParseGoBench(f); err != nil {
			return err
		}
	} else {
		if cur, err = loadgen.RunMicroBench(context.Background(), stderr, *benchtime); err != nil {
			return err
		}
	}
	if len(cur) == 0 {
		return fmt.Errorf("no benchmark results in the current run")
	}

	rep, regressed := compare(base, cur, *threshold)
	fmt.Fprintf(stdout, "baseline %s (%d benchmarks), current run (%d benchmarks)\n",
		path, len(base), len(cur))
	fmt.Fprint(stdout, rep)
	if regressed {
		return errRegression
	}
	return nil
}

// latestTrajectory picks the highest-numbered BENCH_<n>.json in dir.
func latestTrajectory(dir string) (string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	re := regexp.MustCompile(`^BENCH_(\d+)\.json$`)
	best, bestN := "", -1
	for _, e := range ents {
		m := re.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		if n, _ := strconv.Atoi(m[1]); n > bestN {
			best, bestN = filepath.Join(dir, e.Name()), n
		}
	}
	if best == "" {
		return "", fmt.Errorf("no BENCH_<n>.json baseline in %s", dir)
	}
	return best, nil
}

// loadBaseline reads the microbenchmark section of a trajectory document.
func loadBaseline(path string) (map[string]loadgen.MicroBench, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var tr loadgen.Trajectory
	if err := json.Unmarshal(raw, &tr); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(tr.Micro) == 0 {
		return nil, fmt.Errorf("%s has no microbenchmark section", path)
	}
	out := make(map[string]loadgen.MicroBench, len(tr.Micro))
	for _, mb := range tr.Micro {
		out[mb.Name] = mb
	}
	return out, nil
}

// compare renders the per-benchmark verdicts and reports whether any
// shared benchmark regressed past the threshold.
func compare(base map[string]loadgen.MicroBench, cur []loadgen.MicroBench, threshold float64) (string, bool) {
	scale, anchor := 1.0, ""
	for _, a := range anchors {
		if b, ok := base[a]; ok {
			for _, c := range cur {
				if c.Name == a && b.NsPerOp > 0 {
					scale, anchor = c.NsPerOp/b.NsPerOp, a
					break
				}
			}
		}
		if anchor != "" {
			break
		}
	}

	var sb strings.Builder
	if anchor == "" {
		fmt.Fprintf(&sb, "no shared anchor benchmark; comparing raw ns/op\n")
	} else {
		fmt.Fprintf(&sb, "anchor %s: machine-speed ratio %.3f\n", anchor, scale)
	}
	sort.Slice(cur, func(i, j int) bool { return cur[i].Name < cur[j].Name })
	regressed := false
	shared := 0
	for _, c := range cur {
		b, ok := base[c.Name]
		if !ok || c.Name == anchor {
			continue
		}
		shared++
		allowed := b.NsPerOp * scale * threshold
		ratio := c.NsPerOp / (b.NsPerOp * scale)
		verdict := "ok"
		if c.NsPerOp > allowed {
			verdict = "REGRESSED"
			regressed = true
		}
		fmt.Fprintf(&sb, "  %-45s %12.0f -> %12.0f ns/op  x%.2f  %s\n",
			c.Name, b.NsPerOp*scale, c.NsPerOp, ratio, verdict)
	}
	if shared == 0 {
		fmt.Fprintf(&sb, "  no benchmarks shared with the baseline\n")
	}
	return sb.String(), regressed
}
