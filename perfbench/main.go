// Command perfbench is the cpackd benchmark. It builds nothing itself:
// run.sh builds cpackd and this program from the checkout, then runs
//
//	perfbench --workload hot|cold|mixed --seed N --seconds S --trace 0|1
//
// which starts a fresh cpackd process on loopback, drives them closed loop
// from one generator, checks their outputs and prints one JSON result as
// the last line of standard output: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	cpackd   string // cpackd binary
	out      string // scratch directory for daemon state, logs and spans
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: hot, cold or mixed")
	flag.Int64Var(&o.seed, "seed", 1, "seed for every generated input")
	flag.IntVar(&o.seconds, "seconds", 30, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
	flag.StringVar(&o.cpackd, "cpackd", "", "cpackd binary to benchmark")
	flag.StringVar(&o.out, "out", ".bench_build", "directory for daemon state, logs and span dumps")
	flag.Parse()
	o.trace = trace == 1
	if o.workload == "" || o.cpackd == "" || o.seconds < 1 || (trace != 0 && trace != 1) {
		flag.Usage()
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	steal0, total0 := hostCPU()
	res, info, err := run(ctx, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	// The run's environment and diagnostics go on the line before the
	// result, which must stay the last line.
	info["env"] = environment()
	if steal1, total1 := hostCPU(); total1 > total0 {
		// Time the hypervisor ran something else on our CPUs: a run with a
		// high share was measured on a busy host.
		info["host_steal_frac"] = float64(steal1-steal0) / float64(total1-total0)
	}
	emit(info)
	emit(res)
	if !res.Correct {
		os.Exit(1)
	}
}

func emit(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	fmt.Println(string(b))
}

// environment records what the numbers were measured on.
func environment() map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					commit += "+dirty"
				}
			}
		}
	}
	return map[string]any{"nproc": runtime.NumCPU(), "go": runtime.Version(), "commit": commit}
}

func run(ctx context.Context, o options) (*result, map[string]any, error) {
	w, err := workloadByName(o.workload)
	if err != nil {
		return nil, nil, err
	}
	if _, err := os.Stat(o.cpackd); err != nil {
		return nil, nil, fmt.Errorf("cpackd binary: %w", err)
	}
	dir := filepath.Join(o.out, fmt.Sprintf("run-%s-%d-%d", w.name, o.seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	in, err := w.build(o.seed)
	if err != nil {
		return nil, nil, err
	}
	b := &bench{o: o, w: w, in: in, dir: dir, conns: runtime.NumCPU()}
	defer b.stop()
	if o.trace {
		res, info, err := b.traced(ctx)
		if err == nil {
			err = b.dumpSpans()
		}
		return res, info, errors.Join(err, b.stop())
	}
	res, info, err := b.endToEnd(ctx)
	return res, info, errors.Join(err, b.stop())
}

// hostCPU returns the steal and total jiffies of /proc/stat's cpu line.
func hostCPU() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}
