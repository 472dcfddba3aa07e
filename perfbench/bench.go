package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// setupRounds is how often an untraced run sets up; setup_s is the median.
const setupRounds = 5

// bench is one run of one workload.
type bench struct {
	o        options
	w        *workload
	in       *inputs
	dir      string
	conns    int
	d        *daemon // the running cpackd
	cacheDir string  // its -cache-dir
	primed   string  // hot: the persisted store every set-up restores
	round    int

	counted []sample // warm-pass, warm-up and measured samples: attempted/failed
	checks  []sample // responses kept for content checks
	wrong   []string // content-check failures

	spans []span // traced run only
}

// launch starts cpackd on a fresh cache dir (hot: on the primed store).
func (b *bench) launch(ctx context.Context) error {
	port, err := freePort()
	if err != nil {
		return err
	}
	b.round++
	dir := b.primed
	if dir == "" {
		dir = filepath.Join(b.dir, fmt.Sprintf("cache-%d", b.round))
	}
	d, err := startDaemon(ctx, b.o.cpackd, b.dir, fmt.Sprintf("cpackd-%d", b.round), port, dir)
	if err != nil {
		return err
	}
	b.d, b.cacheDir = d, dir
	return nil
}

// stop drains the running cpackd and removes its fresh cache dir.
func (b *bench) stop() error {
	if b.d == nil {
		return nil
	}
	err := b.d.stop()
	if b.cacheDir != b.primed {
		os.RemoveAll(b.cacheDir) // scratch state; the run dir goes at exit anyway
	}
	b.d = nil
	return err
}

// warmRequests are the warm pass: one image_b64 compress per working-set
// program, in order. Mixed checks every response, because its decompress
// requests replay the returned .cpk bytes; the others check one in 16.
func (b *bench) warmRequests() []request {
	reqs := make([]request, len(b.in.warm))
	for i, p := range b.in.warm {
		reqs[i] = compressReq(p)
		reqs[i].check = b.in.fillDecompress || i%16 == 0
	}
	return reqs
}

// prime persists the whole working set into the store every hot set-up
// restores from. It is not part of setup_s.
func (b *bench) prime(ctx context.Context) error {
	b.primed = filepath.Join(b.dir, "primed")
	if err := b.launch(ctx); err != nil {
		return err
	}
	g := newGenerator(b.d.url, 1)
	defer g.close()
	samples := g.sequential(ctx, b.warmRequests())
	if n := failures(samples); n > 0 {
		return fmt.Errorf("priming the store: %d of %d compress requests failed", n, len(samples))
	}
	return b.stop()
}

// setUp restarts cpackd and runs the warm pass: one client requests each
// working-set program once. It returns the time from launch to the pass's
// end.
func (b *bench) setUp(ctx context.Context) (time.Duration, error) {
	if err := b.stop(); err != nil {
		return 0, err
	}
	reqs := b.warmRequests()
	start := time.Now()
	if err := b.launch(ctx); err != nil {
		return 0, err
	}
	g := newGenerator(b.d.url, 1)
	defer g.close()
	samples := g.sequential(ctx, reqs)
	elapsed := time.Since(start)
	b.counted = append(b.counted, samples...)
	b.keepChecks(samples)
	return elapsed, ctx.Err()
}

func (b *bench) keepChecks(samples []sample) {
	for i := range samples {
		if samples[i].req.check && samples[i].ok() {
			b.checks = append(b.checks, samples[i])
		}
	}
}

// runChecks verifies every kept response and clears the list. Compress
// responses hand their checked .cpk bytes to the program, for mixed's
// decompress requests.
func (b *bench) runChecks() {
	for i := range b.checks {
		if err := checkResponse(&b.checks[i]); err != nil {
			b.wrong = append(b.wrong, err.Error())
		}
	}
	b.checks = nil
}

// load runs the stream closed loop on g's connections for dur.
func (b *bench) load(ctx context.Context, g *generator, dur time.Duration) []sample {
	samples := g.closedLoop(ctx, b.in.stream, dur)
	b.keepChecks(samples)
	return samples
}

// cpuPerOp measures cpackd's CPU time per completed request over fn.
func (b *bench) cpuPerOp(fn func() []sample) ([]sample, float64, error) {
	c0, err := b.d.cpuTime()
	if err != nil {
		return nil, 0, err
	}
	samples := fn()
	c1, err := b.d.cpuTime()
	if err != nil {
		return nil, 0, err
	}
	done := len(samples) - failures(samples)
	return samples, ms(c1-c0) / float64(max(done, 1)), nil
}

// Phase lengths, as shares of --seconds.
const (
	warmupShare = 0.05
	serialShare = 0.5
	satShare    = 0.4
)

// rounds is how often the measured phase alternates a serial window (one
// connection) and a saturated one (nproc connections). Window figures
// are medians over windows, which so span the whole phase: a stall of the
// shared host moves the window it hit, not the result.
const rounds = 12

func (b *bench) share(f float64) time.Duration {
	return time.Duration(f * float64(b.o.seconds) * float64(time.Second))
}

// startUp primes (hot) and sets up rounds times, checking the warm pass.
func (b *bench) startUp(ctx context.Context, rounds int) ([]float64, error) {
	if b.w.prime {
		if err := b.prime(ctx); err != nil {
			return nil, err
		}
	}
	var setups []float64
	for i := 0; i < rounds; i++ {
		b.checks = nil // only the last round's responses feed mixed's decompress bodies
		d, err := b.setUp(ctx)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	b.runChecks()
	if b.in.fillDecompress {
		for _, p := range b.in.warm {
			if p.comp == nil {
				return nil, fmt.Errorf("warm pass returned no checked .cpk for a %d-instruction program", len(p.im.Text))
			}
		}
	}
	return setups, nil
}

// endToEnd is the untraced run: set-up, then the stream alternately from
// one connection (the serial windows) and from nproc connections at once
// (the saturated windows, for capacity).
func (b *bench) endToEnd(ctx context.Context) (*result, map[string]any, error) {
	setups, err := b.startUp(ctx, setupRounds)
	if err != nil {
		return nil, nil, err
	}
	one := newGenerator(b.d.url, 1)
	defer one.close()
	all := newGenerator(b.d.url, b.conns)
	defer all.close()
	warm := b.load(ctx, one, b.share(warmupShare))
	serialDur, satDur := b.share(serialShare)/rounds, b.share(satShare)/rounds
	var serial [][]sample
	var through, granted, steal []float64
	measured, cpu, err := b.cpuPerOp(func() []sample {
		var out []sample
		for i := 0; i < rounds; i++ {
			ser := b.load(ctx, one, serialDur)
			var sat []sample
			s := stealDuring(func() { sat = b.load(ctx, all, satDur) })
			t := throughput(sat, satDur)
			serial = append(serial, ser)
			through, granted, steal = append(through, t), append(granted, t/(1-s)), append(steal, s)
			out = append(append(out, ser...), sat...)
		}
		return out
	})
	if err != nil {
		return nil, nil, err
	}
	rss, err := b.d.peakRSS()
	if err != nil {
		return nil, nil, err
	}
	b.runChecks()

	b.counted = append(b.counted, warm...)
	b.counted = append(b.counted, measured...)
	res := b.result()
	res.Metrics = report(endToEndMetrics, map[string]float64{
		"capacity_rps":  median(granted),
		"cpu_ms_per_op": cpu,
		"peak_rss_mb":   float64(rss) / (1 << 20),
		"setup_s":       median(setups),
		"success_ratio": float64(res.Attempted-res.Failed) / float64(res.Attempted),
	})
	// Wall-clock latency and raw throughput are diagnostics, not metrics:
	// on a shared host they follow the hypervisor's steal more than the
	// program (see README.md).
	info := b.info()
	info["p50_ms"] = capInf(windowQuantile(serial, 0.5), serialDur)
	info["p99_ms"] = capInf(windowQuantile(serial, 0.99), serialDur)
	samples := make([]int, len(serial))
	for i, w := range serial {
		samples[i] = len(w)
	}
	info["serial_window_samples"] = samples
	info["throughput_rps"] = median(through)
	info["saturated_window_rps"] = through
	info["saturated_window_steal"] = steal
	info["setup_rounds_s"] = setups
	return res, info, nil
}

// stealDuring runs fn and returns the share of the host's CPU time the
// hypervisor stole meanwhile (/proc/stat's steal column).
func stealDuring(fn func()) float64 {
	s0, t0 := hostCPU()
	fn()
	s1, t1 := hostCPU()
	return ratio(s1-s0, t1-t0)
}

// throughput is the completed (2xx) requests per second of a closed-loop
// window of length dur; requests still in flight at its end do not count.
func throughput(samples []sample, dur time.Duration) float64 {
	n := 0
	for i := range samples {
		if samples[i].ok() && samples[i].end < dur {
			n++
		}
	}
	return float64(n) / dur.Seconds()
}

// capInf replaces an infinite latency (a failure landed on the
// percentile) with the phase length, the largest latency it could show.
func capInf(v float64, phase time.Duration) float64 {
	if math.IsInf(v, 1) {
		return ms(phase)
	}
	return v
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// result fills the run's counts: every warm-pass, warm-up and measured
// request is attempted; non-2xx, transport errors and wrong outputs fail.
func (b *bench) result() *result {
	failed := failures(b.counted) + len(b.wrong)
	for _, w := range b.wrong {
		fmt.Fprintln(os.Stderr, "perfbench: wrong output:", w)
	}
	return &result{Correct: len(b.wrong) == 0, Attempted: len(b.counted), Failed: failed}
}

func (b *bench) info() map[string]any {
	return map[string]any{
		"workload": b.w.name, "seed": b.o.seed, "seconds": b.o.seconds, "trace": b.o.trace,
		"conns":         b.conns,
		"wrong_outputs": len(b.wrong),
	}
}
