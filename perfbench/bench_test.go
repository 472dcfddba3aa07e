package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"slices"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"codepack"
)

// streamDigest hashes a workload's warm pass and its first n measured
// requests, op and body, in order.
func streamDigest(t *testing.T, w *workload, seed int64, n int) [sha256.Size]byte {
	t.Helper()
	in, err := w.build(seed)
	if err != nil {
		t.Fatal(err)
	}
	if in.fillDecompress { // the warm pass would supply these
		for _, p := range in.warm {
			c, err := codepack.Compress(p.im)
			if err != nil {
				t.Fatal(err)
			}
			p.comp = c.Marshal()
		}
	}
	h := sha256.New()
	for _, p := range in.warm {
		h.Write(imageBody(p))
	}
	for range n {
		r := in.stream()
		h.Write([]byte(r.op))
		h.Write(r.body)
	}
	var sum [sha256.Size]byte
	copy(sum[:], h.Sum(nil))
	return sum
}

func TestStreamIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			a, b := streamDigest(t, w, 7, 300), streamDigest(t, w, 7, 300)
			if a != b {
				t.Errorf("seed 7 gave two different request streams")
			}
			if c := streamDigest(t, w, 8, 300); c == a {
				t.Errorf("seeds 7 and 8 gave the same request stream")
			}
		})
	}
}

func TestVariantsAreDistinctAndMatchTheirSource(t *testing.T) {
	b, err := newBase(3, 300)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, v := range []uint32{0, 1, 0xffff, 0x10000, 1<<22 + 5} {
		p := b.variant(v)
		if seen[p.digest] {
			t.Fatalf("variant %d repeats a digest", v)
		}
		seen[p.digest] = true
		im, err := codepack.Assemble("check", b.source(v))
		if err != nil {
			t.Fatal(err)
		}
		if got := codepack.ImageDigest(im); got != p.digest {
			t.Errorf("variant %d: source assembles to %s, patched image is %s", v, got, p.digest)
		}
	}
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	same := func(kind string, specs []metricSpec, decl []struct{ Name, Unit string }) {
		if len(specs) != len(decl) {
			t.Errorf("%s: the benchmark emits %d metrics, BENCHMARK.json declares %d", kind, len(specs), len(decl))
			return
		}
		for i, m := range specs {
			if !valid.MatchString(m.name) {
				t.Errorf("%s: metric name %q has characters outside [A-Za-z0-9_.-]", kind, m.name)
			}
			if decl[i].Name != m.name || decl[i].Unit != m.unit {
				t.Errorf("%s #%d: emitted %s (%s), declared %s (%s)", kind, i, m.name, m.unit, decl[i].Name, decl[i].Unit)
			}
		}
	}
	same("end_to_end", endToEndMetrics, doc.EndToEnd)
	same("per_layer", layerMetrics, doc.PerLayer)
	ws := workloads()
	if len(ws) != len(doc.Workloads) {
		t.Fatalf("%d workloads, BENCHMARK.json declares %d", len(ws), len(doc.Workloads))
	}
	for i, w := range ws {
		if doc.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %s, declared %s", i, w.name, doc.Workloads[i].Name)
		}
	}
	// A run emits exactly the declared names.
	for _, specs := range [][]metricSpec{endToEndMetrics, layerMetrics} {
		if got := report(specs, nil); len(got) != len(specs) {
			t.Errorf("report emitted %d metrics for %d specs", len(got), len(specs))
		}
	}
}

// synthetic builds n back-to-back samples whose latency follows lat(i).
func synthetic(n int, lat func(i int) time.Duration) []sample {
	s := make([]sample, n)
	var at time.Duration
	for i := range s {
		s[i] = sample{send: at, first: at + lat(i)/2, end: at + lat(i), status: 200, sent: true}
		at += lat(i)
	}
	return s
}

// windows cuts samples into n equal consecutive windows.
func windows(samples []sample, n int) [][]sample {
	out := make([][]sample, n)
	for w := range out {
		out[w] = samples[w*len(samples)/n : (w+1)*len(samples)/n]
	}
	return out
}

// connWindow is one saturated window: conns connections each completing
// back-to-back requests of lat for dur.
func connWindow(conns int, dur time.Duration, lat func(i int) time.Duration) []sample {
	var out []sample
	for c := 0; c < conns; c++ {
		for _, s := range synthetic(int(dur/lat(0))+1, lat) {
			if s.send < dur {
				out = append(out, s)
			}
		}
	}
	return out
}

func TestCapacityOnSyntheticCompletionCurves(t *testing.T) {
	dur := time.Second
	flat := func(d time.Duration) func(int) time.Duration { return func(int) time.Duration { return d } }
	// Two connections completing 2 ms requests back to back: 1000/s. The
	// request still in flight when the window ends does not count.
	if got := throughput(connWindow(2, dur, flat(2*time.Millisecond)), dur); math.Abs(got-998) > 0.5 {
		t.Errorf("flat 2 ms: %v req/s, want 998", got)
	}
	// capacity_rps is the median over windows: one window stalled outright
	// moves it not at all, a program twice as slow everywhere halves it.
	var through, slower []float64
	for w := 0; w < rounds; w++ {
		win := connWindow(2, dur, flat(2*time.Millisecond))
		if w == 3 {
			win = connWindow(2, dur, flat(300*time.Millisecond))
		}
		through = append(through, throughput(win, dur))
		slower = append(slower, throughput(connWindow(2, dur, flat(4*time.Millisecond)), dur))
	}
	if got := median(through); math.Abs(got-998) > 0.5 {
		t.Errorf("one stalled window: capacity %v, want 998", got)
	}
	if got := median(slower); math.Abs(got-498) > 0.5 {
		t.Errorf("uniformly slower program: capacity %v, want 498", got)
	}
	// Failed requests complete nothing.
	failed := connWindow(2, dur, flat(2*time.Millisecond))
	for i := range failed {
		failed[i].status = 429
	}
	if got := throughput(failed, dur); got != 0 {
		t.Errorf("all failed: %v req/s, want 0", got)
	}
}

func TestWindowQuantileIgnoresAStalledWindow(t *testing.T) {
	base := synthetic(1200, func(i int) time.Duration { return time.Duration(1+i%3) * time.Millisecond })
	if got := windowQuantile(windows(base, rounds), 0.5); got != 2 {
		t.Errorf("p50 = %v, want 2", got)
	}
	stalled := slices.Clone(base)
	for i := 0; i < 100; i++ { // every request of the first window
		stalled[i].end = stalled[i].send + time.Second
	}
	if got := windowQuantile(windows(stalled, rounds), 0.5); got != 2 {
		t.Errorf("p50 with one stalled window = %v, want 2", got)
	}
	slow := synthetic(1200, func(i int) time.Duration { return time.Duration(2+2*(i%3)) * time.Millisecond })
	if got := windowQuantile(windows(slow, rounds), 0.5); got != 4 {
		t.Errorf("p50 of a uniformly slower program = %v, want 4", got)
	}
	// Failures reaching the quantile show as +Inf.
	for i := range stalled {
		stalled[i].status = 503
	}
	if got := windowQuantile(windows(stalled, rounds), 0.5); !math.IsInf(got, 1) {
		t.Errorf("p50 of failed requests = %v, want +Inf", got)
	}
}

func TestQuantileIsExactNearestRank(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(200 - i) // 200..1, unsorted
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 100}, {0.99, 198}, {1, 200}, {0.001, 1}} {
		if got := quantile(append([]float64(nil), xs...), c.q); got != c.want {
			t.Errorf("q%v = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestUnattributedIsNeverNegative(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		client, covered := rng.Float64()*10, rng.Float64()*10
		got := unattributed(client, covered)
		if got < 0 || (client >= covered && got != client-covered) {
			t.Fatalf("unattributed(%v, %v) = %v", client, covered, got)
		}
	}
	// Through the derivation: stages covering more than the client saw
	// (clock skew) still leave zero, and a stage-free server leaves all of
	// the client's time.
	samples := synthetic(100, func(int) time.Duration { return 2 * time.Millisecond })
	mk := func(stageSec float64) *vars {
		v := &vars{}
		v.Cpackd.Stages = map[string]stageTotal{"queue-wait": {Sum: stageSec}, "fill": {Sum: stageSec}}
		return v
	}
	if got := layerValues(mk(0), mk(0.2), samples)["unattributed_ms"]; got != 0 {
		t.Errorf("over-covered window: unattributed %v, want 0", got)
	}
	if got := layerValues(mk(0), mk(0), samples)["unattributed_ms"]; math.Abs(got-2) > 1e-9 {
		t.Errorf("uncovered window: unattributed %v, want 2", got)
	}
	if got := layerValues(mk(0), mk(0.05), samples)["unattributed_ms"]; math.Abs(got-1) > 1e-9 {
		t.Errorf("half-covered window: unattributed %v, want 1", got)
	}
}

func TestWindowFraction(t *testing.T) {
	// 1% of the first 10 s, then 5% over the next 10 s: 3% overall.
	if got := windowFraction(0.01, 10, 0.03, 20); math.Abs(got-0.05) > 1e-12 {
		t.Errorf("window fraction %v, want 0.05", got)
	}
	if got := windowFraction(0.5, 10, 0.5, 10); got != 0 {
		t.Errorf("empty window: %v", got)
	}
}

func TestClosedLoopKeepsConnectionBoundAndStreamOrder(t *testing.T) {
	var inFlight, peak atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := inFlight.Add(1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		time.Sleep(time.Millisecond)
		inFlight.Add(-1)
		body, _ := io.ReadAll(r.Body)
		w.Write(body)
	}))
	defer srv.Close()
	g := newGenerator(srv.URL, 2)
	defer g.close()
	k := 0
	next := func() request {
		k++
		return request{op: "compress", body: []byte(strconv.Itoa(k)), check: true}
	}
	samples := g.closedLoop(context.Background(), next, 200*time.Millisecond)
	if len(samples) < 20 || failures(samples) != 0 {
		t.Fatalf("%d samples, %d failures", len(samples), failures(samples))
	}
	if p := peak.Load(); p > 2 {
		t.Errorf("%d requests in flight at once, want at most 2 connections' worth", p)
	}
	seen := map[string]bool{}
	for i, s := range samples {
		if !s.sent || s.first < s.send || s.end < s.first {
			t.Fatalf("sample %d out of order: %+v", i, s)
		}
		if string(s.body) != string(s.req.body) {
			t.Fatalf("sample %d: response %q belongs to another request than %q", i, s.body, s.req.body)
		}
		seen[string(s.body)] = true
	}
	// Every drawn request was sent once: the stream is consumed in order.
	for i := 1; i <= len(samples); i++ {
		if !seen[strconv.Itoa(i)] {
			t.Fatalf("request %d of the stream was never sent (%d samples)", i, len(samples))
		}
	}
}
