package main

import (
	"bytes"
	"context"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"time"
)

// request is one generated API call.
type request struct {
	op    string // endpoint under /v1/: compress, verify, decompress, simulate
	body  []byte
	prog  *program // the program the call is about, for output checks
	check bool     // keep the response body for a content check
}

// sample is what the generator records for one request: the client span
// as offsets from the phase start (call sent, response headers read, body
// fully read) and the outcome.
type sample struct {
	op               string
	send, first, end time.Duration
	status           int // 0 = transport error or never sent
	body             []byte
	req              *request
	sent             bool
}

// ok reports a 2xx response.
func (s *sample) ok() bool { return s.status >= 200 && s.status < 300 }

// generator is the benchmark's single load-generating client: a closed
// loop over conns keep-alive connections.
type generator struct {
	url    string
	conns  int
	client *http.Client
}

func newGenerator(url string, conns int) *generator {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &generator{url: url, conns: conns, client: &http.Client{Transport: tr}}
}

func (g *generator) close() { g.client.CloseIdleConnections() }

// do sends one request and fills s's span and status.
func (g *generator) do(ctx context.Context, base time.Time, r *request, s *sample) {
	s.sent = true
	s.send = time.Since(base)
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, g.url+"/v1/"+r.op, bytes.NewReader(r.body))
	if err != nil {
		s.end = time.Since(base)
		return
	}
	hr.Header.Set("Content-Type", "application/json")
	resp, err := g.client.Do(hr)
	s.first = time.Since(base)
	if err != nil {
		s.end = s.first
		return
	}
	if r.check {
		s.body, err = io.ReadAll(resp.Body)
	} else {
		_, err = io.Copy(io.Discard, resp.Body)
	}
	resp.Body.Close()
	s.end = time.Since(base)
	if err == nil {
		s.status = resp.StatusCode
	}
}

// closedLoop keeps every connection busy for dur: each sends the next
// request of the stream as soon as its previous one has answered. The
// stream is drawn under a lock, so request k is the stream's k-th for
// every run of a seed; only which connection sends it varies.
func (g *generator) closedLoop(ctx context.Context, next func() request, dur time.Duration) []sample {
	base := time.Now()
	var mu sync.Mutex
	var samples []sample
	var wg sync.WaitGroup
	for c := 0; c < g.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && time.Since(base) < dur {
				mu.Lock()
				r := next()
				mu.Unlock()
				s := sample{op: r.op, req: &r}
				g.do(ctx, base, &r, &s)
				mu.Lock()
				samples = append(samples, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return samples
}

// sequential sends reqs one at a time on one connection (the warm pass).
func (g *generator) sequential(ctx context.Context, reqs []request) []sample {
	samples := make([]sample, len(reqs))
	base := time.Now()
	for i := range reqs {
		samples[i].op, samples[i].req = reqs[i].op, &reqs[i]
		if ctx.Err() != nil {
			break
		}
		g.do(ctx, base, &reqs[i], &samples[i])
	}
	return samples
}

// quantile returns the q-quantile of xs by the nearest-rank rule on the
// exact sorted samples. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	k := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(max(k, 0), len(xs)-1)]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// latenciesMS returns every sample's latency in ms; failed requests are
// +Inf, so they sort past any latency.
func latenciesMS(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i := range samples {
		if samples[i].ok() {
			out[i] = ms(samples[i].end - samples[i].send)
		} else {
			out[i] = math.Inf(1)
		}
	}
	return out
}

func failures(samples []sample) int {
	n := 0
	for i := range samples {
		if !samples[i].ok() {
			n++
		}
	}
	return n
}

// windowQuantile is the median, over windows, of each window's exact
// q-quantile latency (+Inf when failures reach the quantile). One stall
// of the shared host then moves the figure of the window it hit, not the
// result.
func windowQuantile(windows [][]sample, q float64) float64 {
	per := make([]float64, 0, len(windows))
	for _, win := range windows {
		if len(win) > 0 {
			per = append(per, quantile(latenciesMS(win), q))
		}
	}
	return median(per)
}
