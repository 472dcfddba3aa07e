package main

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"codepack"
	"codepack/internal/server"
)

// span is one recorded interval, kept in memory and written out when the
// run ends. Spans of one request share its ID: the request as a whole,
// the HTTP call up to the response headers, and the body read; replayed
// public calls share the replayed request's ID.
type span struct {
	ID     int     `json:"id"`
	Name   string  `json:"name"`
	Op     string  `json:"op,omitempty"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
	Status int     `json:"status,omitempty"`
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// Traced-run phase lengths, as shares of --seconds.
const (
	plainShare  = 0.3
	tracedShare = 0.3
	replayShare = 0.25
)

// topStages are the stage spans directly under cpackd's per-request
// root span; their sum is the server time some named stage accounts for.
var topStages = []string{"queue-wait", "resolve-image", "cache-lookup", "singleflight-wait", "fill"}

// traced is the per-layer run: one set-up, an untraced and a traced
// window of the serial phase's load, then a replay of the traced window's
// inputs through the public functions of each layer.
func (b *bench) traced(ctx context.Context) (*result, map[string]any, error) {
	if _, err := b.startUp(ctx, 1); err != nil {
		return nil, nil, err
	}
	g := newGenerator(b.d.url, 1)
	defer g.close()
	warm := b.load(ctx, g, b.share(warmupShare))
	plain, cpuPlain, err := b.cpuPerOp(func() []sample {
		return b.load(ctx, g, b.share(plainShare))
	})
	if err != nil {
		return nil, nil, err
	}
	// The scrapes are part of tracing, so their cost lands in the traced
	// window's CPU.
	var before, after *vars
	var scrapeErr error
	traced, cpuTraced, err := b.cpuPerOp(func() []sample {
		if before, scrapeErr = b.d.scrape(ctx); scrapeErr != nil {
			return nil
		}
		s := b.load(ctx, g, b.share(tracedShare))
		after, scrapeErr = b.d.scrape(ctx)
		return s
	})
	if err == nil {
		err = scrapeErr
	}
	if err != nil {
		return nil, nil, err
	}
	l := layerValues(before, after, traced)
	l["trace.overhead_frac"] = cpuTraced/cpuPlain - 1
	b.recordSpans(traced)
	rep, err := b.replay(traced, b.share(replayShare))
	if err != nil {
		return nil, nil, err
	}
	for k, v := range rep {
		l[k] = v
	}
	b.runChecks()

	b.counted = append(b.counted, warm...)
	b.counted = append(b.counted, plain...)
	b.counted = append(b.counted, traced...)
	res := b.result()
	res.Metrics = report(layerMetrics, l)
	info := b.info()
	info["traced_samples"] = len(traced)
	if err := b.w.sanity(l); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: layer sanity:", err)
		info["sanity"] = err.Error()
		res.Correct = false
	}
	return res, info, nil
}

// layerValues derives the per-layer metrics of a traced window from
// cpackd's /debug/vars and /metrics before and after it, and from the
// generator's client spans.
func layerValues(before, after *vars, samples []sample) map[string]float64 {
	n := float64(max(len(samples), 1))
	a0, a1 := &before.Cpackd, &after.Cpackd
	stageMS := func(name string) float64 { return (a1.Stages[name].Sum - a0.Stages[name].Sum) * 1000 / n }
	l := map[string]float64{
		"admission.queue_wait_ms": stageMS("queue-wait"),
		"resolve.ms":              stageMS("resolve-image"),
		"cache.lookup_ms":         stageMS("cache-lookup"),
		"cache.bytes_mb":          float64(a1.Cache.Bytes) / (1 << 20),
		"encode.ms":               stageMS("compress"),
		"encode.dict_build_ms":    stageMS("dict-build"),
		"encode.encode_ms":        stageMS("encode"),
		"encode.index_build_ms":   stageMS("index-build"),
		"encode.count_per_op":     float64(a1.Stages["compress"].N-a0.Stages["compress"].N) / n,
		"cache.evictions_per_op":  float64(a1.Cache.Evictions-a0.Cache.Evictions) / n,
		"store.appends_per_op":    float64(a1.Store.Appends-a0.Store.Appends) / n,
		"store.append_errors":     float64(a1.Store.AppendErrors - a0.Store.AppendErrors),
		"store.compactions":       float64(a1.Store.Compactions - a0.Store.Compactions),
		"store.restored_entries":  float64(a1.Store.RestoredEntries),
	}
	hits, misses := a1.Cache.Hits-a0.Cache.Hits, a1.Cache.Misses-a0.Cache.Misses
	l["cache.hit_ratio"] = ratio(hits, hits+misses)

	var covered float64
	for _, s := range topStages {
		covered += stageMS(s)
	}
	var shed int
	var service, ttfb, body []float64
	byOp := map[string][]float64{}
	for i := range samples {
		s := &samples[i]
		if s.status == 429 {
			shed++
		}
		if !s.ok() {
			continue
		}
		service = append(service, ms(s.end-s.send))
		ttfb = append(ttfb, ms(s.first-s.send))
		body = append(body, ms(s.end-s.first))
		byOp[s.op] = append(byOp[s.op], ms(s.end-s.send))
	}
	l["admission.shed_ratio"] = float64(shed) / n
	l["unattributed_ms"] = unattributed(mean(service), covered)
	l["http.ttfb_ms"] = mean(ttfb)
	l["http.body_ms"] = mean(body)
	for _, op := range []string{"compress", "verify", "decompress", "simulate"} {
		l["op."+op+".p50_ms"] = quantile(byOp[op], 0.5)
	}

	heap := after.HeapLive
	if heap == 0 {
		heap = float64(after.MemStats.HeapAlloc)
	}
	l["go.alloc_kb_per_op"] = float64(after.MemStats.TotalAlloc-before.MemStats.TotalAlloc) / 1024 / n
	l["go.heap_live_mb"] = heap / (1 << 20)
	l["go.gc_cpu_frac"] = windowFraction(before.MemStats.GCCPUFraction, a0.Uptime, after.MemStats.GCCPUFraction, a1.Uptime)
	return l
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// unattributed is the part of the client's mean service time that no
// top-level server stage covers: HTTP, request decoding, response
// encoding and whatever else runs outside a named span. It is never
// negative; stage means can exceed a client mean only through clock
// skew between the two processes.
func unattributed(clientMS, coveredMS float64) float64 {
	return max(0, clientMS-coveredMS)
}

// windowFraction turns two readings of a since-start fraction (Go's
// GCCPUFraction, at process ages t0 and t1) into the fraction over the
// window between them.
func windowFraction(f0, t0, f1, t1 float64) float64 {
	if t1 <= t0 {
		return 0
	}
	return max(0, (f1*t1-f0*t0)/(t1-t0))
}

// recordSpans keeps the traced window's client spans.
func (b *bench) recordSpans(samples []sample) {
	for i := range samples {
		s := &samples[i]
		if !s.sent {
			continue
		}
		b.spans = append(b.spans,
			span{ID: i, Name: "request", Op: s.op, Start: us(s.send), End: us(s.end), Status: s.status},
			span{ID: i, Name: "http-headers", Start: us(s.send), End: us(s.first)},
			span{ID: i, Name: "http-body", Start: us(s.first), End: us(s.end)},
		)
	}
}

// replay runs the traced window's requests, in order and on this one
// goroutine, through the public function behind each layer, one span per
// call, until budget is spent (at least minReplay requests). It returns
// the mean time per call, encode throughput and simulator speed.
func (b *bench) replay(samples []sample, budget time.Duration) (map[string]float64, error) {
	const minReplay = 8
	total := map[string]time.Duration{}
	calls := map[string]int{}
	var textBytes, simInstr int64
	var err error
	base := time.Now()
	timed := func(id int, name string, fn func()) {
		t0 := time.Now()
		fn()
		d := time.Since(t0)
		total[name] += d
		calls[name]++
		b.spans = append(b.spans, span{ID: id, Name: "replay." + name, Start: us(t0.Sub(base)), End: us(t0.Sub(base) + d)})
	}
	var buf []uint32
	for i := 0; i < len(samples) && (i < minReplay || time.Since(base) < budget) && err == nil; i++ {
		r := samples[i].req
		p := r.prog
		src := p.base.source(p.variant)
		var im *codepack.Image
		var comp, reloaded *codepack.Compressed
		var cpk []byte
		timed(i, "wire.req_decode", func() { err = decodeRequest(r) })
		timed(i, "image.unmarshal", func() { im, err = codepack.UnmarshalImage(p.raw) })
		if err != nil {
			break
		}
		timed(i, "digest", func() { _ = codepack.Digest(im.Marshal()) })
		timed(i, "asm.assemble", func() { _, err = codepack.Assemble("replay", src) })
		timed(i, "codec.encode", func() { comp, err = codepack.Compress(im) })
		if err != nil {
			break
		}
		textBytes += int64(4 * len(im.Text))
		timed(i, "codec.marshal", func() { cpk = comp.Marshal() })
		timed(i, "codec.unmarshal", func() { reloaded, err = codepack.UnmarshalCompressed("replay", cpk) })
		if err != nil {
			break
		}
		timed(i, "codec.decode", func() { buf, err = reloaded.AppendDecompress(buf[:0]) })
		timed(i, "wire.resp_encode", func() { _, err = encodeResponse(p, comp, cpk) })
		// The model carries the compressed program, as cpackd's does, so
		// the span times the simulator alone.
		model := codepack.OptimizedModel()
		model.Comp = comp
		timed(i, "sim", func() {
			var res codepack.Result
			res, err = codepack.Simulate(im, codepack.FourIssue(), model, simBudget)
			simInstr += int64(res.Instructions)
		})
	}
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	meanUS := func(name string) float64 { return us(total[name]) / float64(max(calls[name], 1)) }
	return map[string]float64{
		"wire.req_decode_us":  meanUS("wire.req_decode"),
		"wire.resp_encode_us": meanUS("wire.resp_encode"),
		"image.unmarshal_us":  meanUS("image.unmarshal"),
		"digest.us":           meanUS("digest"),
		"asm.assemble_us":     meanUS("asm.assemble"),
		"codec.encode_us":     meanUS("codec.encode"),
		"codec.encode_mbps":   float64(textBytes) / us(total["codec.encode"]),
		"codec.marshal_us":    meanUS("codec.marshal"),
		"codec.unmarshal_us":  meanUS("codec.unmarshal"),
		"codec.decode_us":     meanUS("codec.decode"),
		"sim.minstr_per_s":    float64(simInstr) / us(total["sim"]),
	}, nil
}

// decodeRequest decodes a request body the way cpackd does (strict JSON
// into the endpoint's request type), plus the base64 payload it carries.
func decodeRequest(r *request) error {
	dec := json.NewDecoder(bytes.NewReader(r.body))
	dec.DisallowUnknownFields()
	var payload string
	switch r.op {
	case "compress":
		var v server.CompressRequest
		if err := dec.Decode(&v); err != nil {
			return err
		}
		payload = v.ImageB64
	case "verify":
		var v server.VerifyRequest
		if err := dec.Decode(&v); err != nil {
			return err
		}
		payload = v.ImageB64
	case "decompress":
		var v server.DecompressRequest
		if err := dec.Decode(&v); err != nil {
			return err
		}
		payload = v.CompressedB64
	case "simulate":
		var v server.SimulateRequest
		if err := dec.Decode(&v); err != nil {
			return err
		}
		payload = v.ImageB64
	}
	_, err := base64.StdEncoding.DecodeString(payload)
	return err
}

// encodeResponse builds a compress response body as cpackd does.
func encodeResponse(p *program, comp *codepack.Compressed, cpk []byte) ([]byte, error) {
	st := comp.Stats()
	return json.Marshal(server.CompressResponse{
		Name:            p.im.Name,
		Digest:          p.digest,
		OriginalBytes:   st.OriginalBytes,
		CompressedBytes: st.CompressedBytes(),
		Ratio:           st.Ratio(),
		CompressedB64:   base64.StdEncoding.EncodeToString(cpk),
	})
}

// dumpSpans writes the run's spans next to the build, once the run is
// over.
func (b *bench) dumpSpans() error {
	f := filepath.Join(b.o.out, fmt.Sprintf("spans-%s-seed%d.json", b.w.name, b.o.seed))
	data, err := json.Marshal(b.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(f, data, 0o644)
}
