package main

// metricSpec names one reported metric and its unit. The lists below are
// the benchmark's output contract; BENCHMARK.json at the repository root
// declares the same names and units, and a self-test keeps them equal.
type metricSpec struct {
	name, unit string
}

// endToEndMetrics are reported by untraced runs (--trace 0).
var endToEndMetrics = []metricSpec{
	{"capacity_rps", "req/s"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MiB"},
	{"setup_s", "s"},
	{"success_ratio", "fraction"},
}

// layerMetrics are reported by traced runs (--trace 1). Stage times are
// the mean per request over the traced window; *_us replay metrics are
// the mean per public call.
var layerMetrics = []metricSpec{
	{"admission.queue_wait_ms", "ms"},
	{"admission.shed_ratio", "fraction"},
	{"resolve.ms", "ms"},
	{"cache.lookup_ms", "ms"},
	{"cache.hit_ratio", "fraction"},
	{"cache.evictions_per_op", "count/op"},
	{"cache.bytes_mb", "MiB"},
	{"encode.ms", "ms"},
	{"encode.dict_build_ms", "ms"},
	{"encode.encode_ms", "ms"},
	{"encode.index_build_ms", "ms"},
	{"store.appends_per_op", "count/op"},
	{"store.append_errors", "count"},
	{"store.compactions", "count"},
	{"store.restored_entries", "count"},
	{"unattributed_ms", "ms"},
	{"go.alloc_kb_per_op", "KiB/op"},
	{"go.gc_cpu_frac", "fraction"},
	{"go.heap_live_mb", "MiB"},
	{"http.ttfb_ms", "ms"},
	{"http.body_ms", "ms"},
	{"op.compress.p50_ms", "ms"},
	{"op.verify.p50_ms", "ms"},
	{"op.decompress.p50_ms", "ms"},
	{"op.simulate.p50_ms", "ms"},
	{"wire.req_decode_us", "us"},
	{"wire.resp_encode_us", "us"},
	{"image.unmarshal_us", "us"},
	{"digest.us", "us"},
	{"asm.assemble_us", "us"},
	{"codec.encode_us", "us"},
	{"codec.encode_mbps", "MB/s"},
	{"codec.marshal_us", "us"},
	{"codec.unmarshal_us", "us"},
	{"codec.decode_us", "us"},
	{"sim.minstr_per_s", "Minstr/s"},
	{"trace.overhead_frac", "fraction"},
}

// report picks the specs' values out of vals; a missing value is 0.
func report(specs []metricSpec, vals map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(specs))
	for _, m := range specs {
		out[m.name] = metricValue{Value: vals[m.name], Unit: m.unit}
	}
	return out
}
