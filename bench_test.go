// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation section, plus the ablations called out in DESIGN.md and
// micro-benchmarks of the substrates.
//
// Each table benchmark regenerates the corresponding experiment and reports
// its headline numbers as custom metrics, so
//
//	go test -bench 'Table|Figure' -benchtime 1x
//
// reproduces the whole evaluation. CODEPACK_BENCH_INSTR overrides the
// per-simulation instruction budget (default 300000 to keep `go test
// -bench=.` quick; the EXPERIMENTS.md results use cmd/experiments with the
// full budget).
package codepack_test

import (
	"bytes"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"

	"codepack"
	"codepack/internal/core"
	"codepack/internal/cpu"
	"codepack/internal/decomp"
	"codepack/internal/harness"
	"codepack/internal/isa"
	"codepack/internal/mem"
	"codepack/internal/server"
	"codepack/internal/vm"
	"codepack/internal/workload"
)

func benchInstr() uint64 {
	if s := os.Getenv("CODEPACK_BENCH_INSTR"); s != "" {
		if v, err := strconv.ParseUint(s, 10, 64); err == nil && v > 0 {
			return v
		}
	}
	return 300_000
}

// one shared suite: benchmark generation and compression are cached.
var suite = harness.NewSuite(benchInstr())

func runTable(b *testing.B, f func() (*harness.Table, error), metrics ...string) {
	b.Helper()
	var tb *harness.Table
	var err error
	for i := 0; i < b.N; i++ {
		tb, err = f()
		if err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i+1 < len(metrics); i += 2 {
		if v, ok := tb.Value(metrics[i], metrics[i+1]); ok {
			// Metric units must not contain whitespace.
			unit := strings.ReplaceAll(metrics[i]+"/"+metrics[i+1], " ", "-")
			b.ReportMetric(v, unit)
		}
	}
}

// --- One benchmark per paper table/figure -------------------------------

func BenchmarkTable1Characterization(b *testing.B) {
	runTable(b, suite.Table1, "cc1", "imiss", "mpeg2enc", "imiss")
}

func BenchmarkTable3CompressionRatio(b *testing.B) {
	runTable(b, suite.Table3, "cc1", "ratio", "vortex", "ratio")
}

func BenchmarkTable4Composition(b *testing.B) {
	runTable(b, suite.Table4, "cc1", "rawbits", "cc1", "indices")
}

func BenchmarkTable5IPC(b *testing.B) {
	runTable(b, suite.Table5,
		"cc1", "4-issue/native", "cc1", "4-issue/codepack", "cc1", "4-issue/optimized")
}

func BenchmarkTable6IndexCache(b *testing.B) {
	runTable(b, suite.Table6, "64", "4", "256", "8")
}

func BenchmarkTable7IndexCacheSpeedup(b *testing.B) {
	runTable(b, suite.Table7, "cc1", "index cache", "cc1", "perfect")
}

func BenchmarkTable8DecodeWidth(b *testing.B) {
	runTable(b, suite.Table8, "cc1", "2 decoders", "cc1", "16 decoders")
}

func BenchmarkTable9Optimizations(b *testing.B) {
	runTable(b, suite.Table9, "cc1", "all", "vortex", "all")
}

func BenchmarkTable10CacheSize(b *testing.B) {
	runTable(b, suite.Table10, "cc1", "1KB/optimized", "cc1", "64KB/optimized")
}

func BenchmarkTable11BusWidth(b *testing.B) {
	runTable(b, suite.Table11, "cc1", "16/optimized", "cc1", "128/optimized")
}

func BenchmarkTable12MemLatency(b *testing.B) {
	runTable(b, suite.Table12, "cc1", "0.5x/optimized", "cc1", "8x/optimized")
}

func BenchmarkFigure2Timeline(b *testing.B) {
	runTable(b, func() (*harness.Table, error) { return harness.Figure2() },
		"native", "critical", "codepack", "critical", "optimized", "critical")
}

// --- Ablations (DESIGN.md section 5) -------------------------------------

// BenchmarkAblationPrefetch quantifies the 16-instruction output buffer:
// the optimized decompressor with and without prefetch reuse.
func BenchmarkAblationPrefetch(b *testing.B) {
	bench, err := suite.Bench("cc1")
	if err != nil {
		b.Fatal(err)
	}
	cfg := cpu.FourIssue()
	var with, without cpu.Result
	for i := 0; i < b.N; i++ {
		if with, err = suite.Run(bench, cfg, cpu.OptimizedModel()); err != nil {
			b.Fatal(err)
		}
		m := cpu.OptimizedModel()
		m.CodePack.DisablePrefetch = true
		if without, err = suite.Run(bench, cfg, m); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(with.IPC(), "ipc-prefetch")
	b.ReportMetric(without.IPC(), "ipc-noprefetch")
	b.ReportMetric(float64(without.Cycles)/float64(with.Cycles), "prefetch-speedup")
}

// BenchmarkAblationCriticalWordFirst quantifies the native-code advantage
// the paper highlights.
func BenchmarkAblationCriticalWordFirst(b *testing.B) {
	bench, err := suite.Bench("cc1")
	if err != nil {
		b.Fatal(err)
	}
	cfg := cpu.FourIssue()
	var with, without cpu.Result
	for i := 0; i < b.N; i++ {
		if with, err = suite.Run(bench, cfg, cpu.NativeModel()); err != nil {
			b.Fatal(err)
		}
		m := cpu.NativeModel()
		m.NoCriticalWordFirst = true
		if without, err = suite.Run(bench, cfg, m); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(without.Cycles)/float64(with.Cycles), "cwf-speedup")
}

// BenchmarkAblationIndexBurst isolates the entries-per-line axis of Table 6
// at a fixed 64-line index cache.
func BenchmarkAblationIndexBurst(b *testing.B) {
	bench, err := suite.Bench("cc1")
	if err != nil {
		b.Fatal(err)
	}
	cfg := cpu.FourIssue()
	var r1, r4 cpu.Result
	for i := 0; i < b.N; i++ {
		m := cpu.BaselineModel()
		m.CodePack.IndexCacheLines = 64
		m.CodePack.IndexEntriesPerLine = 1
		if r1, err = suite.Run(bench, cfg, m); err != nil {
			b.Fatal(err)
		}
		m.CodePack.IndexEntriesPerLine = 4
		if r4, err = suite.Run(bench, cfg, m); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r1.CodePack.IndexMissRate(), "idxmiss-1entry")
	b.ReportMetric(r4.CodePack.IndexMissRate(), "idxmiss-4entry")
}

// BenchmarkAblationDictGeometry varies the dictionary-construction policy:
// the low-half zero pin and the class-3 break-even exclusion.
func BenchmarkAblationDictGeometry(b *testing.B) {
	bench, err := suite.Bench("go")
	if err != nil {
		b.Fatal(err)
	}
	variants := []struct {
		name string
		opts core.Options
	}{
		{"default", core.Options{Low: core.BuildDictOptions{ForceZeroSlot0: true}}},
		{"nozero", core.Options{}},
		{"keep-singletons", core.Options{
			Low:  core.BuildDictOptions{ForceZeroSlot0: true, MinClass3Count: 1},
			High: core.BuildDictOptions{MinClass3Count: 1},
		}},
	}
	ratios := make([]float64, len(variants))
	for i := 0; i < b.N; i++ {
		for vi, v := range variants {
			c, err := core.CompressWordsWith("abl", bench.Image.TextBase,
				bench.Image.Text, v.opts)
			if err != nil {
				b.Fatal(err)
			}
			ratios[vi] = c.Stats().Ratio()
		}
	}
	for vi, v := range variants {
		b.ReportMetric(ratios[vi], "ratio-"+v.name)
	}
}

// --- Substrate micro-benchmarks ------------------------------------------

func BenchmarkCompressThroughput(b *testing.B) {
	bench, err := suite.Bench("go")
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(bench.Image.TextBytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Compress(bench.Image); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecompressThroughput(b *testing.B) {
	bench, err := suite.Bench("go")
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(bench.Image.TextBytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Comp.Decompress(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeBlock(b *testing.B) {
	bench, err := suite.Bench("go")
	if err != nil {
		b.Fatal(err)
	}
	var out [core.BlockInstrs]isa.Word
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := bench.Comp.DecodeBlock(i%bench.Comp.NumBlocks(), &out); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodePooled measures the serve path's steady state: decoding
// whole programs into sync.Pool-recycled buffers via AppendDecompress.
// "cold" allocates a fresh destination per decode (what Decompress
// costs); "pooled" must report 0 allocs/op once the pool is warm.
func BenchmarkDecodePooled(b *testing.B) {
	bench, err := suite.Bench("go")
	if err != nil {
		b.Fatal(err)
	}
	b.Run("cold", func(b *testing.B) {
		b.SetBytes(int64(bench.Image.TextBytes()))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := bench.Comp.Decompress(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pooled", func(b *testing.B) {
		var pool sync.Pool
		pool.New = func() any { return new([]isa.Word) }
		// Warm one buffer so the measured region never sees pool.New.
		bp := pool.Get().(*[]isa.Word)
		text, err := bench.Comp.AppendDecompress((*bp)[:0])
		if err != nil {
			b.Fatal(err)
		}
		*bp = text
		pool.Put(bp)
		b.SetBytes(int64(bench.Image.TextBytes()))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			bp := pool.Get().(*[]isa.Word)
			text, err := bench.Comp.AppendDecompress((*bp)[:0])
			if err != nil {
				b.Fatal(err)
			}
			*bp = text
			pool.Put(bp)
		}
	})
}

func BenchmarkVMExecute(b *testing.B) {
	bench, err := suite.Bench("pegwit")
	if err != nil {
		b.Fatal(err)
	}
	m := vm.New(bench.Image)
	var rec vm.Rec
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m.Halted() {
			m = vm.New(bench.Image)
		}
		if err := m.Step(&rec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulatorNative(b *testing.B) {
	bench, err := suite.Bench("pegwit")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := cpu.Simulate(bench.Image, cpu.FourIssue(), cpu.NativeModel(), 100_000)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.Instructions), "instructions")
	}
}

func BenchmarkSimulatorCodePack(b *testing.B) {
	bench, err := suite.Bench("pegwit")
	if err != nil {
		b.Fatal(err)
	}
	model := cpu.OptimizedModel()
	model.Comp = bench.Comp
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cpu.Simulate(bench.Image, cpu.FourIssue(), model, 100_000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWorkloadGenerate(b *testing.B) {
	p := workload.Pegwit()
	for i := 0; i < b.N; i++ {
		if _, err := workload.Generate(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAssemble(b *testing.B) {
	src, err := workload.Source(workload.Pegwit())
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := codepack.Assemble("bench", src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecompEngineFetch(b *testing.B) {
	bench, err := suite.Bench("go")
	if err != nil {
		b.Fatal(err)
	}
	bus, err := mem.NewBus(cpu.FourIssue().Mem)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := decomp.NewCodePack(bench.Comp, bus, decomp.OptimizedCodePack())
	if err != nil {
		b.Fatal(err)
	}
	nLines := bench.Image.TextBytes() / decomp.LineBytes
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := bench.Image.TextBase + uint32(i%nLines)*decomp.LineBytes
		eng.FetchLine(uint64(i), addr, i%8)
	}
}

// BenchmarkRelatedWorkRatios compares the three compression schemes of the
// paper's section 2 on the go benchmark.
func BenchmarkRelatedWorkRatios(b *testing.B) {
	var tb *harness.Table
	var err error
	for i := 0; i < b.N; i++ {
		if tb, err = suite.RelatedWork(); err != nil {
			b.Fatal(err)
		}
	}
	for _, scheme := range []string{"codepack", "ccrp", "lefurgy"} {
		if v, ok := tb.Value("go", scheme); ok {
			b.ReportMetric(v, "ratio-"+scheme)
		}
	}
}

// BenchmarkExtensionSoftwareDecomp quantifies the paper's future-work
// option of software-managed decompression.
func BenchmarkExtensionSoftwareDecomp(b *testing.B) {
	bench, err := suite.Bench("mpeg2enc")
	if err != nil {
		b.Fatal(err)
	}
	var hw, sw cpu.Result
	for i := 0; i < b.N; i++ {
		if hw, err = suite.Run(bench, cpu.FourIssue(), cpu.NativeModel()); err != nil {
			b.Fatal(err)
		}
		if sw, err = suite.Run(bench, cpu.FourIssue(), cpu.SoftwareModel()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(sw.IPC(), "ipc-software")
	b.ReportMetric(float64(hw.Cycles)/float64(sw.Cycles), "software-vs-native")
}

// BenchmarkAblationIndexAssociativity compares the paper's fully
// associative index cache against cheaper set-associative hardware.
func BenchmarkAblationIndexAssociativity(b *testing.B) {
	bench, err := suite.Bench("cc1")
	if err != nil {
		b.Fatal(err)
	}
	cfg := cpu.FourIssue()
	miss := map[int]float64{}
	for i := 0; i < b.N; i++ {
		for _, assoc := range []int{0, 4, 1} {
			m := cpu.OptimizedModel()
			m.CodePack.IndexCacheAssoc = assoc
			r, err := suite.Run(bench, cfg, m)
			if err != nil {
				b.Fatal(err)
			}
			miss[assoc] = r.CodePack.IndexMissRate()
		}
	}
	b.ReportMetric(miss[0], "idxmiss-fullassoc")
	b.ReportMetric(miss[4], "idxmiss-4way")
	b.ReportMetric(miss[1], "idxmiss-directmapped")
}

// BenchmarkServerCompress measures POST /v1/compress latency through the
// full HTTP handler stack (routing, instrumentation, worker pool, codec):
// "cold" disables the content-addressed cache so every request pays the
// full compression cost, "hit" serves a warmed cache entry, so the split
// is the price of compression versus the price of the service plumbing.
func BenchmarkServerCompress(b *testing.B) {
	body := []byte(`{"benchmark":"pegwit"}`)
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	post := func(b *testing.B, ts *httptest.Server) {
		b.Helper()
		resp, err := http.Post(ts.URL+"/v1/compress", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
	run := func(cacheEntries int) func(*testing.B) {
		return func(b *testing.B) {
			s, err := server.New(server.Config{CacheEntries: cacheEntries, Logger: quiet})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			post(b, ts) // warm the suite's generated image (and, if enabled, the cache)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				post(b, ts)
			}
		}
	}
	b.Run("cold", run(-1))
	b.Run("hit", run(server.DefaultCacheEntries))
}
