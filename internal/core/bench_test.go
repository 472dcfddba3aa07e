package core_test

import (
	"testing"

	"codepack/internal/harness"
)

// BenchmarkDecodeThroughput races the two decoder implementations on the
// same compressed image (the "go" suite benchmark): "reference" is the
// test-only bit-at-a-time tag walker, "fast" the table-driven decoder
// behind every production decode. The MB/s ratio between the two
// sub-benchmarks is the headline number for the table-driven decoder
// (docs/BENCH.md tracks it across PRs), and "reference" is the anchor
// cmd/benchcompare normalizes machine speed on.
func BenchmarkDecodeThroughput(b *testing.B) {
	bench, err := harness.NewSuite(0).Bench("go")
	if err != nil {
		b.Fatal(err)
	}
	b.Run("reference", func(b *testing.B) {
		b.SetBytes(int64(bench.Image.TextBytes()))
		for i := 0; i < b.N; i++ {
			if _, err := bench.Comp.DecompressReference(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fast", func(b *testing.B) {
		b.SetBytes(int64(bench.Image.TextBytes()))
		for i := 0; i < b.N; i++ {
			if _, err := bench.Comp.Decompress(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
