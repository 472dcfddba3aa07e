package core

import (
	"math/rand"
	"strings"
	"testing"

	"codepack/internal/isa"
)

// classText builds a stream that exercises every tag class of both
// dictionaries: a handful of very frequent values (classes 0-2), a long
// tail of repeated-twice values (class 3 past the break-even policy), and
// unique singletons that must escape as raw halfwords.
func classText(rng *rand.Rand, n int) []isa.Word {
	text := make([]isa.Word, n)
	for i := range text {
		var hi, lo uint16
		switch rng.Intn(10) {
		case 0, 1, 2:
			hi, lo = 0x1000, 0 // class 0 contenders (low zero pinned)
		case 3, 4:
			hi, lo = uint16(0x2000+rng.Intn(8)), uint16(0x0010+rng.Intn(8))
		case 5, 6:
			hi, lo = uint16(0x3000+rng.Intn(64)), uint16(0x0100+rng.Intn(64))
		case 7, 8:
			// Repeated often enough to clear MinClass3Count, rare enough
			// to rank behind the small classes.
			hi, lo = uint16(0x4000+rng.Intn(200)), uint16(0x1000+rng.Intn(200))
		default:
			hi, lo = uint16(0x8000+i), uint16(0x8000+i) // raw escapes
		}
		text[i] = uint32(hi)<<16 | uint32(lo)
	}
	return text
}

// rawishText is mostly incompressible, so many blocks store raw.
func rawishText(rng *rand.Rand, n int) []isa.Word {
	text := make([]isa.Word, n)
	for i := range text {
		if rng.Intn(4) == 0 {
			text[i] = 0x24420004
		} else {
			text[i] = rng.Uint32()
		}
	}
	return text
}

// decompressReference decodes the whole image with the oracle walker.
func decompressReference(t *testing.T, c *Compressed) []isa.Word {
	t.Helper()
	out, err := c.DecompressReference()
	if err != nil {
		t.Fatalf("reference decode: %v", err)
	}
	return out
}

// TestFastDecodeMatchesReference holds the fast decoder word-for-word
// identical to the oracle across program shapes that hit all five tag
// classes, raw blocks, and padded tail blocks.
func TestFastDecodeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 15, 16, 17, 31, 32, 33, 100, 1000, 4096} {
		for gi, gen := range []func(*rand.Rand, int) []isa.Word{synthText, classText, rawishText} {
			text := gen(rng, n)
			c, err := CompressWords("diff", isa.TextBase, text)
			if err != nil {
				t.Fatalf("n=%d gen=%d: %v", n, gi, err)
			}
			want := decompressReference(t, c)
			got, err := c.Decompress()
			if err != nil {
				t.Fatalf("n=%d gen=%d fast: %v", n, gi, err)
			}
			if len(got) != len(want) {
				t.Fatalf("n=%d gen=%d: fast %d words, reference %d", n, gi, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("n=%d gen=%d word %d: fast %#x, reference %#x",
						n, gi, i, got[i], want[i])
				}
			}
			var ref, fast [BlockInstrs]isa.Word
			for b := 0; b < c.NumBlocks(); b++ {
				if err := c.DecodeBlockReference(b, &ref); err != nil {
					t.Fatal(err)
				}
				if err := c.DecodeBlock(b, &fast); err != nil {
					t.Fatal(err)
				}
				if ref != fast {
					t.Fatalf("n=%d gen=%d block %d diverges:\n fast %x\n ref  %x", n, gi, b, fast, ref)
				}
			}
		}
	}
}

// TestFastDecodeConsumedBitsMatchInstrReadyBytes is the byte-arrival
// contract: the bit position the fast decoder has consumed after each
// instruction must equal the encoder-recorded cumulative bit count, so
// InstrReadyBytes — which drives the timing model's fetch/decode
// overlap — describes exactly what the fast decoder reads.
func TestFastDecodeConsumedBitsMatchInstrReadyBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{16, 33, 512, 2048} {
		for gi, gen := range []func(*rand.Rand, int) []isa.Word{synthText, classText, rawishText} {
			c, err := CompressWords("pos", isa.TextBase, gen(rng, n))
			if err != nil {
				t.Fatalf("n=%d gen=%d: %v", n, gi, err)
			}
			var out [BlockInstrs]isa.Word
			var pos [BlockInstrs]uint16
			for b := 0; b < c.NumBlocks(); b++ {
				if err := c.DecodeBlockPositions(b, &out, &pos); err != nil {
					t.Fatalf("block %d: %v", b, err)
				}
				for i := 0; i < BlockInstrs; i++ {
					if pos[i] != c.blocks[b].cumBits[i] {
						t.Fatalf("n=%d gen=%d block %d instr %d: fast consumed %d bits, encoder recorded %d",
							n, gi, b, i, pos[i], c.blocks[b].cumBits[i])
					}
					if want := int(pos[i]+7) / 8; c.InstrReadyBytes(b, i) != want {
						t.Fatalf("block %d instr %d: InstrReadyBytes %d, fast decoder needs %d",
							b, i, c.InstrReadyBytes(b, i), want)
					}
				}
			}
		}
	}
}

// TestPublicDecodeEntryPointsMatchReference checks every public decode
// entry point — Decompress, AppendDecompress, DecodeBlock and DecodeAt —
// against the oracle walker on one image.
func TestPublicDecodeEntryPointsMatchReference(t *testing.T) {
	c, err := CompressWords("entry", isa.TextBase, classText(rand.New(rand.NewSource(3)), 500))
	if err != nil {
		t.Fatal(err)
	}
	ref := decompressReference(t, c)
	got, err := c.Decompress()
	if err != nil {
		t.Fatal(err)
	}
	app, err := c.AppendDecompress(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ref) || len(app) != len(ref) {
		t.Fatalf("Decompress %d / AppendDecompress %d words, reference %d", len(got), len(app), len(ref))
	}
	var blk [BlockInstrs]isa.Word
	for i := range ref {
		if got[i] != ref[i] || app[i] != ref[i] {
			t.Fatalf("word %d: Decompress %#x, AppendDecompress %#x, reference %#x", i, got[i], app[i], ref[i])
		}
		if i%BlockInstrs == 0 {
			if err := c.DecodeBlock(i/BlockInstrs, &blk); err != nil {
				t.Fatal(err)
			}
		}
		if blk[i%BlockInstrs] != ref[i] {
			t.Fatalf("DecodeBlock word %d = %#x, reference %#x", i, blk[i%BlockInstrs], ref[i])
		}
		at, err := c.DecodeAt(isa.TextBase + uint32(4*i))
		if err != nil {
			t.Fatal(err)
		}
		if at != ref[i] {
			t.Fatalf("DecodeAt word %d = %#x, reference %#x", i, at, ref[i])
		}
	}
}

// TestAppendDecompressReuse checks the pooled-buffer contract: a
// pre-sized destination is decoded into in place without reallocating,
// and appending starts after the existing contents.
func TestAppendDecompressReuse(t *testing.T) {
	c, err := CompressWords("app", isa.TextBase, classText(rand.New(rand.NewSource(5)), 300))
	if err != nil {
		t.Fatal(err)
	}
	first, err := c.AppendDecompress(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != 300 {
		t.Fatalf("decoded %d words, want 300", len(first))
	}
	// Reuse: same backing array, no growth.
	again, err := c.AppendDecompress(first[:0])
	if err != nil {
		t.Fatal(err)
	}
	if &again[0] != &first[0] {
		t.Fatal("pre-sized buffer was reallocated")
	}
	// Append semantics: existing prefix preserved.
	prefixed, err := c.AppendDecompress(append([]isa.Word(nil), 0xDEAD, 0xBEEF))
	if err != nil {
		t.Fatal(err)
	}
	if prefixed[0] != 0xDEAD || prefixed[1] != 0xBEEF || len(prefixed) != 302 {
		t.Fatalf("prefix not preserved: len=%d head=%#x,%#x", len(prefixed), prefixed[0], prefixed[1])
	}
	for i, w := range first {
		if prefixed[2+i] != w {
			t.Fatalf("word %d: %#x want %#x", i, prefixed[2+i], w)
		}
	}
}

// TestFastDecodeTruncationAndMiss drives the fast decoder's failure
// paths: both decoders must reject a truncated or dictionary-missing
// stream (messages may differ, outcomes may not).
func TestFastDecodeTruncationAndMiss(t *testing.T) {
	c, err := CompressWords("trunc", isa.TextBase, classText(rand.New(rand.NewSource(9)), 256))
	if err != nil {
		t.Fatal(err)
	}
	// Truncate the region in place: some block now extends past it.
	full := c.Region
	c.Region = full[:len(full)/2]
	var out [BlockInstrs]isa.Word
	sawFastErr, sawRefErr := false, false
	for b := 0; b < c.NumBlocks(); b++ {
		errFast := c.DecodeBlock(b, &out)
		errRef := c.DecodeBlockReference(b, &out)
		if (errFast == nil) != (errRef == nil) {
			t.Fatalf("block %d: fast err=%v, reference err=%v", b, errFast, errRef)
		}
		sawFastErr = sawFastErr || errFast != nil
		sawRefErr = sawRefErr || errRef != nil
	}
	if !sawFastErr || !sawRefErr {
		t.Fatal("truncated region decoded cleanly by both decoders")
	}
	c.Region = full

	// Shrink the dictionaries: in-dictionary codewords now miss.
	small, err := NewDict(nil)
	if err != nil {
		t.Fatal(err)
	}
	missC, err := CompressWords("miss", isa.TextBase, classText(rand.New(rand.NewSource(9)), 256))
	if err != nil {
		t.Fatal(err)
	}
	missC.High, missC.Low = small, small
	for b := 0; b < missC.NumBlocks(); b++ {
		_, _, raw, err := missC.BlockExtent(b)
		if err != nil {
			t.Fatal(err)
		}
		if raw {
			continue
		}
		errFast := missC.DecodeBlock(b, &out)
		errRef := missC.DecodeBlockReference(b, &out)
		if (errFast == nil) != (errRef == nil) {
			t.Fatalf("block %d: fast err=%v, reference err=%v", b, errFast, errRef)
		}
		if errFast != nil && !strings.Contains(errFast.Error(), "miss") &&
			!strings.Contains(errFast.Error(), "truncated") {
			t.Fatalf("unexpected fast error: %v", errFast)
		}
	}
}

// TestFastTablesConcurrentBuild races first decodes; run with -race.
func TestFastTablesConcurrentBuild(t *testing.T) {
	c, err := CompressWords("race", isa.TextBase, synthText(rand.New(rand.NewSource(2)), 1024))
	if err != nil {
		t.Fatal(err)
	}
	want := decompressReference(t, c)
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			got, err := c.Decompress()
			if err == nil {
				for i := range got {
					if got[i] != want[i] {
						err = errFastRaceMismatch
						break
					}
				}
			}
			done <- err
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

var errFastRaceMismatch = errorString("concurrent fast decode diverged from reference")

type errorString string

func (e errorString) Error() string { return string(e) }
