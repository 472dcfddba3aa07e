package core

import (
	"math/rand"
	"testing"

	"codepack/internal/isa"
)

// FuzzUnmarshalCompressed feeds arbitrary bytes to the compressed-image
// parser: it must reject or accept them without panicking, it must accept
// exactly when a rescan with the reference walker accepts, an accepted
// image's block extents and byte-arrival tables must equal the reference
// rescan's, and anything it accepts must decompress like the reference
// walker decompresses it.
func FuzzUnmarshalCompressed(f *testing.F) {
	rng := rand.New(rand.NewSource(5))
	good, err := CompressWords("seed", isa.TextBase, synthText(rng, 128))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good.Marshal())
	f.Add([]byte{})
	f.Add(make([]byte, 64))
	for _, text := range [][]isa.Word{classText(rng, 96), rawishText(rng, 96)} {
		c, err := CompressWords("seed", isa.TextBase, text)
		if err != nil {
			f.Fatal(err)
		}
		blob := c.Marshal()
		f.Add(blob)
		blob = append([]byte(nil), blob...)
		blob[len(blob)-len(c.Region)/2] ^= 0x5A // corrupt mid-region
		f.Add(blob)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c := checkRescanMatchesReference(t, data)
		if c == nil {
			return
		}
		got, err := c.Decompress()
		want, refErr := c.DecompressReference()
		if (err == nil) != (refErr == nil) {
			t.Fatalf("Decompress err=%v, reference err=%v", err, refErr)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("word %d: %#x, reference %#x", i, got[i], want[i])
			}
		}
	})
}

// FuzzDecodeCorruptRegion corrupts the compressed region of a valid image:
// the decoder must fail cleanly or produce bounded output, never panic or
// loop.
func FuzzDecodeCorruptRegion(f *testing.F) {
	rng := rand.New(rand.NewSource(6))
	base, err := CompressWords("seed", isa.TextBase, synthText(rng, 256))
	if err != nil {
		f.Fatal(err)
	}
	blob := base.Marshal()
	f.Add(uint16(0), byte(0xFF))
	f.Add(uint16(100), byte(0x01))
	f.Fuzz(func(t *testing.T, pos uint16, xor byte) {
		mut := append([]byte(nil), blob...)
		if len(mut) == 0 || xor == 0 {
			return
		}
		mut[int(pos)%len(mut)] ^= xor
		c, err := UnmarshalCompressed("fuzz", mut)
		if err != nil {
			return
		}
		var out, ref [BlockInstrs]isa.Word
		for b := 0; b < c.NumBlocks(); b++ {
			// Both decoders must survive corruption; when both accept a
			// block they must still agree word for word.
			errFast := c.DecodeBlock(b, &out)
			errRef := c.DecodeBlockReference(b, &ref)
			if errFast == nil && errRef == nil && out != ref {
				t.Fatalf("block %d of corrupted image: fast %x, reference %x", b, out, ref)
			}
		}
	})
}

// FuzzDecodeEquivalence compresses arbitrary programs and asserts the
// fast table-driven decoder is word-for-word identical to the reference
// tag walker across every decode entry point: whole-image Decompress,
// per-block DecodeBlock (including raw and padded tail blocks), and
// address-wise DecodeAt. This is the CI-enforced invariant that lets the
// table-driven decoder be the only one in production code.
func FuzzDecodeEquivalence(f *testing.F) {
	rng := rand.New(rand.NewSource(13))
	seed := func(text []isa.Word) {
		raw := make([]byte, 4*len(text))
		for i, w := range text {
			raw[4*i] = byte(w >> 24)
			raw[4*i+1] = byte(w >> 16)
			raw[4*i+2] = byte(w >> 8)
			raw[4*i+3] = byte(w)
		}
		f.Add(raw, uint8(0))
	}
	seed(synthText(rng, 96))
	seed(make([]isa.Word, 40))   // all-zero: maximally compressible
	seed([]isa.Word{0xDEADBEEF}) // single instruction, padded tail
	f.Add([]byte{0x01, 0x02, 0x03}, uint8(5))
	f.Fuzz(func(t *testing.T, data []byte, trim uint8) {
		// Reassemble the bytes into an instruction stream; trim varies
		// the length mod the group size so padded tails are exercised.
		// The word cap bounds per-exec cost: the engine replays the body
		// thousands of times when minimizing an interesting input, so a
		// cheap body is what keeps the CI fuzz budget productive. Six
		// blocks still span multiple groups, raw blocks and padded tails.
		n := (len(data) + 3) / 4
		if n == 0 {
			n = 1
		}
		if n > 6*BlockInstrs {
			n = 6 * BlockInstrs
		}
		if cut := int(trim) % GroupInstrs; n > cut {
			n -= cut
		}
		text := make([]isa.Word, n)
		for i := range text {
			var w uint32
			for j := 0; j < 4; j++ {
				w <<= 8
				if o := 4*i + j; o < len(data) {
					w |= uint32(data[o])
				}
			}
			text[i] = w
		}
		c, err := CompressWords("fuzz", isa.TextBase, text)
		if err != nil {
			t.Fatalf("compress: %v", err)
		}

		// Whole image: both decoders must succeed and agree.
		fast, err := c.Decompress()
		if err != nil {
			t.Fatalf("fast decompress: %v", err)
		}
		if len(fast) != n {
			t.Fatalf("fast decoded %d words, want %d", len(fast), n)
		}
		var refBlk, fastBlk [BlockInstrs]isa.Word
		var pos [BlockInstrs]uint16
		for b := 0; b < c.NumBlocks(); b++ {
			if err := c.DecodeBlockReference(b, &refBlk); err != nil {
				t.Fatalf("reference block %d: %v", b, err)
			}
			// The positions variant is the production decoder plus the
			// byte-arrival contract: consumed bits == encoder cumBits.
			if err := c.DecodeBlockPositions(b, &fastBlk, &pos); err != nil {
				t.Fatalf("fast block %d: %v", b, err)
			}
			if refBlk != fastBlk {
				t.Fatalf("block %d: fast %x, reference %x", b, fastBlk, refBlk)
			}
			for i := 0; i < BlockInstrs; i++ {
				if want := c.InstrReadyBytes(b, i); int(pos[i]+7)/8 != want {
					t.Fatalf("block %d instr %d: fast consumes %d bits (%d bytes), InstrReadyBytes %d",
						b, i, pos[i], int(pos[i]+7)/8, want)
				}
			}
			for i := 0; i < BlockInstrs; i++ {
				idx := b*BlockInstrs + i
				if idx >= n {
					break
				}
				if fastBlk[i] != text[idx] {
					t.Fatalf("word %d: decoded %#x, original %#x", idx, fastBlk[i], text[idx])
				}
			}
		}
		// Address-wise: DecodeAt on a sample of addresses.
		for _, idx := range []int{0, n / 2, n - 1} {
			addr := isa.TextBase + uint32(4*idx)
			w, err := c.DecodeAt(addr)
			if err != nil {
				t.Fatalf("DecodeAt %#x: %v", addr, err)
			}
			if w != text[idx] {
				t.Fatalf("DecodeAt %#x = %#x, want %#x", addr, w, text[idx])
			}
		}
	})
}

// FuzzBitStream checks writer/reader agreement on arbitrary field layouts.
func FuzzBitStream(f *testing.F) {
	f.Add(uint32(0xDEADBEEF), uint8(7), uint32(0x1234), uint8(13))
	f.Fuzz(func(t *testing.T, v1 uint32, n1 uint8, v2 uint32, n2 uint8) {
		a, b := uint(n1)%32+1, uint(n2)%32+1
		var w bitWriter
		w.writeBits(v1, a)
		w.writeBits(v2, b)
		w.align()
		r := bitReader{buf: w.bytes()}
		m1 := uint32(1)<<a - 1
		if a == 32 {
			m1 = ^uint32(0)
		}
		m2 := uint32(1)<<b - 1
		if b == 32 {
			m2 = ^uint32(0)
		}
		if got := r.readBits(a); got != v1&m1 {
			t.Fatalf("field1 %#x, want %#x", got, v1&m1)
		}
		if got := r.readBits(b); got != v2&m2 {
			t.Fatalf("field2 %#x, want %#x", got, v2&m2)
		}
	})
}
