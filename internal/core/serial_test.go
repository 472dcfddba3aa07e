package core

import (
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"

	"codepack/internal/isa"
)

func TestCompressedMarshalRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	gens := map[string]func(*rand.Rand, int) []isa.Word{
		"synth": synthText, "class": classText, "rawish": rawishText,
	}
	for _, name := range []string{"synth", "class", "rawish"} {
		text := gens[name](rng, 4096)
		c, err := CompressWords("m", isa.TextBase, text)
		if err != nil {
			t.Fatal(err)
		}
		out, err := UnmarshalCompressed("m", c.Marshal())
		if err != nil {
			t.Fatal(err)
		}
		if out.TextBase != c.TextBase || out.NumInstr != c.NumInstr {
			t.Fatalf("%s: header lost", name)
		}
		dec, err := out.Decompress()
		if err != nil {
			t.Fatal(err)
		}
		for i := range dec {
			if dec[i] != text[i] {
				t.Fatalf("%s: word %d corrupted after marshal round trip", name, i)
			}
		}
		// The rebuilt block metadata must match the original exactly: the
		// timing model depends on it.
		for b := 0; b < c.NumBlocks(); b++ {
			s1, z1, r1, _ := c.BlockExtent(b)
			s2, z2, r2, _ := out.BlockExtent(b)
			if s1 != s2 || z1 != z2 || r1 != r2 {
				t.Fatalf("%s: block %d extent differs: (%d,%d,%v) vs (%d,%d,%v)",
					name, b, s1, z1, r1, s2, z2, r2)
			}
			for i := 0; i < BlockInstrs; i++ {
				if c.InstrReadyBytes(b, i) != out.InstrReadyBytes(b, i) {
					t.Fatalf("%s: block %d instr %d ready bytes differ", name, b, i)
				}
			}
		}
		// The whole composition survives the round trip, so Composition()
		// of a restored image reports the same Table 4 row.
		if !reflect.DeepEqual(c.Stats(), out.Stats()) {
			t.Fatalf("%s: stats after round trip\n got  %+v\n want %+v", name, out.Stats(), c.Stats())
		}
		checkRescanMatchesReference(t, c.Marshal())
	}
}

func TestCompressedMarshalWithRawBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	text := make([]isa.Word, 512)
	for i := range text {
		text[i] = isa.Word(rng.Uint32()) // incompressible -> raw blocks
	}
	c, err := CompressWords("raw", isa.TextBase, text)
	if err != nil {
		t.Fatal(err)
	}
	if c.Stats().RawBlockInstrs == 0 {
		t.Skip("no raw blocks generated")
	}
	out, err := UnmarshalCompressed("raw", c.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	dec, err := out.Decompress()
	if err != nil {
		t.Fatal(err)
	}
	for i := range dec {
		if dec[i] != text[i] {
			t.Fatalf("raw word %d corrupted", i)
		}
	}
}

func TestUnmarshalCompressedRejectsGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	good, err := CompressWords("g", isa.TextBase, synthText(rng, 64))
	if err != nil {
		t.Fatal(err)
	}
	blob := good.Marshal()
	mutate := func(f func(b []byte)) []byte {
		b := append([]byte(nil), blob...)
		f(b)
		return b
	}
	regionOff := len(blob) - len(good.Region)
	idxOff := regionOff - IndexEntryBytes*len(good.Index)
	putIndex := func(b []byte, g int, e IndexEntry) {
		binary.LittleEndian.PutUint32(b[idxOff+IndexEntryBytes*g:], e.Pack())
	}
	cases := map[string][]byte{
		"empty":          nil,
		"short header":   blob[:20],
		"short body":     blob[:len(blob)-3],
		"trailing bytes": append(append([]byte(nil), blob...), 1, 2, 3),
		"bad magic":      mutate(func(b []byte) { b[0] ^= 0xFF }),
		// Every codeword tag becomes a dictionary escape: the raw
		// halfwords outrun the block.
		"region all ones": mutate(func(b []byte) {
			for i := regionOff; i < len(b); i++ {
				b[i] = 0xFF
			}
		}),
		// Block 0 of group 0 shrinks to one byte: its codewords are cut.
		"block cut short": mutate(func(b []byte) {
			e := good.Index[0]
			e.Block0Len = 1
			putIndex(b, 0, e)
		}),
		// Block 0 claims to run past the end of the region.
		"block past region": mutate(func(b []byte) {
			e := good.Index[len(good.Index)-1]
			e.Block0Len = maxBlock0Len
			e.Block0Start = uint32(len(good.Region)) - 2
			putIndex(b, len(good.Index)-1, e)
		}),
		// A raw block whose 64 native bytes do not fit.
		"raw past region": mutate(func(b []byte) {
			e := good.Index[len(good.Index)-1]
			e.Raw1 = true
			putIndex(b, len(good.Index)-1, e)
		}),
		// The low dictionary is emptied (its slot count is zeroed and the
		// entry bytes drop out): in-dictionary codewords now miss.
		"dictionary miss": func() []byte {
			lowOff := 28 + 2*good.High.Len()
			b := append([]byte(nil), blob[:lowOff]...)
			b = append(b, blob[lowOff+2*good.Low.Len():]...)
			binary.LittleEndian.PutUint32(b[16:], 0)
			return b
		}(),
		// Duplicate dictionary entries are rejected before any rescan.
		"duplicate dict entry": mutate(func(b []byte) {
			copy(b[30:32], b[28:30])
		}),
	}
	for name, b := range cases {
		if _, err := UnmarshalCompressed("bad", b); err == nil {
			t.Errorf("%s: garbage accepted", name)
		}
		checkRescanMatchesReference(t, b)
	}
	// A header whose instruction count outruns the blocks is accepted,
	// as it always was, but decodes to an error instead of a panic.
	big := mutate(func(b []byte) { binary.LittleEndian.PutUint32(b[8:], 1<<30) })
	c := checkRescanMatchesReference(t, big)
	if c == nil {
		t.Fatal("oversized instruction count rejected at unmarshal")
	}
	if _, err := c.Decompress(); err == nil {
		t.Error("instruction count beyond the blocks decoded")
	}
	// Images the rescan must accept, and agree with the reference on.
	for name, text := range map[string][]isa.Word{
		"synth":  synthText(rng, 200),
		"class":  classText(rng, 200),
		"rawish": rawishText(rng, 200),
		"tiny":   {0xDEADBEEF},
	} {
		c, err := CompressWords(name, isa.TextBase, text)
		if err != nil {
			t.Fatal(err)
		}
		if checkRescanMatchesReference(t, c.Marshal()) == nil {
			t.Errorf("%s: valid image rejected", name)
		}
	}
}
