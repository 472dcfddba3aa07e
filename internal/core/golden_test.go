package core

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"codepack/internal/isa"
)

// The golden decoder corpus: small compressed images committed under
// testdata/, each pinned with the SHA-256 of its decoded text. Decoder
// refactors diff against these known-good bytes — a change to either
// decoder that alters a single output word fails here before any fuzz or
// simulation gets involved. Regenerate after an intentional encoding
// change with
//
//	go test ./internal/core -run TestGoldenCorpus -update-golden
//
// (the same convention as the harness golden tables).
var updateGolden = flag.Bool("update-golden", false, "rewrite the golden decoder corpus")

const goldenDigestFile = "decoder.digests"

// goldenPrograms returns the deterministic programs behind the corpus,
// chosen to pin every decoder path: all five tag classes, raw (stored
// uncompressed) blocks mixed with encoded ones, a padded tail block, a
// single-instruction image, and a block whose bitstream ends exactly on
// a byte boundary.
func goldenPrograms() map[string][]isa.Word {
	progs := map[string][]isa.Word{}

	// classes: frequency-engineered stream populating class 0 through
	// class 3 of both dictionaries plus raw escapes.
	rng := rand.New(rand.NewSource(1999))
	progs["classes"] = classText(rng, 640)

	// rawmix: mostly incompressible, so raw blocks sit next to encoded
	// ones and the group index exercises both Raw0/Raw1 combinations.
	progs["rawmix"] = rawishText(rand.New(rand.NewSource(77)), 512)

	// tail: 37 instructions — not a whole group, so the final block is
	// nop-padded and Decompress must truncate to NumInstr.
	progs["tail"] = synthText(rand.New(rand.NewSource(5)), 37)

	// tiny: a single instruction, the smallest legal image.
	progs["tiny"] = []isa.Word{0xDEADBEEF}

	// aligned: every instruction is one frequent high half (class 1
	// after slot 0 goes to the most frequent) and the zero low half —
	// engineered so codeword pairs keep blocks byte-dense, covering the
	// no-padding boundary case.
	aligned := make([]isa.Word, 64)
	for i := range aligned {
		aligned[i] = 0x1000_0000 // high 0x1000 (class 0), low zero (class 0)
	}
	progs["aligned"] = aligned
	return progs
}

func goldenPath(name string) string {
	return filepath.Join("testdata", name+".cpack")
}

func TestGoldenCorpus(t *testing.T) {
	progs := goldenPrograms()
	if *updateGolden {
		var lines []string
		for name, text := range progs {
			c, err := CompressWords(name, isa.TextBase, text)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if err := os.WriteFile(goldenPath(name), c.Marshal(), 0o644); err != nil {
				t.Fatal(err)
			}
			out, err := c.Decompress()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			lines = append(lines, fmt.Sprintf("%s %s", name, digestWords(out)))
		}
		// Deterministic file order regardless of map iteration.
		sortLines(lines)
		content := "# <image> <sha256 of decoded text words, big-endian>\n" +
			strings.Join(lines, "\n") + "\n"
		if err := os.WriteFile(filepath.Join("testdata", goldenDigestFile), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %d golden images + %s", len(progs), goldenDigestFile)
		return
	}

	digests := readGoldenDigests(t)
	for name, text := range progs {
		blob, err := os.ReadFile(goldenPath(name))
		if err != nil {
			t.Fatalf("missing golden image %s (regenerate with -update-golden): %v", name, err)
		}
		c, err := UnmarshalCompressed(name, blob)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}

		// Both decoders must reproduce the pinned bytes.
		fast, err := c.Decompress()
		if err != nil {
			t.Fatalf("%s fast: %v", name, err)
		}
		ref := decompressReference(t, c)
		if len(fast) != len(ref) {
			t.Fatalf("%s: fast %d words, reference %d", name, len(fast), len(ref))
		}
		for i := range fast {
			if fast[i] != ref[i] {
				t.Fatalf("%s word %d: fast %#x, reference %#x", name, i, fast[i], ref[i])
			}
		}
		want, ok := digests[name]
		if !ok {
			t.Fatalf("%s missing from %s (regenerate with -update-golden)", name, goldenDigestFile)
		}
		if got := digestWords(fast); got != want {
			t.Fatalf("%s decode drifted:\n  got:  %s\n  want: %s\n(rerun with -update-golden if intentional)",
				name, got, want)
		}
		// The committed image must still decode to the generator's
		// program: the corpus pins bytes, not just self-consistency.
		if len(fast) != len(text) {
			t.Fatalf("%s: decoded %d words, generator has %d", name, len(fast), len(text))
		}
		for i := range fast {
			if fast[i] != text[i] {
				t.Fatalf("%s word %d: decoded %#x, generator %#x", name, i, fast[i], text[i])
			}
		}
	}
	// Every digest line must correspond to a generator, so stale corpus
	// entries are caught.
	for name := range digests {
		if _, ok := progs[name]; !ok {
			t.Fatalf("stale golden entry %q (regenerate with -update-golden)", name)
		}
	}
}

// TestGoldenCorpusCoversTagClasses guards the corpus's reason to exist:
// between them, the committed images must exercise every tag class and
// both block storage forms.
func TestGoldenCorpusCoversTagClasses(t *testing.T) {
	var classes [numClasses]int
	rawBlocks, encBlocks := 0, 0
	for name := range goldenPrograms() {
		// The rescan rebuilds the composition counters, so they are read
		// off the committed images themselves.
		blob, err := os.ReadFile(goldenPath(name))
		if err != nil {
			t.Fatal(err)
		}
		c, err := UnmarshalCompressed(name, blob)
		if err != nil {
			t.Fatal(err)
		}
		st := c.Stats()
		for cl, n := range st.ClassCounts {
			classes[cl] += n
		}
		if st.RawHalfwords > 0 {
			classes[classRaw] += st.RawHalfwords
		}
		for b := 0; b < c.NumBlocks(); b++ {
			_, _, raw, err := c.BlockExtent(b)
			if err != nil {
				t.Fatal(err)
			}
			if raw {
				rawBlocks++
			} else {
				encBlocks++
			}
		}
	}
	for cl := class0; cl <= classRaw; cl++ {
		if classes[cl] == 0 {
			t.Errorf("corpus never uses tag class %d", cl)
		}
	}
	if rawBlocks == 0 || encBlocks == 0 {
		t.Errorf("corpus blocks: %d raw / %d encoded, want both nonzero", rawBlocks, encBlocks)
	}
}

func digestWords(words []isa.Word) string {
	h := sha256.New()
	var b [4]byte
	for _, w := range words {
		b[0], b[1], b[2], b[3] = byte(w>>24), byte(w>>16), byte(w>>8), byte(w)
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func readGoldenDigests(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", goldenDigestFile))
	if err != nil {
		t.Fatalf("missing %s (regenerate with -update-golden): %v", goldenDigestFile, err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("bad digest line %q", line)
		}
		out[fields[0]] = fields[1]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func sortLines(lines []string) {
	for i := 1; i < len(lines); i++ {
		for j := i; j > 0 && lines[j] < lines[j-1]; j-- {
			lines[j], lines[j-1] = lines[j-1], lines[j]
		}
	}
}
