package main

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"slices"
	"strings"

	"codepack"
	"codepack/internal/server"
	corpusgen "codepack/internal/workload"
)

// watermarkID is the program id every base program is generated with.
// corpusgen.CorpusSourceSized writes a program's id as the pair
// `lui $t7, hi` / `ori $t7, $t7, lo`; rewriting those two immediates
// yields a distinct, still valid program of the same size and shape,
// without generating and assembling a new one (assembly costs about
// 2 µs per instruction, which would dominate a run's wall time).
const watermarkID = 0x7A3C5B1D

const (
	markHi = uint32(watermarkID>>16) & 0xffff
	markLo = uint32(watermarkID) & 0xffff
)

// base is one generated and assembled corpus program; its variants share
// everything but the watermark.
type base struct {
	src string
	im  *codepack.Image
	at  int // index of the watermark lui in im.Text
}

func newBase(seed int64, size int) (*base, error) {
	src := corpusgen.CorpusSourceSized(seed, watermarkID, size)
	im, err := codepack.Assemble("perfbench", src)
	if err != nil {
		return nil, fmt.Errorf("assemble corpus program (seed %d, %d instr): %w", seed, size, err)
	}
	for i := 0; i+1 < len(im.Text) && i < 8; i++ {
		if im.Text[i]&0xffff == markHi && im.Text[i+1]&0xffff == markLo {
			return &base{src: src, im: im, at: i}, nil
		}
	}
	return nil, fmt.Errorf("corpus program (seed %d) has no watermark pair", seed)
}

// newBases builds one base per size, on up to two goroutines; the base
// seeds derive from seed and the base's index only.
func newBases(seed int64, sizes []int) ([]*base, error) {
	out := make([]*base, len(sizes))
	errs := make([]error, len(sizes))
	done := make(chan struct{})
	const workers = 2
	for w := 0; w < workers; w++ {
		go func(w int) {
			for i := w; i < len(sizes); i += workers {
				out[i], errs[i] = newBase(mix(seed, int64(i)), sizes[i])
			}
			done <- struct{}{}
		}(w)
	}
	for w := 0; w < workers; w++ {
		<-done
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// mix derives an independent stream seed from (seed, k).
func mix(seed, k int64) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 ^ uint64(k+1)*0xBF58476D1CE4E5B9
	x ^= x >> 31
	x *= 0x94D049BB133111EB
	x ^= x >> 29
	return int64(x & (1<<63 - 1))
}

// program is one variant of a base: a distinct image with its wire forms.
type program struct {
	base    *base
	variant uint32
	im      *codepack.Image
	raw     []byte // im.Marshal()
	digest  string // codepack.ImageDigest(im)
	comp    []byte // .cpk bytes, once a checked compress response supplied them
}

// variant returns base b with the watermark rewritten to v. v must stay
// below 1<<24 so it can never equal the base's own watermark.
func (b *base) variant(v uint32) *program {
	text := slices.Clone(b.im.Text)
	text[b.at] = text[b.at]&^0xffff | v>>16
	text[b.at+1] = text[b.at+1]&^0xffff | v&0xffff
	im := &codepack.Image{
		Name:     b.im.Name,
		Entry:    b.im.Entry,
		TextBase: b.im.TextBase,
		Text:     text,
		DataBase: b.im.DataBase,
		Data:     b.im.Data,
	}
	raw := im.Marshal()
	return &program{base: b, variant: v, im: im, raw: raw, digest: codepack.Digest(raw)}
}

// source returns the assembly source of variant v of b.
func (b *base) source(v uint32) string {
	s := strings.Replace(b.src, fmt.Sprintf("\tlui $t7, %d\n", markHi), fmt.Sprintf("\tlui $t7, %d\n", v>>16), 1)
	return strings.Replace(s, fmt.Sprintf("\tori $t7, $t7, %d\n", markLo), fmt.Sprintf("\tori $t7, $t7, %d\n", v&0xffff), 1)
}

// Request bodies, built with the server's own request types so a field
// rename shows up as a compile error here.

func imageBody(p *program) []byte {
	return mustJSON(server.CompressRequest{ProgramRef: server.ProgramRef{ImageB64: base64.StdEncoding.EncodeToString(p.raw)}})
}

func asmBody(p *program) []byte {
	return mustJSON(server.CompressRequest{ProgramRef: server.ProgramRef{Asm: p.base.source(p.variant)}})
}

func verifyBody(p *program) []byte {
	return mustJSON(server.VerifyRequest{ProgramRef: server.ProgramRef{ImageB64: base64.StdEncoding.EncodeToString(p.raw)}})
}

func decompressBody(p *program) []byte {
	return mustJSON(server.DecompressRequest{CompressedB64: base64.StdEncoding.EncodeToString(p.comp)})
}

func simulateBody(p *program, budget uint64) []byte {
	return mustJSON(server.SimulateRequest{
		ProgramRef: server.ProgramRef{ImageB64: base64.StdEncoding.EncodeToString(p.raw)},
		MaxInstr:   budget,
	})
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}
