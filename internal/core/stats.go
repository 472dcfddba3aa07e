package core

import (
	"fmt"
	"strings"
)

// Stats describes the composition of a compressed program, mirroring the
// columns of the paper's Tables 3 and 4.
type Stats struct {
	// Bit-level composition of the compressed region.
	TagBits      int // tags of dictionary-encoded halfwords ("Compressed tags")
	IndexBits    int // dictionary index bits ("Dictionary indices")
	RawTagBits   int // 3-bit tags marking raw halfwords ("Raw tags")
	RawBits      int // escaped halfword payloads and whole raw blocks ("Raw bits")
	PadBits      int // byte-alignment padding of blocks ("Pad")
	ClassCounts  [numClasses]int
	RawHalfwords int
	// RawBlockInstrs counts instructions stored in whole uncompressed blocks.
	RawBlockInstrs int

	// Byte-level sizes.
	IndexTableBytes int
	DictBytes       int
	RegionBytes     int
	OriginalBytes   int
	PaddedInstrs    int
}

// addCodewords counts n encoded halfwords of class cl.
func (s *Stats) addCodewords(cl, n int) {
	if cl == classRaw {
		s.RawTagBits += n * int(classTagBits[classRaw])
		s.RawBits += n * int(classIndexBits[classRaw])
		s.RawHalfwords += n
		return
	}
	s.TagBits += n * int(classTagBits[cl])
	s.IndexBits += n * int(classIndexBits[cl])
	s.ClassCounts[cl] += n
}

func (c *Compressed) finishStats(paddedInstrs int) {
	c.stats.IndexTableBytes = len(c.Index) * IndexEntryBytes
	c.stats.DictBytes = c.High.Bytes() + c.Low.Bytes()
	c.stats.RegionBytes = len(c.Region)
	c.stats.OriginalBytes = c.NumInstr * 4
	c.stats.PaddedInstrs = paddedInstrs
}

// Stats returns the composition statistics gathered during compression.
func (c *Compressed) Stats() Stats { return c.stats }

// CompressedBytes is the total size of the compressed program: region plus
// index table plus dictionaries.
func (s Stats) CompressedBytes() int {
	return s.RegionBytes + s.IndexTableBytes + s.DictBytes
}

// Ratio is the paper's Equation 1: compressed size / original size
// (smaller is better).
func (s Stats) Ratio() float64 {
	if s.OriginalBytes == 0 {
		return 0
	}
	return float64(s.CompressedBytes()) / float64(s.OriginalBytes)
}

// Composition is the per-category share of the total compressed size, as in
// Table 4 of the paper. The shares sum to 1.
type Composition struct {
	IndexTable  float64
	Dictionary  float64
	Tags        float64
	DictIndices float64
	RawTags     float64
	RawBits     float64
	Pad         float64
	TotalBytes  int
}

// Composition computes the Table 4 breakdown.
func (s Stats) Composition() Composition {
	total := float64(s.CompressedBytes()) * 8
	if total == 0 {
		return Composition{}
	}
	return Composition{
		IndexTable:  float64(s.IndexTableBytes*8) / total,
		Dictionary:  float64(s.DictBytes*8) / total,
		Tags:        float64(s.TagBits) / total,
		DictIndices: float64(s.IndexBits) / total,
		RawTags:     float64(s.RawTagBits) / total,
		RawBits:     float64(s.RawBits) / total,
		Pad:         float64(s.PadBits) / total,
		TotalBytes:  s.CompressedBytes(),
	}
}

// String renders the composition like a row of Table 4.
func (comp Composition) String() string {
	var b strings.Builder
	f := func(name string, v float64) {
		fmt.Fprintf(&b, "%s %.1f%%  ", name, v*100)
	}
	f("index", comp.IndexTable)
	f("dict", comp.Dictionary)
	f("tags", comp.Tags)
	f("indices", comp.DictIndices)
	f("rawtags", comp.RawTags)
	f("rawbits", comp.RawBits)
	f("pad", comp.Pad)
	fmt.Fprintf(&b, "total %d bytes", comp.TotalBytes)
	return b.String()
}
