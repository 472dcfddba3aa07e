package core

import (
	"fmt"
	"sync/atomic"

	"codepack/internal/isa"
	"codepack/internal/program"
)

// Compressed is a CodePack-compressed program: the compressed instruction
// region, the per-group index table, the two dictionaries, and per-block
// metadata used by the decompression timing model.
type Compressed struct {
	Name     string
	TextBase uint32 // native load address of instruction 0
	NumInstr int    // native instructions, before padding to a full group

	High *Dict // dictionary for high halfwords
	Low  *Dict // dictionary for low halfwords

	Index  []IndexEntry // one entry per compression group
	Region []byte       // concatenated compression blocks

	blocks []blockMeta
	stats  Stats

	// fast caches the table-driven decoder's dispatch tables (built from
	// High/Low on first decode; see fastdecode.go).
	fast atomic.Pointer[fastTabs]
}

// blockMeta records where a block lives and how its instructions are laid
// out within it. cumBits[i] is the bit length of the first i+1 codeword
// pairs; the timing model uses it to determine when each instruction's
// compressed bytes have arrived from memory.
type blockMeta struct {
	start   uint32 // byte offset in Region
	size    uint16 // byte length
	raw     bool
	cumBits [BlockInstrs]uint16
}

// Compress encodes the text section of im with CodePack.
func Compress(im *program.Image) (*Compressed, error) {
	return CompressWords(im.Name, im.TextBase, im.Text)
}

// Options tunes compression; the zero value selects CodePack's defaults
// (low-halfword zero pinned to the 2-bit class, break-even singleton
// exclusion).
type Options struct {
	High BuildDictOptions
	Low  BuildDictOptions
	// FixedHigh/FixedLow reuse existing dictionaries instead of building
	// program-specific ones. CodePack fixes dictionaries at program
	// load time precisely so they can be adapted per program; supplying
	// another program's tables quantifies what that adaptation buys.
	FixedHigh *Dict
	FixedLow  *Dict
}

func defaultOptions() Options {
	return Options{Low: BuildDictOptions{ForceZeroSlot0: true}}
}

// DefaultOptions returns CodePack's default compression options
// (low-halfword zero pinned to slot 0, break-even singleton exclusion).
func DefaultOptions() Options { return defaultOptions() }

// PhaseHook observes a compression's internal phases for tracing: it is
// called at the start of each phase — "dict-build", "encode",
// "index-build" — and the returned func marks the phase's end. A nil
// hook is allowed and costs nothing.
type PhaseHook func(phase string) (end func())

// CompressWords encodes a raw instruction stream with default options. The
// stream is padded with nops to a whole number of compression groups.
func CompressWords(name string, textBase uint32, text []isa.Word) (*Compressed, error) {
	return CompressWordsWith(name, textBase, text, defaultOptions())
}

// CompressWordsWith encodes a raw instruction stream with explicit
// dictionary-construction options (used by the ablation benchmarks).
func CompressWordsWith(name string, textBase uint32, text []isa.Word, opts Options) (*Compressed, error) {
	return CompressWordsHooked(name, textBase, text, opts, nil)
}

// CompressWordsHooked is CompressWordsWith with a PhaseHook reporting
// where the compression's time goes (the span-tracing path in cpackd).
func CompressWordsHooked(name string, textBase uint32, text []isa.Word, opts Options, hook PhaseHook) (*Compressed, error) {
	if len(text) == 0 {
		return nil, fmt.Errorf("core: empty text section")
	}
	padded := text
	if len(text)%GroupInstrs != 0 {
		padded = make([]isa.Word, (len(text)+GroupInstrs-1)/GroupInstrs*GroupInstrs)
		copy(padded, text)
	}

	c := &Compressed{
		Name:     name,
		TextBase: textBase,
		NumInstr: len(text),
		High:     opts.FixedHigh,
		Low:      opts.FixedLow,
	}
	phase := func(p string) func() {
		if hook == nil {
			return func() {}
		}
		return hook(p)
	}
	if c.High == nil || c.Low == nil {
		end := phase("dict-build")
		highCounts, lowCounts := CountHalfwords(padded)
		if c.High == nil {
			c.High = BuildDict(highCounts, opts.High)
		}
		if c.Low == nil {
			c.Low = BuildDict(lowCounts, opts.Low)
		}
		end()
	}

	nBlocks := len(padded) / BlockInstrs
	c.blocks = make([]blockMeta, nBlocks)
	c.Index = make([]IndexEntry, nBlocks/GroupBlocks)
	end := phase("encode")
	for b := 0; b < nBlocks; b++ {
		if err := c.encodeBlock(b, padded[b*BlockInstrs:(b+1)*BlockInstrs]); err != nil {
			return nil, err
		}
	}
	end()
	end = phase("index-build")
	defer end()
	for g := range c.Index {
		b0, b1 := &c.blocks[2*g], &c.blocks[2*g+1]
		e := IndexEntry{
			Block0Start: b0.start,
			Block0Len:   uint32(b0.size),
			Raw0:        b0.raw,
			Raw1:        b1.raw,
		}
		if e.Block0Start > maxBlock0Start {
			return nil, fmt.Errorf("core: compressed region exceeds %d bytes", maxBlock0Start)
		}
		if e.Block0Len > maxBlock0Len {
			return nil, fmt.Errorf("core: block 0 of group %d is %d bytes, format limit %d",
				g, e.Block0Len, maxBlock0Len)
		}
		c.Index[g] = e
	}
	c.finishStats(len(padded))
	return c, nil
}

// encodeHalf appends the codeword for halfword v against dictionary d,
// returning the class used.
func encodeHalf(w *bitWriter, d *Dict, v uint16) int {
	s := d.Lookup(v)
	if s < 0 {
		w.writeBits(classTag[classRaw], classTagBits[classRaw])
		w.writeBits(uint32(v), 16)
		return classRaw
	}
	cl, idx := classOfSlot(s)
	w.writeBits(classTag[cl], classTagBits[cl])
	w.writeBits(uint32(idx), classIndexBits[cl])
	return cl
}

func (c *Compressed) encodeBlock(b int, words []isa.Word) error {
	var w bitWriter
	meta := &c.blocks[b]
	meta.start = uint32(len(c.Region))

	var classes [BlockInstrs][2]int
	for i, word := range words {
		classes[i][0] = encodeHalf(&w, c.High, uint16(word>>16))
		classes[i][1] = encodeHalf(&w, c.Low, uint16(word))
		meta.cumBits[i] = uint16(w.nbit)
	}
	pad := w.align()

	if len(w.bytes()) >= BlockNativeBytes {
		// Compression would not shrink the block: store it raw.
		meta.raw = true
		meta.size = BlockNativeBytes
		for i := range words {
			meta.cumBits[i] = uint16((i + 1) * 32)
			c.stats.RawBlockInstrs++
		}
		for _, word := range words {
			c.Region = append(c.Region,
				byte(word>>24), byte(word>>16), byte(word>>8), byte(word))
		}
		c.stats.RawBits += BlockInstrs * 32
		return nil
	}

	meta.size = uint16(len(w.bytes()))
	c.Region = append(c.Region, w.bytes()...)
	c.stats.PadBits += int(pad)
	for i := range words {
		for _, cl := range classes[i] {
			c.stats.addCodewords(cl, 1)
		}
	}
	return nil
}

// NumBlocks returns the number of compression blocks.
func (c *Compressed) NumBlocks() int { return len(c.blocks) }

// BlockOf maps a native text address to its compression block number.
func (c *Compressed) BlockOf(addr uint32) int {
	return int(addr-c.TextBase) / 4 / BlockInstrs
}

// GroupOf maps a native text address to its compression group number.
func (c *Compressed) GroupOf(addr uint32) int {
	return int(addr-c.TextBase) / 4 / GroupInstrs
}

// BlockExtent returns the byte extent of block b within Region.
func (c *Compressed) BlockExtent(b int) (start, size uint32, raw bool, err error) {
	if b < 0 || b >= len(c.blocks) {
		return 0, 0, false, fmt.Errorf("core: block %d out of range", b)
	}
	m := &c.blocks[b]
	return m.start, uint32(m.size), m.raw, nil
}

// InstrReadyBytes returns, for instruction i of block b, the number of bytes
// from the start of the block that must have arrived before the instruction
// can be decoded. This drives the fetch/decompress overlap in the timing
// model.
func (c *Compressed) InstrReadyBytes(b, i int) int {
	return int(c.blocks[b].cumBits[i]+7) / 8
}

// LookupBlock resolves block b via the index table exactly as the hardware
// would: read the group entry, then apply the block-0 length delta.
func (c *Compressed) LookupBlock(b int) (start uint32, raw bool, err error) {
	g := b / GroupBlocks
	if g < 0 || g >= len(c.Index) {
		return 0, false, fmt.Errorf("core: group %d out of range", g)
	}
	e := c.Index[g]
	if b%GroupBlocks == 0 {
		return e.Block0Start, e.Raw0, nil
	}
	return e.Block0Start + e.Block0Len, e.Raw1, nil
}

// Decompress reconstructs the full native text section (without padding).
func (c *Compressed) Decompress() ([]isa.Word, error) {
	return c.AppendDecompress(make([]isa.Word, 0, len(c.blocks)*BlockInstrs))
}

// DecodeAt decompresses the single instruction at native address addr,
// exactly as the decompression hardware serves a cache miss.
func (c *Compressed) DecodeAt(addr uint32) (isa.Word, error) {
	idx := int(addr-c.TextBase) / 4
	if addr < c.TextBase || idx >= c.NumInstr || addr%4 != 0 {
		return 0, fmt.Errorf("core: address 0x%x outside compressed text", addr)
	}
	var blk [BlockInstrs]isa.Word
	if err := c.DecodeBlock(idx/BlockInstrs, &blk); err != nil {
		return 0, err
	}
	return blk[idx%BlockInstrs], nil
}
