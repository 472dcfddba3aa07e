package core

// Table-driven block decoder: the one decoder behind every decode entry
// point (DecodeBlock, Decompress, AppendDecompress, DecodeAt) and behind
// the rescan that rebuilds an unmarshaled image's block metadata.
//
// The CodePack geometry makes a one-byte dispatch table sufficient for the
// dominant codewords: every class-0/1/2 codeword (2, 5 and 8 bits) fits
// entirely within the leading byte of the remaining bitstream, so a
// 256-entry table indexed by that byte resolves the tag class, the
// codeword length AND the decoded halfword value in a single lookup — no
// per-bit loop, no tag branch, no dictionary map probe. Only the two
// 3-bit-tag escapes fall through to a short tail: class 3 (tag 110) pulls
// its 8 index bits from a flattened slot array, and raw (tag 111) takes
// its 16 literal bits straight from the peeked window.
//
// The tables are dictionary-dependent (the same leading byte decodes to
// different halfwords under different dictionaries), so each Compressed
// lazily builds one table per dictionary on first decode and caches them
// behind an atomic pointer; concurrent first decodes may both build, which
// is harmless because the build is deterministic.
//
// The bit-at-a-time reference walker lives in the package tests as the
// correctness oracle: FuzzDecodeEquivalence, FuzzUnmarshalCompressed and
// the golden corpus hold this decoder word-for-word and bit-for-bit
// identical to it. See DESIGN.md "One production decoder".

import (
	"fmt"

	"codepack/internal/isa"
)

// fastEntry kinds. fastVal is the branch-predictable common case: the
// leading byte alone determined the decoded halfword.
const (
	fastVal  = iota // class 0/1/2: value resolved, e.bits consumed
	fastC3          // class 3: 8 index bits straddle the leading byte
	fastRaw         // raw escape: 16 literal bits follow the 3-bit tag
	fastMiss        // class 0/1/2 slot beyond the dictionary population
)

// fastEntry is one dispatch-table slot: what the leading byte of the
// remaining bitstream says about the next codeword.
type fastEntry struct {
	val  uint16 // decoded halfword (fastVal only)
	bits uint8  // total codeword length in bits
	kind uint8
}

// fastTab is the decode table for one dictionary: the 256-entry leading-
// byte dispatch table plus the dictionary flattened into slot order for
// the class-3 tail (a slice index instead of a bounds-checked method
// call and map-backed Dict probe).
type fastTab struct {
	entry [256]fastEntry
	vals  []uint16
}

// fastTabs pairs the high- and low-halfword tables; Compressed caches one
// behind an atomic pointer.
type fastTabs struct {
	high, low fastTab
}

// buildFastTab precomputes the dispatch table for dictionary d.
func buildFastTab(t *fastTab, d *Dict) {
	t.vals = d.Entries()
	for b := 0; b < 256; b++ {
		e := &t.entry[b]
		var cl, idx int
		switch {
		case b>>6 == 0b00:
			cl, idx = class0, 0
		case b>>6 == 0b01:
			cl, idx = class1, b>>3&7
		case b>>6 == 0b10:
			cl, idx = class2, b&0x3F
		case b>>5 == 0b110:
			e.kind, e.bits = fastC3, uint8(codewordBits(class3))
			continue
		default:
			e.kind, e.bits = fastRaw, RawCodewordBits
			continue
		}
		e.bits = uint8(codewordBits(cl))
		if slot := classBase[cl] + idx; slot < len(t.vals) {
			e.kind, e.val = fastVal, t.vals[slot]
		} else {
			e.kind = fastMiss
		}
	}
}

// fastTables returns the cached dispatch tables, building them on first
// use. A racing duplicate build produces an identical table, so a plain
// compare-and-swap (no lock, no once) is enough.
func (c *Compressed) fastTables() *fastTabs {
	if t := c.fast.Load(); t != nil {
		return t
	}
	t := new(fastTabs)
	buildFastTab(&t.high, c.High)
	buildFastTab(&t.low, c.Low)
	c.fast.CompareAndSwap(nil, t)
	return c.fast.Load()
}

// DecodeBlock decompresses block b into out.
func (c *Compressed) DecodeBlock(b int, out *[BlockInstrs]isa.Word) error {
	return c.decodeBlock(b, out, nil)
}

// DecodeBlockPositions is DecodeBlock, additionally reporting the
// cumulative bit position consumed after each instruction's codeword
// pair. Positions must agree with the encoder-recorded cumBits behind
// InstrReadyBytes — the byte-arrival contract the decomp timing model
// builds its fetch/decode overlap on; the property tests hold the
// decoder to it.
func (c *Compressed) DecodeBlockPositions(b int, out *[BlockInstrs]isa.Word, pos *[BlockInstrs]uint16) error {
	var ends [2 * BlockInstrs]uint16
	if err := c.decodeBlock(b, out, &ends); err != nil {
		return err
	}
	for i := range pos {
		pos[i] = ends[2*i+1]
	}
	return nil
}

// decodeBlock resolves block b through the index table and decodes it;
// ends, if non-nil, receives the bit position after every codeword.
func (c *Compressed) decodeBlock(b int, out *[BlockInstrs]isa.Word, ends *[2 * BlockInstrs]uint16) error {
	start, raw, err := c.LookupBlock(b)
	if err != nil {
		return err
	}
	if raw {
		if int(start)+BlockNativeBytes > len(c.Region) {
			return fmt.Errorf("core: raw block %d extends past region", b)
		}
		for i := range out {
			o := int(start) + i*4
			out[i] = uint32(c.Region[o])<<24 | uint32(c.Region[o+1])<<16 |
				uint32(c.Region[o+2])<<8 | uint32(c.Region[o+3])
			if ends != nil {
				ends[2*i], ends[2*i+1] = uint16(i*32+16), uint16((i+1)*32)
			}
		}
		return nil
	}
	end := int(start) + int(c.blocks[b].size)
	if end > len(c.Region) {
		return fmt.Errorf("core: block %d extends past region", b)
	}
	return c.fastTables().decode(b, c.Region[start:end], out, ends)
}

// decode is the block-decode loop: one pass over buf, the codeword
// stream of block b, with a 64-bit accumulator, dispatching each
// halfword through the leading-byte table. If ends is non-nil it
// receives the bit position after each codeword (high, low alternating).
// It allocates nothing.
func (tabs *fastTabs) decode(b int, buf []byte, out *[BlockInstrs]isa.Word, ends *[2 * BlockInstrs]uint16) error {
	var (
		acc      uint64 // next stream bits in the low accBits bits, MSB first
		accBits  uint
		p        int // next byte of buf to load
		consumed uint
		total    = uint(len(buf)) * 8
	)
	for i := 0; i < BlockInstrs; i++ {
		var word uint32
		tab := &tabs.high
		for half := 0; half < 2; half++ {
			for accBits <= 56 && p < len(buf) {
				acc = acc<<8 | uint64(buf[p])
				p++
				accBits += 8
			}
			left := total - consumed
			if left < 2 {
				return fastDecodeErr(b, i, half, "truncated codeword")
			}
			// Peek the longest possible codeword (19 bits), zero-padded
			// past the end of the block.
			var peek uint32
			if accBits >= RawCodewordBits {
				peek = uint32(acc>>(accBits-RawCodewordBits)) & (1<<RawCodewordBits - 1)
			} else {
				peek = uint32(acc<<(RawCodewordBits-accBits)) & (1<<RawCodewordBits - 1)
			}
			e := &tab.entry[peek>>(RawCodewordBits-8)]
			n := uint(e.bits)
			if left < n {
				return fastDecodeErr(b, i, half, "truncated codeword")
			}
			v := e.val
			switch e.kind {
			case fastC3:
				slot := classBase[class3] + int(peek>>8&0xFF)
				if slot >= len(tab.vals) {
					return fastDecodeErr(b, i, half, "dictionary miss")
				}
				v = tab.vals[slot]
			case fastRaw:
				v = uint16(peek)
			case fastMiss:
				return fastDecodeErr(b, i, half, "dictionary miss")
			}
			accBits -= n
			consumed += n
			if ends != nil {
				ends[2*i+half] = uint16(consumed)
			}
			word = word<<16 | uint32(v)
			tab = &tabs.low
		}
		out[i] = word
	}
	return nil
}

// fastDecodeErr formats a decode failure with the block, instruction and
// halfword it hit.
func fastDecodeErr(b, i, half int, msg string) error {
	side := "high"
	if half == 1 {
		side = "low"
	}
	return fmt.Errorf("core: block %d instr %d %s: %s", b, i, side, msg)
}

// AppendDecompress decodes the full text section (without padding) into
// dst, growing it at most once, and returns the extended slice. With a
// pre-sized dst it performs zero allocations, which is what the serve
// path's buffer pool relies on for steady-state decode.
func (c *Compressed) AppendDecompress(dst []isa.Word) ([]isa.Word, error) {
	if err := c.checkNumInstr(); err != nil {
		return nil, err
	}
	n := len(dst)
	need := n + len(c.blocks)*BlockInstrs
	if cap(dst) < need {
		grown := make([]isa.Word, n, need)
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:need]
	for b := range c.blocks {
		if err := c.DecodeBlock(b, (*[BlockInstrs]isa.Word)(dst[n+b*BlockInstrs:])); err != nil {
			return nil, err
		}
	}
	return dst[:n+c.NumInstr], nil
}

// checkNumInstr rejects an instruction count the blocks cannot hold: an
// unmarshaled header states NumInstr independently of the index table.
func (c *Compressed) checkNumInstr() error {
	if c.NumInstr > len(c.blocks)*BlockInstrs {
		return fmt.Errorf("core: %d instructions, but %d blocks hold %d",
			c.NumInstr, len(c.blocks), len(c.blocks)*BlockInstrs)
	}
	return nil
}
