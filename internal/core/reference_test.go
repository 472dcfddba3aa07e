package core

import (
	"fmt"
	"testing"

	"codepack/internal/isa"
)

// The reference walker: a bit-at-a-time tag decoder written straight
// against the encoding tables in encoding.go, and the closest model of
// what the decompression hardware does. It is the differential oracle
// the production table-driven decoder is held to — FuzzDecodeEquivalence,
// FuzzDecodeCorruptRegion, FuzzUnmarshalCompressed, FuzzBitStream and the
// golden corpus all diff against it.

// bitReader consumes an MSB-first bitstream.
type bitReader struct {
	buf []byte
	pos uint // bit position
}

// readBits reads n bits MSB-first. Reading past the end returns zero bits;
// callers detect truncation via remaining.
func (r *bitReader) readBits(n uint) uint32 {
	var v uint32
	for i := uint(0); i < n; i++ {
		v <<= 1
		if r.pos < uint(len(r.buf))*8 {
			if r.buf[r.pos/8]&(0x80>>(r.pos%8)) != 0 {
				v |= 1
			}
		}
		r.pos++
	}
	return v
}

// remaining returns the number of unread bits.
func (r *bitReader) remaining() int { return len(r.buf)*8 - int(r.pos) }

// DecodeBlockReference decompresses block b with the reference walker.
func (c *Compressed) DecodeBlockReference(b int, out *[BlockInstrs]isa.Word) error {
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
		}
		return nil
	}
	end := int(start) + int(c.blocks[b].size)
	if end > len(c.Region) {
		return fmt.Errorf("core: block %d extends past region", b)
	}
	r := bitReader{buf: c.Region[start:end]}
	for i := range out {
		hi, err := decodeHalf(&r, c.High)
		if err != nil {
			return fmt.Errorf("core: block %d instr %d high: %w", b, i, err)
		}
		lo, err := decodeHalf(&r, c.Low)
		if err != nil {
			return fmt.Errorf("core: block %d instr %d low: %w", b, i, err)
		}
		out[i] = uint32(hi)<<16 | uint32(lo)
	}
	return nil
}

func decodeHalf(r *bitReader, d *Dict) (uint16, error) {
	if r.remaining() < 2 {
		return 0, fmt.Errorf("truncated codeword")
	}
	var cl int
	switch r.readBits(2) {
	case 0b00:
		cl = class0
	case 0b01:
		cl = class1
	case 0b10:
		cl = class2
	default:
		if r.readBits(1) == 0 {
			cl = class3
		} else {
			cl = classRaw
		}
	}
	if cl == classRaw {
		if r.remaining() < 16 {
			return 0, fmt.Errorf("truncated raw halfword")
		}
		return uint16(r.readBits(16)), nil
	}
	if r.remaining() < int(classIndexBits[cl]) {
		return 0, fmt.Errorf("truncated index")
	}
	idx := int(r.readBits(classIndexBits[cl]))
	v, err := d.Value(classBase[cl] + idx)
	if err != nil {
		return 0, fmt.Errorf("dictionary miss: %w", err)
	}
	return v, nil
}

// referenceRescan is UnmarshalCompressed's metadata rebuild done with the
// reference walker: it parses b and rescans every encoded block over its
// index-derived extent, returning the per-block metadata the production
// rescan must reproduce. It accepts exactly the images the production
// UnmarshalCompressed must accept.
func referenceRescan(b []byte) ([]blockMeta, error) {
	c, err := parseCompressed("ref", b)
	if err != nil {
		return nil, err
	}
	blocks := make([]blockMeta, len(c.Index)*GroupBlocks)
	for blk := range blocks {
		start, end, raw, err := c.indexExtent(blk)
		if err != nil {
			return nil, err
		}
		m := &blocks[blk]
		m.start, m.raw = start, raw
		if raw {
			m.size = BlockNativeBytes
			for i := range m.cumBits {
				m.cumBits[i] = uint16((i + 1) * 32)
			}
			continue
		}
		r := bitReader{buf: c.Region[start:end]}
		for i := range m.cumBits {
			if _, err := decodeHalf(&r, c.High); err != nil {
				return nil, fmt.Errorf("core: rescan block %d: %w", blk, err)
			}
			if _, err := decodeHalf(&r, c.Low); err != nil {
				return nil, fmt.Errorf("core: rescan block %d: %w", blk, err)
			}
			m.cumBits[i] = uint16(r.pos)
		}
		m.size = uint16((r.pos + 7) / 8)
	}
	return blocks, nil
}

// checkRescanMatchesReference is the differential behind the unmarshal
// tests: production UnmarshalCompressed accepts b exactly when the
// reference rescan does, and for an accepted image every block's extent
// and every InstrReadyBytes equal the reference rescan's.
func checkRescanMatchesReference(t testing.TB, b []byte) *Compressed {
	t.Helper()
	ref, refErr := referenceRescan(b)
	c, err := UnmarshalCompressed("diff", b)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("UnmarshalCompressed err=%v, reference rescan err=%v", err, refErr)
	}
	if err != nil {
		return nil
	}
	if c.NumBlocks() != len(ref) {
		t.Fatalf("%d blocks, reference rescan %d", c.NumBlocks(), len(ref))
	}
	for blk, m := range ref {
		start, size, raw, err := c.BlockExtent(blk)
		if err != nil {
			t.Fatalf("block %d: %v", blk, err)
		}
		if start != m.start || size != uint32(m.size) || raw != m.raw {
			t.Fatalf("block %d extent (%d,%d,%v), reference (%d,%d,%v)",
				blk, start, size, raw, m.start, m.size, m.raw)
		}
		for i, bits := range m.cumBits {
			if got, want := c.InstrReadyBytes(blk, i), int(bits+7)/8; got != want {
				t.Fatalf("block %d instr %d: InstrReadyBytes %d, reference %d", blk, i, got, want)
			}
		}
		if c.blocks[blk] != m {
			t.Fatalf("block %d metadata %+v, reference %+v", blk, c.blocks[blk], m)
		}
	}
	return c
}
