package core

import (
	"encoding/binary"
	"fmt"

	"codepack/internal/isa"
)

// On-disk format of a compressed program (the cpack utility's output):
// magic, text base, native instruction count, the two dictionaries, the
// packed index table, and the compressed region.
const compMagic = 0x43504B31 // "CPK1"

// Marshal serializes the compressed program.
func (c *Compressed) Marshal() []byte {
	var b []byte
	put := func(v uint32) { b = binary.LittleEndian.AppendUint32(b, v) }
	put(compMagic)
	put(c.TextBase)
	put(uint32(c.NumInstr))
	put(uint32(c.High.Len()))
	put(uint32(c.Low.Len()))
	put(uint32(len(c.Index)))
	put(uint32(len(c.Region)))
	for _, v := range c.High.Entries() {
		b = binary.LittleEndian.AppendUint16(b, v)
	}
	for _, v := range c.Low.Entries() {
		b = binary.LittleEndian.AppendUint16(b, v)
	}
	for _, e := range c.Index {
		put(e.Pack())
	}
	return append(b, c.Region...)
}

// UnmarshalCompressed parses a serialized compressed program and
// reconstructs the per-block metadata (byte-arrival tables) and the
// composition statistics by rescanning the codeword stream, so the result
// is usable both for decompression and for timing simulation.
func UnmarshalCompressed(name string, b []byte) (*Compressed, error) {
	c, err := parseCompressed(name, b)
	if err != nil {
		return nil, err
	}
	if err := c.rescan(); err != nil {
		return nil, err
	}
	return c, nil
}

// parseCompressed decodes the header, dictionaries, index table and
// region of a serialized image, leaving the block metadata unbuilt.
func parseCompressed(name string, b []byte) (*Compressed, error) {
	if len(b) < 28 || binary.LittleEndian.Uint32(b) != compMagic {
		return nil, fmt.Errorf("core: bad compressed image header")
	}
	get := func(i int) uint32 { return binary.LittleEndian.Uint32(b[i*4:]) }
	c := &Compressed{
		Name:     name,
		TextBase: get(1),
		NumInstr: int(get(2)),
	}
	nHigh, nLow, nIdx, nRegion := int(get(3)), int(get(4)), int(get(5)), int(get(6))
	need := 28 + 2*(nHigh+nLow) + 4*nIdx + nRegion
	if len(b) != need {
		return nil, fmt.Errorf("core: compressed image is %d bytes, header implies %d",
			len(b), need)
	}
	off := 28
	readDict := func(n int) (*Dict, error) {
		entries := make([]uint16, n)
		for i := range entries {
			entries[i] = binary.LittleEndian.Uint16(b[off:])
			off += 2
		}
		return NewDict(entries)
	}
	var err error
	if c.High, err = readDict(nHigh); err != nil {
		return nil, fmt.Errorf("core: high dictionary: %w", err)
	}
	if c.Low, err = readDict(nLow); err != nil {
		return nil, fmt.Errorf("core: low dictionary: %w", err)
	}
	c.Index = make([]IndexEntry, nIdx)
	for i := range c.Index {
		c.Index[i] = UnpackIndexEntry(binary.LittleEndian.Uint32(b[off:]))
		off += 4
	}
	c.Region = append([]byte(nil), b[off:]...)
	return c, nil
}

// indexExtent bounds block blk by the index table alone: it starts where
// LookupBlock says and an encoded block ends where the next block starts
// (or at the end of the region). A raw block is BlockNativeBytes long.
func (c *Compressed) indexExtent(blk int) (start uint32, end int, raw bool, err error) {
	if start, raw, err = c.LookupBlock(blk); err != nil {
		return 0, 0, false, err
	}
	if raw {
		if end = int(start) + BlockNativeBytes; end > len(c.Region) {
			return 0, 0, false, fmt.Errorf("core: raw block %d extends past region", blk)
		}
		return start, end, true, nil
	}
	end = len(c.Region)
	if e := c.Index[blk/GroupBlocks]; blk%GroupBlocks == 0 {
		end = int(e.Block0Start + e.Block0Len)
	} else if blk/GroupBlocks+1 < len(c.Index) {
		end = int(c.Index[blk/GroupBlocks+1].Block0Start)
	}
	if end > len(c.Region) || int(start) > end {
		return 0, 0, false, fmt.Errorf("core: block %d extent [%d,%d) invalid", blk, start, end)
	}
	return start, end, false, nil
}

// rescan rebuilds every block's start, size and cumBits, and the
// composition statistics, by decoding each encoded block over its
// index-derived extent with the production decoder. A codeword's length
// names its class (2, 5, 8, 11 and 19 bits are classes 0-3 and raw), so
// the consumed-bit positions carry the whole composition. The dispatch
// tables built here are the cached ones later decodes use.
func (c *Compressed) rescan() error {
	c.blocks = make([]blockMeta, len(c.Index)*GroupBlocks)
	c.stats = Stats{}
	var (
		out  [BlockInstrs]isa.Word
		ends [2 * BlockInstrs]uint16
		lens [RawCodewordBits + 1]int // codewords seen, by length in bits
	)
	for blk := range c.blocks {
		start, end, raw, err := c.indexExtent(blk)
		if err != nil {
			return err
		}
		m := &c.blocks[blk]
		m.start, m.raw = start, raw
		if raw {
			m.size = BlockNativeBytes
			for i := range m.cumBits {
				m.cumBits[i] = uint16((i + 1) * 32)
			}
			c.stats.RawBlockInstrs += BlockInstrs
			c.stats.RawBits += BlockInstrs * 32
			continue
		}
		if err := c.fastTables().decode(blk, c.Region[start:end], &out, &ends); err != nil {
			return err
		}
		prev := uint16(0)
		for h, pos := range ends {
			lens[pos-prev]++
			prev = pos
			if h%2 == 1 {
				m.cumBits[h/2] = pos
			}
		}
		m.size = (prev + 7) / 8
		c.stats.PadBits += int(m.size)*8 - int(prev)
	}
	for cl := class0; cl <= classRaw; cl++ {
		c.stats.addCodewords(cl, lens[codewordBits(cl)])
	}
	c.finishStats(len(c.blocks) * BlockInstrs)
	return nil
}
