// Package core implements the CodePack code-compression algorithm evaluated
// by the paper: two-dictionary variable-length encoding of 16-bit
// instruction halves, 16-instruction compression blocks grouped in pairs,
// and an index table mapping native miss addresses into the compressed
// address space.
package core

// bitWriter emits an MSB-first bitstream.
type bitWriter struct {
	buf  []byte
	nbit uint // bits written so far
}

// writeBits appends the low n bits of v, most significant first.
func (w *bitWriter) writeBits(v uint32, n uint) {
	for i := int(n) - 1; i >= 0; i-- {
		if w.nbit%8 == 0 {
			w.buf = append(w.buf, 0)
		}
		if v>>uint(i)&1 != 0 {
			w.buf[w.nbit/8] |= 0x80 >> (w.nbit % 8)
		}
		w.nbit++
	}
}

// align pads with zero bits to the next byte boundary and returns the number
// of pad bits added.
func (w *bitWriter) align() uint {
	pad := (8 - w.nbit%8) % 8
	w.nbit += pad
	return pad
}

// bytes returns the byte-aligned buffer.
func (w *bitWriter) bytes() []byte { return w.buf }
