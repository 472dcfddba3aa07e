package core

import "codepack/internal/isa"

// DecompressReference is Decompress through the reference walker: the
// oracle side of BenchmarkDecodeThroughput.
func (c *Compressed) DecompressReference() ([]isa.Word, error) {
	if err := c.checkNumInstr(); err != nil {
		return nil, err
	}
	dst := make([]isa.Word, len(c.blocks)*BlockInstrs)
	for b := range c.blocks {
		if err := c.DecodeBlockReference(b, (*[BlockInstrs]isa.Word)(dst[b*BlockInstrs:])); err != nil {
			return nil, err
		}
	}
	return dst[:c.NumInstr], nil
}
