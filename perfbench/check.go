package main

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"slices"

	"codepack"
	"codepack/internal/server"
)

// checkResponse proves one kept response is the right answer for the
// program its request named:
//   - compress: the digest is codepack.ImageDigest, and the .cpk
//     unmarshals and decodes to the sent text word for word;
//   - verify: the server reports a match under the right digest;
//   - decompress: the returned image's text is the known text;
//   - simulate: instructions and cycles equal a local codepack.Simulate.
func checkResponse(s *sample) error {
	p := s.req.prog
	fail := func(format string, args ...any) error {
		return fmt.Errorf("%s of a %d-instruction program: %s", s.op, len(p.im.Text), fmt.Sprintf(format, args...))
	}
	switch s.op {
	case "compress":
		var r server.CompressResponse
		if err := json.Unmarshal(s.body, &r); err != nil {
			return fail("%v", err)
		}
		if r.Digest != p.digest {
			return fail("digest %s, want %s", r.Digest, p.digest)
		}
		cpk, err := base64.StdEncoding.DecodeString(r.CompressedB64)
		if err != nil {
			return fail("%v", err)
		}
		if err := decodesTo(cpk, p.im.Text); err != nil {
			return fail("%v", err)
		}
		if p.comp == nil {
			p.comp = cpk
		}
	case "verify":
		var r server.VerifyResponse
		if err := json.Unmarshal(s.body, &r); err != nil {
			return fail("%v", err)
		}
		if !r.OK || r.Digest != p.digest || r.Instructions != len(p.im.Text) {
			return fail("ok=%v digest=%s instructions=%d", r.OK, r.Digest, r.Instructions)
		}
	case "decompress":
		var r server.DecompressResponse
		if err := json.Unmarshal(s.body, &r); err != nil {
			return fail("%v", err)
		}
		raw, err := base64.StdEncoding.DecodeString(r.ImageB64)
		if err != nil {
			return fail("%v", err)
		}
		im, err := codepack.UnmarshalImage(raw)
		if err != nil {
			return fail("%v", err)
		}
		if !slices.Equal(im.Text, p.im.Text) {
			return fail("decompressed text differs")
		}
	case "simulate":
		var r server.SimulateResponse
		if err := json.Unmarshal(s.body, &r); err != nil {
			return fail("%v", err)
		}
		want, err := codepack.Simulate(p.im, codepack.FourIssue(), codepack.OptimizedModel(), simBudget)
		if err != nil {
			return fail("local simulate: %v", err)
		}
		if r.Instructions != want.Instructions || r.Cycles != want.Cycles {
			return fail("instructions=%d cycles=%d, want %d and %d", r.Instructions, r.Cycles, want.Instructions, want.Cycles)
		}
	default:
		return fail("unknown op")
	}
	return nil
}

// decodesTo unmarshals a .cpk payload, decodes it and compares the text.
func decodesTo(cpk []byte, text []uint32) error {
	c, err := codepack.UnmarshalCompressed("check", cpk)
	if err != nil {
		return err
	}
	got, err := c.AppendDecompress(nil)
	if err != nil {
		return err
	}
	if !slices.Equal(got, text) {
		return fmt.Errorf("decoded text differs from the sent program")
	}
	return nil
}
