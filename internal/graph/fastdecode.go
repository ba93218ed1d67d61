// Vectorized payload decoding for the compressed segment store: the
// word-at-a-time counterparts of DecodeSegment and the bitmap bit loop.
//
// DecodeSegment (compressed.go) walks the delta-varint payload one
// byte-branch at a time: every gap pays a binary.Uvarint call with its
// per-byte continuation-bit test. On real adjacency lists almost every gap
// is small — vertex ids are dense and lists are sorted — so almost every
// varint is a single byte with its top bit clear. DecodeSegmentFast
// exploits that: it loads eight payload bytes at once, tests all eight
// continuation bits with a single OR, and when the whole word is
// single-byte gaps reconstructs the eight values with a branch-free prefix
// sum under one hoisted bounds check. Multi-byte gaps and segment tails
// fall back to the scalar decoder, so the output — including every
// validation error on corrupt input — is byte-equivalent to DecodeSegment
// (FuzzDecodeSegmentFast holds the two to arbitrary payloads).

package graph

import "encoding/binary"

// wideWidth is the number of gaps one unrolled decode step consumes: eight
// single-byte varints = one 64-bit word of payload.
const wideWidth = 8

// DecodeSegmentFast appends the segment's values to dst exactly like
// DecodeSegment — same values, same validation, same errors on corrupt
// payloads — decoding runs of single-byte varint gaps eight at a time. The
// returned wideBlocks counts the 8-wide word steps the unrolled path
// executed (the decode's word-op metric; zero when the payload never had
// eight consecutive single-byte gaps). Bitmap segments take the scalar
// path unchanged.
//
//pdtl:hotpath
func DecodeSegmentFast(s Segment, dst []Vertex) (out []Vertex, wideBlocks int, err error) {
	if s.Kind != segKindVarint {
		out, err = DecodeSegment(s, dst)
		return out, 0, err
	}
	v := uint64(s.First)
	dst = append(dst, s.First)
	p := s.Payload
	i := 1
	last := uint64(s.Last)
	for i+wideWidth <= s.Count && len(p) >= wideWidth {
		b := p[:wideWidth:wideWidth] // one hoisted bounds check for the block
		if b[0]|b[1]|b[2]|b[3]|b[4]|b[5]|b[6]|b[7] >= 0x80 {
			// A continuation bit somewhere in the word: consume one varint
			// scalar-wise (it may be multi-byte) and retry the window — an
			// isolated large gap does not end the wide run.
			gap, n := binary.Uvarint(p)
			if n <= 0 {
				return dst, wideBlocks, errPayloadVarint
			}
			p = p[n:]
			v += gap + 1
			if v > last {
				return dst, wideBlocks, errValueRange
			}
			dst = append(dst, Vertex(v))
			i++
			continue
		}
		// Eight single-byte gaps: branch-free prefix-sum reconstruction.
		// Each stored byte is gap−1, so each step adds b[k]+1.
		v0 := v + uint64(b[0]) + 1
		v1 := v0 + uint64(b[1]) + 1
		v2 := v1 + uint64(b[2]) + 1
		v3 := v2 + uint64(b[3]) + 1
		v4 := v3 + uint64(b[4]) + 1
		v5 := v4 + uint64(b[5]) + 1
		v6 := v5 + uint64(b[6]) + 1
		v7 := v6 + uint64(b[7]) + 1
		if v7 > last {
			// Some value in this block exceeds the declared last. Nothing
			// was appended yet; the scalar tail below re-decodes the block
			// and fails at exactly the element DecodeSegment would.
			break
		}
		dst = append(dst,
			Vertex(v0), Vertex(v1), Vertex(v2), Vertex(v3),
			Vertex(v4), Vertex(v5), Vertex(v6), Vertex(v7))
		v = v7
		p = p[wideWidth:]
		i += wideWidth
		wideBlocks++
	}
	// Scalar tail: the final < 8 gaps, payloads shorter than a word, and the
	// error re-derivation of an out-of-range wide block. Identical to
	// DecodeSegment's loop, so corrupt input produces the identical error.
	for ; i < s.Count; i++ {
		gap, n := binary.Uvarint(p)
		if n <= 0 {
			return dst, wideBlocks, errPayloadVarint
		}
		p = p[n:]
		v += gap + 1
		if v > last {
			return dst, wideBlocks, errValueRange
		}
		dst = append(dst, Vertex(v))
	}
	if len(p) != 0 {
		return dst, wideBlocks, errTrailingBytes
	}
	if v != last {
		return dst, wideBlocks, errEndMismatch
	}
	return dst, wideBlocks, nil
}
