// Compressed adjacency store: the second on-disk (and in-memory) format of
// the graph store, selected by `format: "compressed"` in the metadata and
// auto-detected by Open.
//
// A compressed store replaces the 4-byte-per-entry .adj file with two files:
//
//	<base>.cadj — 4-byte magic "PCA1", then per-vertex encoded lists in
//	              vertex order (the data area; all byte offsets below are
//	              relative to its start, i.e. file offset − 4)
//	<base>.cidx — 4-byte magic "PCI1", uvarint vertex count, then one
//	              uvarint per vertex: the byte length of that vertex's
//	              encoded list in the data area
//
// Each list is split into segments of at most SegmentEntries (256) sorted
// entries. A segment is self-describing up to its entry count, which is
// derived from the degree file (segment k of a degree-d list holds
// min(256, d−256k) entries — segmentation is purely positional, so the
// count never needs to be stored). The wire layout of one segment:
//
//	kind     1 byte   0 = delta-varint payload, 1 = dense bitmap payload
//	first    uvarint  absolute value for the list's first segment; for
//	                  later segments the gap first − prevLast − 1
//	span     uvarint  last − first (0 for a single-entry segment)
//	dataLen  uvarint  payload byte length
//	payload  dataLen bytes
//
// The (first, span) header pair is the skip test: a kernel or scanner can
// reject a whole segment against a query range — and skip its payload via
// dataLen — without decoding a single value. The varint payload holds
// count−1 uvarints of gap−1 deltas (lists are strictly increasing); the
// bitmap payload holds ⌈(span+1)/8⌉ bytes with bit i set iff first+i is
// present — chosen per segment whenever it is the smaller encoding, which
// is exactly the ultra-high-degree dense-neighborhood case. Decoding
// validates monotonicity, bounds, and exact payload consumption, so a
// corrupt or truncated store fails loudly instead of miscounting.
package graph

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// Format identifies the on-disk adjacency encoding of a store.
type Format string

const (
	// FormatPlain is the original layout: little-endian uint32 entries in
	// <base>.adj, 4 bytes per adjacency entry.
	FormatPlain Format = "plain"
	// FormatCompressed is the delta-varint/bitmap segment layout in
	// <base>.cadj + <base>.cidx described above.
	FormatCompressed Format = "compressed"
)

// OrPlain resolves the zero value: an empty format (pre-compression
// metadata, unset options) means a plain store.
func (f Format) OrPlain() Format {
	if f == FormatCompressed {
		return FormatCompressed
	}
	return FormatPlain
}

// ParseFormat validates a store format name from a flag or metadata field.
// The empty string means FormatPlain (pre-compression stores carry no
// format field).
func ParseFormat(s string) (Format, error) {
	switch Format(s) {
	case "", FormatPlain:
		return FormatPlain, nil
	case FormatCompressed:
		return FormatCompressed, nil
	}
	return "", fmt.Errorf("graph: unknown store format %q (want plain or compressed)", s)
}

// SegmentEntries is the maximum entry count of one compressed segment. 256
// keeps decode scratch L1-resident and makes the per-segment headers cost
// well under 0.05 bytes/entry on full segments.
const SegmentEntries = 256

// Segment payload kinds.
const (
	// SegVarint marks a delta-varint payload.
	SegVarint byte = 0
	// SegBitmap marks a dense bitmap payload.
	SegBitmap byte = 1

	segKindVarint = SegVarint
	segKindBitmap = SegBitmap
)

// File magics; a plain-store or garbage file fails immediately instead of
// being decoded as segments.
var (
	cadjMagic = [4]byte{'P', 'C', 'A', '1'}
	cidxMagic = [4]byte{'P', 'C', 'I', '1'}
)

// cadjHeaderLen is the byte offset of the data area inside .cadj.
const cadjHeaderLen = len(cadjMagic)

// CAdjPath returns the path of the compressed adjacency file for the store
// rooted at base.
func CAdjPath(base string) string { return base + ".cadj" }

// CIdxPath returns the path of the compressed per-vertex index file for the
// store rooted at base.
func CIdxPath(base string) string { return base + ".cidx" }

// ListEncoder appends compressed list encodings; it owns the scratch buffer
// the varint/bitmap size comparison needs, so encoding a full store
// allocates nothing per vertex.
type ListEncoder struct {
	scratch []byte
}

// Append appends the compressed encoding of one sorted, strictly increasing
// adjacency list to dst and returns the extended slice. An empty list
// appends nothing (its index entry is length zero).
func (e *ListEncoder) Append(dst []byte, list []Vertex) []byte {
	prev := Vertex(0)
	for off := 0; off < len(list); off += SegmentEntries {
		end := off + SegmentEntries
		if end > len(list) {
			end = len(list)
		}
		seg := list[off:end]
		first, last := seg[0], seg[len(seg)-1]

		// Candidate payloads: gap−1 varints vs a dense bitmap over
		// [first, last]. Take the bitmap whenever it is strictly smaller —
		// the deterministic density threshold.
		e.scratch = e.scratch[:0]
		for i := 1; i < len(seg); i++ {
			e.scratch = binary.AppendUvarint(e.scratch, uint64(seg[i]-seg[i-1]-1))
		}
		varLen := len(e.scratch)
		bmLen := int(last-first)/8 + 1
		kind := byte(segKindVarint)
		dataLen := varLen
		if len(seg) > 1 && bmLen < varLen {
			kind = segKindBitmap
			dataLen = bmLen
		}

		firstField := uint64(first)
		if off > 0 {
			firstField = uint64(first - prev - 1)
		}
		dst = append(dst, kind)
		dst = binary.AppendUvarint(dst, firstField)
		dst = binary.AppendUvarint(dst, uint64(last-first))
		dst = binary.AppendUvarint(dst, uint64(dataLen))
		if kind == segKindVarint {
			dst = append(dst, e.scratch...)
		} else {
			base := len(dst)
			dst = append(dst, make([]byte, bmLen)...)
			bm := dst[base:]
			for _, v := range seg {
				bit := v - first
				bm[bit/8] |= 1 << (bit % 8)
			}
		}
		prev = last
	}
	return dst
}

// CompressedList is a view of one vertex's encoded adjacency list: the raw
// segment bytes plus the degree that determines the positional segment
// split. It is the unit the compressed scan sources hand to runners, whose
// header-pruned passes reject it on its segment headers before decoding.
type CompressedList struct {
	Degree int
	Data   []byte
}

// Segment is one parsed segment header plus its undecoded payload.
type Segment struct {
	Kind  byte
	Count int
	// First and Last bound the segment's values; the header-driven skip
	// test compares them against a query range without touching Payload.
	First, Last Vertex
	Payload     []byte
}

// SegIter walks a CompressedList's segments, parsing headers (cheap) and
// exposing payloads undecoded. Corrupt input surfaces as Err, never as a
// panic — the fuzz target holds this to arbitrary bytes.
type SegIter struct {
	data      []byte
	remaining int
	prevLast  Vertex
	start     bool
	err       error
}

// Segments returns an iterator over cl's segments.
func (cl CompressedList) Segments() SegIter {
	return SegIter{data: cl.Data, remaining: cl.Degree, start: true}
}

// Err reports the first parse error the iterator hit.
func (it *SegIter) Err() error { return it.err }

// MaxSegmentBytes bounds the encoding of one valid segment: kind, three
// header uvarints, and the larger payload form (255 five-byte gaps; a bitmap
// is only chosen when smaller). An iterator whose unparsed bytes (Rest) are
// at least this many, or the whole remainder of the list, parses its next
// segment exactly as it would with the whole list in hand — which is how a
// list longer than the reader's buffer is walked through it: Feed the
// unparsed tail followed by more of the list, and carry on.
const MaxSegmentBytes = 1 + 2*binary.MaxVarintLen32 + binary.MaxVarintLen64 + (SegmentEntries-1)*binary.MaxVarintLen32

// Rest returns the list bytes not parsed yet.
func (it *SegIter) Rest() []byte { return it.data }

// Feed replaces the bytes to parse next; see MaxSegmentBytes.
func (it *SegIter) Feed(data []byte) { it.data = data }

// uvarint32 reads one uvarint that must fit in 32 bits.
func uvarint32(data []byte) (uint32, int, error) {
	x, n := binary.Uvarint(data)
	if n <= 0 {
		return 0, 0, errHeaderVarint
	}
	if x > math.MaxUint32 {
		return 0, 0, errHeader32
	}
	return uint32(x), n, nil
}

// segHeader parses and validates the header at the front of d, of a segment
// holding count values whose predecessor segment ended at prevLast (start:
// there is none). It returns the segment's kind and value bounds and the
// lengths of its header and payload in d, which is all SegIter.Next and
// AppendSegments need to build a Segment.
//
//pdtl:hotpath
func segHeader(d []byte, count int, prevLast Vertex, start bool) (kind byte, first, last Vertex, hdrLen, dataLen int, err error) {
	if len(d) == 0 {
		return 0, 0, 0, 0, 0, errTruncatedList
	}
	kind = d[0]
	if kind != segKindVarint && kind != segKindBitmap {
		return 0, 0, 0, 0, 0, errSegmentKind
	}
	hdrLen = 1
	firstField, n, err := uvarint32(d[hdrLen:])
	if err != nil {
		return 0, 0, 0, 0, 0, err
	}
	hdrLen += n
	span, n, err := uvarint32(d[hdrLen:])
	if err != nil {
		return 0, 0, 0, 0, 0, err
	}
	hdrLen += n
	payload, n := binary.Uvarint(d[hdrLen:])
	if n <= 0 {
		return 0, 0, 0, 0, 0, errHeaderVarint
	}
	hdrLen += n
	if payload > uint64(len(d)-hdrLen) {
		return 0, 0, 0, 0, 0, errPayloadLen
	}

	lo := uint64(firstField)
	if !start {
		lo = uint64(prevLast) + 1 + uint64(firstField)
	}
	hi := lo + uint64(span)
	if hi > math.MaxUint32 {
		return 0, 0, 0, 0, 0, errRange32
	}
	if count == 1 && span != 0 {
		return 0, 0, 0, 0, 0, errSpanCount
	}
	if uint64(span)+1 < uint64(count) {
		return 0, 0, 0, 0, 0, errSpanCount
	}
	if kind == segKindBitmap && payload != uint64(span)/8+1 {
		return 0, 0, 0, 0, 0, errBitmapPayloadLen
	}
	return kind, Vertex(lo), Vertex(hi), hdrLen, int(payload), nil
}

// Next parses the next segment. ok is false at the end of the list or on a
// parse error (check Err).
//
//pdtl:hotpath
func (it *SegIter) Next() (Segment, bool) {
	if it.err != nil || it.remaining <= 0 {
		return Segment{}, false
	}
	count := min(it.remaining, SegmentEntries)
	kind, first, last, hdrLen, dataLen, err := segHeader(it.data, count, it.prevLast, it.start)
	if err != nil {
		it.err = err
		return Segment{}, false
	}
	seg := Segment{
		Kind:    kind,
		Count:   count,
		First:   first,
		Last:    last,
		Payload: it.data[hdrLen : hdrLen+dataLen],
	}
	it.data = it.data[hdrLen+dataLen:]
	it.remaining -= count
	it.prevLast = last
	it.start = false
	if it.remaining == 0 && len(it.data) != 0 {
		it.err = errTrailingData
		return Segment{}, false
	}
	return seg, true
}

// DecodeSegment appends the segment's values to dst, validating count,
// monotonicity, and exact payload consumption.
//
//pdtl:hotpath
func DecodeSegment(s Segment, dst []Vertex) ([]Vertex, error) {
	switch s.Kind {
	case segKindVarint:
		v := uint64(s.First)
		dst = append(dst, s.First)
		p := s.Payload
		for i := 1; i < s.Count; i++ {
			gap, n := binary.Uvarint(p)
			if n <= 0 {
				return dst, errPayloadVarint
			}
			p = p[n:]
			v += gap + 1
			if v > uint64(s.Last) {
				return dst, errValueRange
			}
			dst = append(dst, Vertex(v))
		}
		if len(p) != 0 {
			return dst, errTrailingBytes
		}
		if v != uint64(s.Last) {
			return dst, errEndMismatch
		}
	case segKindBitmap:
		found := 0
		for i, b := range s.Payload {
			for b != 0 {
				bit := bits.TrailingZeros8(b)
				b &^= 1 << bit
				v := uint64(s.First) + uint64(i*8+bit)
				if v > uint64(s.Last) {
					return dst, errBitmapRange
				}
				dst = append(dst, Vertex(v))
				found++
			}
		}
		if found != s.Count || found == 0 {
			// found == 0 (only possible on a corrupt hand-built segment —
			// the iterator never yields Count < 1) must error here: the
			// bounds check below would index dst[-1].
			return dst, errBitmapCount
		}
		if dst[len(dst)-1] != s.Last || dst[len(dst)-found] != s.First {
			return dst, errBitmapBounds
		}
	default:
		return dst, errSegmentKind
	}
	return dst, nil
}

// Decode appends the full decoded list to dst (grow-from-empty; callers
// reuse a capacity-Degree buffer) and returns it.
func (cl CompressedList) Decode(dst []Vertex) ([]Vertex, error) {
	it := cl.Segments()
	for {
		seg, ok := it.Next()
		if !ok {
			return dst, it.Err()
		}
		var err error
		if dst, err = DecodeSegment(seg, dst); err != nil {
			return dst, err
		}
	}
}

// AppendSegments parses every segment header of the list, each validated
// exactly as the iterator would (trailing data included), and appends the
// segments, payloads undecoded, to dst — the header-pruned pass's one walk:
// the list's bounds are the first segment's First and the last one's Last,
// O(segments) with no payload touched, and DecodeSegment decodes a survivor
// from the same segments without parsing a header again. A zero-degree list
// appends nothing.
//
//pdtl:hotpath
func (cl CompressedList) AppendSegments(dst []Segment) ([]Segment, error) {
	d := cl.Data
	var prevLast Vertex
	for remaining := cl.Degree; remaining > 0; {
		count := min(remaining, SegmentEntries)
		kind, first, last, hdrLen, dataLen, err := segHeader(d, count, prevLast, remaining == cl.Degree)
		if err != nil {
			return dst, err
		}
		dst = append(dst, Segment{Kind: kind, Count: count, First: first, Last: last, Payload: d[hdrLen : hdrLen+dataLen]})
		d = d[hdrLen+dataLen:]
		prevLast = last
		remaining -= count
	}
	if cl.Degree > 0 && len(d) != 0 {
		return dst, errTrailingData
	}
	return dst, nil
}
