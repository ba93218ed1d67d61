package graph

import (
	"math/rand"
	"reflect"
	"testing"
)

// randomList builds a strictly-increasing list with mixed gap sizes: mostly
// single-byte gaps (the common case the wide decoder targets) with
// occasional multi-byte jumps that force its scalar fallback mid-run.
func randomList(rng *rand.Rand, n int) []Vertex {
	out := make([]Vertex, 0, n)
	v := uint64(rng.Intn(1000))
	for len(out) < n {
		out = append(out, Vertex(v))
		switch rng.Intn(10) {
		case 0: // multi-byte gap (varint ≥ 2 bytes)
			v += 128 + uint64(rng.Intn(100000))
		default: // single-byte gap
			v += 1 + uint64(rng.Intn(120))
		}
		if v > 0xFFFFFFF0 {
			break
		}
	}
	return out
}

// TestDecodeSegmentFastMatchesScalar holds the unrolled decoder to the
// scalar one on real encoder output: same values per segment, and wide
// blocks actually taken on single-byte-gap runs.
func TestDecodeSegmentFastMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var enc ListEncoder
	var totalBlocks int
	for trial := 0; trial < 200; trial++ {
		list := randomList(rng, 1+rng.Intn(700))
		cl := CompressedList{Degree: len(list), Data: enc.Append(nil, list)}
		it := cl.Segments()
		for {
			seg, ok := it.Next()
			if !ok {
				break
			}
			want, werr := DecodeSegment(seg, nil)
			got, blocks, gerr := DecodeSegmentFast(seg, nil)
			if werr != nil || gerr != nil {
				t.Fatalf("trial %d: decode errors on valid input: scalar=%v fast=%v", trial, werr, gerr)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("trial %d: fast decode differs:\nscalar %v\nfast   %v", trial, want, got)
			}
			if blocks*wideWidth > len(got) {
				t.Fatalf("trial %d: %d wide blocks for %d values", trial, blocks, len(got))
			}
			totalBlocks += blocks
		}
		if err := it.Err(); err != nil {
			t.Fatal(err)
		}
	}
	if totalBlocks == 0 {
		t.Fatal("no trial ever took the wide path; the test lists are too sparse")
	}
}

// FuzzDecodeSegmentFast holds DecodeSegmentFast byte-equivalent to
// DecodeSegment on arbitrary segments — valid or corrupt. Equivalence is
// total: same appended values, same error presence, same error message;
// corrupt input must error, never panic.
func FuzzDecodeSegmentFast(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, uint16(11), uint32(10), uint32(64), byte(0))
	f.Add([]byte{0x80, 0x01, 0, 0, 0, 0, 0, 0, 0}, uint16(10), uint32(0), uint32(200), byte(0))
	f.Add([]byte{0xFF, 0xFF, 0xFF}, uint16(4), uint32(7), uint32(3), byte(1))
	f.Add([]byte{}, uint16(1), uint32(0), uint32(0), byte(0))
	f.Fuzz(func(t *testing.T, payload []byte, count uint16, first uint32, span uint32, kind byte) {
		seg := Segment{
			Kind:    kind % 3, // varint, bitmap, and one invalid kind
			Count:   int(count),
			First:   Vertex(first),
			Last:    Vertex(uint64(first) + uint64(span)), // may wrap: corrupt headers are fair game
			Payload: payload,
		}
		want, werr := DecodeSegment(seg, nil)
		got, blocks, gerr := DecodeSegmentFast(seg, nil)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("error divergence: scalar=%v fast=%v (seg %+v)", werr, gerr, seg)
		}
		if werr != nil && werr.Error() != gerr.Error() {
			t.Fatalf("error message divergence:\nscalar %q\nfast   %q", werr, gerr)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("value divergence:\nscalar %v\nfast   %v (seg %+v)", want, got, seg)
		}
		if blocks < 0 || blocks*wideWidth > len(got) {
			t.Fatalf("%d wide blocks for %d values", blocks, len(got))
		}
	})
}

// BenchmarkDecodeSegment is the scalar-vs-unrolled pair of the decode
// ablation: one full varint segment of small gaps (the dominant shape on
// real adjacency lists), decoded into a reused buffer so allocs/op pins at
// zero for both.
func BenchmarkDecodeSegment(b *testing.B) {
	list := make([]Vertex, SegmentEntries)
	rng := rand.New(rand.NewSource(3))
	v := Vertex(100)
	for i := range list {
		v += 1 + Vertex(rng.Intn(100))
		list[i] = v
	}
	var enc ListEncoder
	cl := CompressedList{Degree: len(list), Data: enc.Append(nil, list)}
	it := cl.Segments()
	seg, ok := it.Next()
	if !ok {
		b.Fatal(it.Err())
	}
	if seg.Kind != SegVarint {
		b.Fatalf("segment kind %d, want varint", seg.Kind)
	}
	dst := make([]Vertex, 0, SegmentEntries)

	b.Run("scalar", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(seg.Payload)))
		for i := 0; i < b.N; i++ {
			out, err := DecodeSegment(seg, dst[:0])
			if err != nil || len(out) != seg.Count {
				b.Fatalf("decode: %v (%d values)", err, len(out))
			}
		}
	})
	b.Run("unrolled", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(seg.Payload)))
		for i := 0; i < b.N; i++ {
			out, blocks, err := DecodeSegmentFast(seg, dst[:0])
			if err != nil || len(out) != seg.Count || blocks == 0 {
				b.Fatalf("decode: %v (%d values, %d blocks)", err, len(out), blocks)
			}
		}
	})
}

// BenchmarkListSegments is the header-pruned pass's unit of work on short
// lists (2–9 entries, one segment — the bulk of a power-law store): the
// header walk a rejected list costs, the walk and the decode of its segments
// a survivor costs, and Decode alone — what a pass paid for every list
// before it pruned on headers.
func BenchmarkListSegments(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var enc ListEncoder
	lists := make([]CompressedList, 4096)
	for i := range lists {
		vals := make([]Vertex, 2+rng.Intn(8))
		v := Vertex(rng.Intn(200000))
		for j := range vals {
			v += Vertex(1 + rng.Intn(3000))
			vals[j] = v
		}
		lists[i] = CompressedList{Degree: len(vals), Data: enc.Append(nil, vals)}
	}
	segs := make([]Segment, 0, 2)
	dst := make([]Vertex, 0, 16)
	b.Run("walk", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if s, err := lists[i%len(lists)].AppendSegments(segs[:0]); err != nil || len(s) != 1 {
				b.Fatal(len(s), err)
			}
		}
	})
	b.Run("walk+decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s, err := lists[i%len(lists)].AppendSegments(segs[:0])
			if err != nil {
				b.Fatal(err)
			}
			out := dst[:0]
			for _, seg := range s {
				if out, err = DecodeSegment(seg, out); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := lists[i%len(lists)].Decode(dst[:0]); err != nil {
				b.Fatal(err)
			}
		}
	})
}
