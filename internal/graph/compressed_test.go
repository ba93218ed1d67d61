package graph

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// testLists is a spread of adjacency-list shapes: empty, singleton, dense
// runs (bitmap candidates), sparse spreads (varint), lists straddling the
// 256-entry segment boundary, and extreme ids.
func testLists() [][]Vertex {
	lists := [][]Vertex{
		nil,
		{0},
		{7},
		{0xFFFFFFFF},
		{0, 0xFFFFFFFF},
		{1, 2, 3},
		{5, 1000000, 2000000, 4000000000},
	}
	// Dense run of 300: two segments, the first a bitmap candidate.
	dense := make([]Vertex, 300)
	for i := range dense {
		dense[i] = Vertex(100 + i)
	}
	lists = append(lists, dense)
	// Exactly one segment, exactly full.
	full := make([]Vertex, SegmentEntries)
	for i := range full {
		full[i] = Vertex(3 * i)
	}
	lists = append(lists, full)
	// One past the boundary.
	lists = append(lists, append(append([]Vertex{}, full...), full[len(full)-1]+17))
	// Random sparse and semi-dense lists.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(1000)
		gap := 1 + rng.Intn(1<<uint(rng.Intn(20)))
		list := make([]Vertex, 0, n)
		v := uint64(rng.Intn(1000))
		for i := 0; i < n; i++ {
			if v > 0xFFFFFFFF {
				break
			}
			list = append(list, Vertex(v))
			v += 1 + uint64(rng.Intn(gap))
		}
		lists = append(lists, list)
	}
	return lists
}

func TestCompressedListRoundTrip(t *testing.T) {
	var enc ListEncoder
	for i, list := range testLists() {
		data := enc.Append(nil, list)
		cl := CompressedList{Degree: len(list), Data: data}
		got, err := cl.Decode(nil)
		if err != nil {
			t.Fatalf("list %d (len %d): decode: %v", i, len(list), err)
		}
		if len(list) == 0 {
			if len(data) != 0 || len(got) != 0 {
				t.Fatalf("list %d: empty list encoded to %d bytes, decoded to %d entries", i, len(data), len(got))
			}
			continue
		}
		if !reflect.DeepEqual(got, list) {
			t.Fatalf("list %d: round trip mismatch:\n got %v\nwant %v", i, got, list)
		}
		segs, err := cl.AppendSegments(nil)
		if err != nil || len(segs) != (len(list)+SegmentEntries-1)/SegmentEntries {
			t.Fatalf("list %d: walk: %d segments, err %v", i, len(segs), err)
		}
		if first, last := segs[0].First, segs[len(segs)-1].Last; first != list[0] || last != list[len(list)-1] {
			t.Fatalf("list %d: bounds [%d,%d], want [%d,%d]", i, first, last, list[0], list[len(list)-1])
		}
		var walked []Vertex
		for _, seg := range segs {
			if walked, err = DecodeSegment(seg, walked); err != nil {
				t.Fatalf("list %d: decode a walked segment: %v", i, err)
			}
		}
		if !reflect.DeepEqual(walked, list) {
			t.Fatalf("list %d: the walked segments decode to another list", i)
		}
	}
}

func TestDecodeEntryRange(t *testing.T) {
	var enc ListEncoder
	scratch := make([]Vertex, 0, SegmentEntries)
	for i, list := range testLists() {
		if len(list) == 0 {
			continue
		}
		data := enc.Append(nil, list)
		cl := CompressedList{Degree: len(list), Data: data}
		ranges := [][2]int{{0, len(list)}, {0, 1}, {len(list) - 1, len(list)}, {len(list) / 3, 2 * len(list) / 3}}
		for _, r := range ranges {
			lo, hi := r[0], r[1]
			got, err := DecodeEntryRange(cl, lo, hi, scratch, nil)
			if err != nil {
				t.Fatalf("list %d range [%d,%d): %v", i, lo, hi, err)
			}
			want := list[lo:hi]
			if len(got) == 0 && len(want) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, []Vertex(want)) {
				t.Fatalf("list %d range [%d,%d): got %v want %v", i, lo, hi, got, want)
			}
		}
	}
}

// TestSegmentBitmapChosen pins the density threshold: a dense run must pick
// the bitmap encoding, a sparse one the varint encoding.
func TestSegmentBitmapChosen(t *testing.T) {
	var enc ListEncoder
	dense := make([]Vertex, 200)
	for i := range dense {
		dense[i] = Vertex(2 * i) // span 398 → 50-byte bitmap < 199 varint bytes
	}
	it := (CompressedList{Degree: len(dense), Data: enc.Append(nil, dense)}).Segments()
	seg, ok := it.Next()
	if !ok {
		t.Fatal(it.Err())
	}
	if seg.Kind != segKindBitmap {
		t.Fatalf("dense segment kind %d, want bitmap", seg.Kind)
	}
	if got, err := DecodeSegment(seg, nil); err != nil || !reflect.DeepEqual(got, dense) {
		t.Fatalf("bitmap segment decodes to %v, %v; want the list", got, err)
	}

	sparse := []Vertex{0, 1000, 50000, 1000000}
	it = (CompressedList{Degree: len(sparse), Data: enc.Append(nil, sparse)}).Segments()
	if seg, ok = it.Next(); !ok {
		t.Fatal(it.Err())
	}
	if seg.Kind != segKindVarint {
		t.Fatalf("sparse segment kind %d, want varint", seg.Kind)
	}
}

// corruptStore writes a tiny valid compressed store and returns its base.
func corruptStore(t *testing.T) (string, *CSR) {
	t.Helper()
	g := &CSR{
		Offsets: []uint64{0, 3, 5, 6, 6},
		Adj:     []Vertex{1, 2, 3, 2, 3, 3},
	}
	base := filepath.Join(t.TempDir(), "g")
	if err := WriteCSRFormat(base, "corrupt-test", g, FormatCompressed); err != nil {
		t.Fatal(err)
	}
	return base, g
}

func mustFail(t *testing.T, base, label, substr string) {
	t.Helper()
	d, err := Open(base)
	if err == nil {
		// Open may legitimately succeed when the corruption is inside a
		// payload; the scan must then catch it.
		sc, serr := d.NewScanner(nil, 0)
		if serr != nil {
			err = serr
		} else {
			for {
				if _, _, ok := sc.Next(); !ok {
					break
				}
			}
			err = sc.Err()
			sc.Close()
		}
	}
	if err == nil {
		t.Fatalf("%s: corruption not detected", label)
	}
	if substr != "" && !strings.Contains(err.Error(), substr) {
		t.Fatalf("%s: error %q does not mention %q", label, err, substr)
	}
}

func TestCompressedCorruptStore(t *testing.T) {
	patch := func(t *testing.T, path string, off int64, b []byte) {
		t.Helper()
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		copy(blob[off:], b)
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("bad-cadj-magic", func(t *testing.T) {
		base, _ := corruptStore(t)
		patch(t, CAdjPath(base), 0, []byte("XXXX"))
		mustFail(t, base, "bad cadj magic", "bad magic")
	})
	t.Run("bad-cidx-magic", func(t *testing.T) {
		base, _ := corruptStore(t)
		patch(t, CIdxPath(base), 0, []byte("XXXX"))
		mustFail(t, base, "bad cidx magic", "bad magic")
	})
	t.Run("truncated-cadj", func(t *testing.T) {
		base, _ := corruptStore(t)
		blob, err := os.ReadFile(CAdjPath(base))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(CAdjPath(base), blob[:len(blob)-1], 0o644); err != nil {
			t.Fatal(err)
		}
		mustFail(t, base, "truncated cadj", "")
	})
	t.Run("truncated-cidx", func(t *testing.T) {
		base, _ := corruptStore(t)
		blob, err := os.ReadFile(CIdxPath(base))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(CIdxPath(base), blob[:5], 0o644); err != nil {
			t.Fatal(err)
		}
		mustFail(t, base, "truncated cidx", "")
	})
	t.Run("bad-segment-kind", func(t *testing.T) {
		base, _ := corruptStore(t)
		// First byte of the data area is vertex 0's first segment kind.
		patch(t, CAdjPath(base), int64(cadjHeaderLen), []byte{9})
		mustFail(t, base, "bad segment kind", "bad segment kind")
	})
	t.Run("overlong-varint", func(t *testing.T) {
		base, _ := corruptStore(t)
		// Stamp a never-terminating varint over vertex 0's header fields.
		patch(t, CAdjPath(base), int64(cadjHeaderLen)+1, []byte{0x80, 0x80, 0x80})
		mustFail(t, base, "overlong varint", "varint")
	})
	t.Run("missing-cidx", func(t *testing.T) {
		base, _ := corruptStore(t)
		if err := os.Remove(CIdxPath(base)); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(base); err == nil {
			t.Fatal("open succeeded without the .cidx index")
		}
	})
}

// TestCompressedStoreScansMatchPlain builds the same graph in both formats
// and asserts the sequential scans (segmented and whole-list), random
// access, and LoadCSR agree exactly.
func TestCompressedStoreScansMatchPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 500
	offsets := make([]uint64, n+1)
	var adj []Vertex
	for v := 0; v < n; v++ {
		offsets[v] = uint64(len(adj))
		deg := rng.Intn(40)
		if v == 13 {
			deg = 700 // straddles multiple segments
		}
		seen := map[Vertex]bool{}
		var list []Vertex
		for len(list) < deg {
			w := Vertex(rng.Intn(4 * n))
			if !seen[w] {
				seen[w] = true
				list = append(list, w)
			}
		}
		sortVertices(list)
		adj = append(adj, list...)
	}
	offsets[n] = uint64(len(adj))
	g := &CSR{Offsets: offsets, Adj: adj}

	dir := t.TempDir()
	plainBase := filepath.Join(dir, "plain")
	compBase := filepath.Join(dir, "comp")
	if err := WriteCSR(plainBase, "t", g); err != nil {
		t.Fatal(err)
	}
	if err := WriteCSRFormat(compBase, "t", g, FormatCompressed); err != nil {
		t.Fatal(err)
	}
	dp, err := Open(plainBase)
	if err != nil {
		t.Fatal(err)
	}
	dc, err := Open(compBase)
	if err != nil {
		t.Fatal(err)
	}

	for _, maxList := range []int{0, 1, 7, 256, 1000} {
		sp, err := dp.NewScanner(nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := dc.NewScanner(nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		sp.SetMaxList(maxList)
		sc.SetMaxList(maxList)
		for {
			u1, l1, ok1 := sp.Next()
			u2, l2, ok2 := sc.Next()
			if ok1 != ok2 {
				t.Fatalf("maxList %d: stream lengths diverge (plain ok=%v compressed ok=%v)", maxList, ok1, ok2)
			}
			if !ok1 {
				break
			}
			if u1 != u2 || !reflect.DeepEqual(append([]Vertex{}, l1...), append([]Vertex{}, l2...)) {
				t.Fatalf("maxList %d: segment mismatch at u=%d/%d: %v vs %v", maxList, u1, u2, l1, l2)
			}
		}
		if err := sp.Err(); err != nil {
			t.Fatal(err)
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		sp.Close()
		sc.Close()
	}

	// NextCompressed delivers every list intact.
	sc, err := dc.NewScanner(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	csc := sc.(*CompressedSeqScan)
	for v := 0; v < n; v++ {
		u, cl, ok := csc.NextCompressed()
		if !ok {
			t.Fatalf("NextCompressed ended early at %d: %v", v, csc.Err())
		}
		got, err := cl.Decode(nil)
		if err != nil {
			t.Fatalf("vertex %d: %v", u, err)
		}
		want := adj[offsets[v]:offsets[v+1]]
		if len(got) != len(want) {
			t.Fatalf("vertex %d: decoded %d entries, want %d", v, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("vertex %d entry %d: %d != %d", v, i, got[i], want[i])
			}
		}
	}
	sc.Close()

	// LoadCSR round trip.
	loaded, err := dc.LoadCSR()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded.Adj, adj) {
		t.Fatal("LoadCSR of the compressed store differs from the source adjacency")
	}

	// ConvertStore in both directions preserves the adjacency.
	back := filepath.Join(dir, "back")
	if err := ConvertStore(compBase, back, FormatPlain); err != nil {
		t.Fatal(err)
	}
	db, err := Open(back)
	if err != nil {
		t.Fatal(err)
	}
	bcsr, err := db.LoadCSR()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bcsr.Adj, adj) {
		t.Fatal("plain→compressed→plain conversion changed the adjacency")
	}
}

func sortVertices(v []Vertex) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}

// FuzzSegmentCodec holds the codec to three properties: any sorted unique
// list round-trips exactly; arbitrary bytes never panic the decoder (they
// either decode or error); and the header walk the pruned pass rejects on
// agrees with Decode — a list the walk fails Decode fails too, and when both
// succeed the segments hold the degree's entries and their ends are the
// decoded list's.
func FuzzSegmentCodec(f *testing.F) {
	f.Add([]byte{1, 2, 3, 250, 251}, uint16(5))
	f.Add([]byte{0xFF, 0x00, 0x80}, uint16(3))
	f.Add([]byte{}, uint16(0))
	f.Fuzz(func(t *testing.T, raw []byte, degree uint16) {
		// Property 1: the fuzz bytes as arbitrary compressed data must not
		// panic, for any claimed degree.
		cl := CompressedList{Degree: int(degree), Data: raw}
		decoded, err := cl.Decode(nil)
		if err == nil && len(decoded) != int(degree) {
			t.Fatalf("decode reported success with %d entries for degree %d", len(decoded), degree)
		}
		segs, walkErr := cl.AppendSegments(nil)
		switch {
		case walkErr != nil && err == nil:
			t.Fatalf("the walk failed (%v) on bytes Decode accepts", walkErr)
		case walkErr == nil && err == nil:
			total := 0
			for _, seg := range segs {
				total += seg.Count
			}
			if total != int(degree) {
				t.Fatalf("the walk's segments hold %d entries for degree %d", total, degree)
			}
			if degree > 0 && (segs[0].First != decoded[0] || segs[len(segs)-1].Last != decoded[len(decoded)-1]) {
				t.Fatalf("the walk bounds the list by [%d,%d], Decode by [%d,%d]", segs[0].First, segs[len(segs)-1].Last, decoded[0], decoded[len(decoded)-1])
			}
		}

		// Property 2: a sorted unique list derived from the bytes
		// round-trips exactly.
		var list []Vertex
		v := uint64(0)
		for i, b := range raw {
			v += uint64(b)*uint64(i+1) + 1
			if v > 0xFFFFFFFF {
				break
			}
			list = append(list, Vertex(v))
		}
		var enc ListEncoder
		data := enc.Append(nil, list)
		got, err := (CompressedList{Degree: len(list), Data: data}).Decode(nil)
		if err != nil {
			t.Fatalf("round trip decode: %v", err)
		}
		if len(got) != len(list) {
			t.Fatalf("round trip: %d entries, want %d", len(got), len(list))
		}
		for i := range got {
			if got[i] != list[i] {
				t.Fatalf("round trip entry %d: %d != %d", i, got[i], list[i])
			}
		}
	})
}
