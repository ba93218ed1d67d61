package scan

import (
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"pdtl/internal/gen"
	"pdtl/internal/graph"
	"pdtl/internal/ioacct"
	"pdtl/internal/orient"
)

// orientedStore writes g, orients it, and opens the oriented store.
func orientedStore(t testing.TB, g *graph.CSR) *graph.Disk {
	t.Helper()
	dir := t.TempDir()
	src := filepath.Join(dir, "g")
	if err := graph.WriteCSR(src, "test", g); err != nil {
		t.Fatal(err)
	}
	dst := filepath.Join(dir, "g.oriented")
	if _, err := orient.Orient(src, dst, 2); err != nil {
		t.Fatal(err)
	}
	d, err := graph.Open(dst)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// segment is one Next() yield, copied out of the reused buffer.
type segment struct {
	u    graph.Vertex
	list []graph.Vertex
}

// drain collects a full pass from one handle. Errors are reported with
// t.Error (not Fatal) so drain is safe to call from helper goroutines.
func drain(t testing.TB, h Handle, maxList int) []segment {
	t.Helper()
	sc, err := h.Scan(maxList)
	if err != nil {
		t.Error(err)
		return nil
	}
	defer sc.Close()
	var segs []segment
	for {
		u, list, ok := sc.Next()
		if !ok {
			break
		}
		segs = append(segs, segment{u: u, list: append([]graph.Vertex(nil), list...)})
	}
	if err := sc.Err(); err != nil {
		t.Error(err)
		return nil
	}
	return segs
}

func sameSegments(t *testing.T, label string, got, want []segment) {
	t.Helper()
	if t.Failed() {
		return // a drain already reported the underlying failure
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d segments, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].u != want[i].u || len(got[i].list) != len(want[i].list) {
			t.Fatalf("%s: segment %d = (%d, %d entries), want (%d, %d entries)",
				label, i, got[i].u, len(got[i].list), want[i].u, len(want[i].list))
		}
		for k := range got[i].list {
			if got[i].list[k] != want[i].list[k] {
				t.Fatalf("%s: segment %d entry %d = %d, want %d",
					label, i, k, got[i].list[k], want[i].list[k])
			}
		}
	}
}

func allKinds() []SourceKind { return []SourceKind{SourceBuffered, SourceShared} }

// TestSourcesYieldIdenticalStreams checks that every source reproduces the
// buffered (graph.Scanner) segment stream exactly, across segmentation
// caps — including caps that split the large lists of a skewed graph.
func TestSourcesYieldIdenticalStreams(t *testing.T) {
	g, err := gen.PowerLaw(300, 4000, 2.1, 42)
	if err != nil {
		t.Fatal(err)
	}
	d := orientedStore(t, g)
	for _, maxList := range []int{0, 3, 17, 1 << 20} {
		ref, err := New(SourceBuffered, d, Config{})
		if err != nil {
			t.Fatal(err)
		}
		rh, err := ref.Handle(nil)
		if err != nil {
			t.Fatal(err)
		}
		want := drain(t, rh, maxList)
		rh.Close()
		ref.Close()
		for _, kind := range allKinds() {
			src, err := New(kind, d, Config{})
			if err != nil {
				t.Fatal(err)
			}
			h, err := src.Handle(nil)
			if err != nil {
				t.Fatal(err)
			}
			got := drain(t, h, maxList)
			h.Close()
			src.Close()
			sameSegments(t, string(kind), got, want)
		}
	}
}

// TestReadEntriesEquivalence checks random-access reads across sources.
func TestReadEntriesEquivalence(t *testing.T) {
	g, err := gen.ErdosRenyi(200, 2500, 7)
	if err != nil {
		t.Fatal(err)
	}
	d := orientedStore(t, g)
	total := d.Meta.AdjEntries
	rng := rand.New(rand.NewSource(1))

	type read struct {
		pos uint64
		n   int
	}
	var reads []read
	for i := 0; i < 50; i++ {
		n := 1 + rng.Intn(200)
		if uint64(n) > total {
			n = int(total)
		}
		pos := uint64(rng.Int63n(int64(total) - int64(n) + 1))
		reads = append(reads, read{pos, n})
	}

	want := make(map[int][]graph.Vertex)
	for _, kind := range allKinds() {
		src, err := New(kind, d, Config{})
		if err != nil {
			t.Fatal(err)
		}
		h, err := src.Handle(nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, rd := range reads {
			dst := make([]graph.Vertex, rd.n)
			if err := h.ReadEntries(dst, rd.pos); err != nil {
				t.Fatalf("%s: read %d: %v", kind, i, err)
			}
			if kind == SourceBuffered {
				want[i] = dst
				continue
			}
			for k := range dst {
				if dst[k] != want[i][k] {
					t.Fatalf("%s: read %d entry %d = %d, want %d", kind, i, k, dst[k], want[i][k])
				}
			}
		}
		h.Close()
		src.Close()
	}
}

// TestSharedConcurrentPassesShareOneScan runs P concurrent subscribers for
// two passes each and checks (a) every subscriber sees the exact stream and
// (b) the broadcaster touched the disk exactly twice — rounds are
// deterministic when all handles are open up front.
func TestSharedConcurrentPassesShareOneScan(t *testing.T) {
	g, err := gen.PowerLaw(400, 6000, 2.3, 7)
	if err != nil {
		t.Fatal(err)
	}
	d := orientedStore(t, g)
	srcCounter := ioacct.NewCounter(0)
	src, err := New(SourceShared, d, Config{Counter: srcCounter})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()

	refSrc, err := New(SourceBuffered, d, Config{})
	if err != nil {
		t.Fatal(err)
	}
	refH, err := refSrc.Handle(nil)
	if err != nil {
		t.Fatal(err)
	}
	want := drain(t, refH, 64)
	refH.Close()
	refSrc.Close()

	const P = 4
	const passes = 2
	handles := make([]Handle, P)
	for i := range handles {
		if handles[i], err = src.Handle(nil); err != nil {
			t.Fatal(err)
		}
	}
	got := make([][]segment, P)
	var wg sync.WaitGroup
	for i := 0; i < P; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer handles[i].Close()
			for p := 0; p < passes; p++ {
				got[i] = drain(t, handles[i], 64)
			}
		}(i)
	}
	wg.Wait()
	for i := 0; i < P; i++ {
		sameSegments(t, "subscriber", got[i], want)
	}
	if gotBytes, wantBytes := srcCounter.Snapshot().BytesRead, int64(passes)*d.AdjBytes(); gotBytes != wantBytes {
		t.Errorf("broadcaster read %d bytes, want exactly %d (one physical scan per round)", gotBytes, wantBytes)
	}
}

// TestSharedScanCloseMidPassDoesNotStallOthers abandons one subscription
// early; the other subscriber must still complete its pass.
func TestSharedScanCloseMidPassDoesNotStallOthers(t *testing.T) {
	g, err := gen.ErdosRenyi(300, 4000, 9)
	if err != nil {
		t.Fatal(err)
	}
	d := orientedStore(t, g)
	src, err := New(SourceShared, d, Config{BufBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	h1, err := src.Handle(nil)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := src.Handle(nil)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer h2.Close()
		drain(t, h2, 0)
	}()
	sc, err := h1.Scan(0)
	if err != nil {
		t.Fatal(err)
	}
	sc.Next() // consume one yield, then abandon the pass
	sc.Close()
	h1.Close()
	<-done
}

// TestUnalignedBufBytes: block sizes that are not a multiple of the entry
// size must be rounded, not allowed to split entries across blocks.
func TestUnalignedBufBytes(t *testing.T) {
	g, err := gen.ErdosRenyi(150, 1200, 4)
	if err != nil {
		t.Fatal(err)
	}
	d := orientedStore(t, g)
	var want []segment
	for _, kind := range allKinds() {
		src, err := New(kind, d, Config{BufBytes: 4097})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		h, err := src.Handle(nil)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		got := drain(t, h, 11)
		h.Close()
		src.Close()
		if want == nil {
			want = got
			continue
		}
		sameSegments(t, string(kind), got, want)
	}
}

func TestParseSource(t *testing.T) {
	for in, want := range map[string]SourceKind{
		"": SourceAuto, "auto": SourceAuto, "buffered": SourceBuffered,
		"shared": SourceShared,
	} {
		got, err := ParseSource(in)
		if err != nil || got != want {
			t.Errorf("ParseSource(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	// "mem", an in-memory source that no longer exists, is as unknown as
	// any other name, and the error says what is accepted.
	for _, in := range []string{"mmap", "mem"} {
		_, err := ParseSource(in)
		if err == nil || !strings.Contains(err.Error(), "want auto, buffered, or shared") {
			t.Errorf("ParseSource(%q) = %v; want an error naming the accepted sources", in, err)
		}
	}
	// The default names no source of this package, spelled out or not.
	for _, k := range []SourceKind{"", SourceAuto} {
		if !k.IsAuto() || k.OrAuto() != SourceAuto {
			t.Errorf("%q: IsAuto %v, OrAuto %q", k, k.IsAuto(), k.OrAuto())
		}
		if _, err := New(k, nil, Config{}); err == nil {
			t.Errorf("New(%q) must refuse: the default is not a scan source", k)
		}
	}
	if SourceShared.IsAuto() || SourceShared.OrAuto() != SourceShared {
		t.Error("a named kind must pass through OrAuto")
	}
}
