package mgt

import (
	"context"
	"path/filepath"
	"testing"

	"pdtl/internal/balance"
	"pdtl/internal/baseline"
	"pdtl/internal/gen"
	"pdtl/internal/graph"
	"pdtl/internal/orient"
)

// runnerDisk builds and orients a test graph.
func runnerDisk(t *testing.T) (*graph.Disk, uint64) {
	t.Helper()
	g, err := gen.PowerLaw(400, 6000, 2.2, 17)
	if err != nil {
		t.Fatal(err)
	}
	want := baseline.Forward(g)
	dir := t.TempDir()
	src := filepath.Join(dir, "g")
	if err := graph.WriteCSR(src, "g", g); err != nil {
		t.Fatal(err)
	}
	dst := src + ".oriented"
	if _, err := orient.Orient(src, dst, 2); err != nil {
		t.Fatal(err)
	}
	d, err := graph.Open(dst)
	if err != nil {
		t.Fatal(err)
	}
	return d, want
}

// TestRunnerReuseAcrossRanges drives one Runner over many consecutive
// subranges — the work-stealing access pattern — and checks (a) the union
// reproduces the full-range triangle count, (b) the per-call stats are
// per-chunk deltas, not cumulative, and (c) the window buffer is not
// reallocated between chunks.
func TestRunnerReuseAcrossRanges(t *testing.T) {
	d, want := runnerDisk(t)
	const mem = 96

	full, err := runOnce(d, Config{MemEdges: mem}, FullRange(d), nil)
	if err != nil {
		t.Fatal(err)
	}
	if full.Triangles != want {
		t.Fatalf("full run found %d triangles, want %d", full.Triangles, want)
	}

	r, err := NewRunner(d, Config{MemEdges: mem})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	total := d.Meta.AdjEntries
	const chunks = 7
	var sum Stats
	var edgSeen map[*graph.Vertex]bool
	for i := 0; i < chunks; i++ {
		rng := balance.Range{
			Lo: total * uint64(i) / chunks,
			Hi: total * uint64(i+1) / chunks,
		}
		st, err := r.RunRange(context.Background(), rng, nil)
		if err != nil {
			t.Fatalf("chunk %d: %v", i, err)
		}
		if st.EdgesLoaded != rng.Len() {
			t.Errorf("chunk %d loaded %d edges, want the per-chunk delta %d", i, st.EdgesLoaded, rng.Len())
		}
		sum = sum.Add(st)
		// The window buffer must be the same backing array every chunk —
		// the whole point of the reusable Runner.
		if cap(r.edg) > 0 {
			p := &r.edg[:1][0]
			if edgSeen == nil {
				edgSeen = map[*graph.Vertex]bool{p: true}
			} else if !edgSeen[p] {
				t.Errorf("chunk %d: window buffer was reallocated", i)
			}
		}
	}
	if sum.Triangles != want {
		t.Fatalf("chunked runs found %d triangles, want %d", sum.Triangles, want)
	}
	if sum.EdgesLoaded != total {
		t.Fatalf("chunked runs loaded %d edges, want %d", sum.EdgesLoaded, total)
	}
}

// TestRunnerEmptyRangeNoop: an empty (Lo == Hi) chunk — which weighted
// chunking can produce — must do nothing, not fall back to the whole file.
func TestRunnerEmptyRangeNoop(t *testing.T) {
	d, _ := runnerDisk(t)
	r, err := NewRunner(d, Config{MemEdges: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for _, lo := range []uint64{0, 5, d.Meta.AdjEntries} {
		st, err := r.RunRange(context.Background(), balance.Range{Lo: lo, Hi: lo}, nil)
		if err != nil {
			t.Fatalf("empty range at %d: %v", lo, err)
		}
		if st.Triangles != 0 || st.Passes != 0 || st.EdgesLoaded != 0 {
			t.Fatalf("empty range at %d did work: %+v", lo, st)
		}
	}
}

// TestRunnerPerChunkSinks: each RunRange call reports to its own sink, so
// chunk-indexed sinks stay correctly routed under reuse.
func TestRunnerPerChunkSinks(t *testing.T) {
	d, want := runnerDisk(t)
	r, err := NewRunner(d, Config{MemEdges: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	total := d.Meta.AdjEntries
	mid := total / 2
	var a, b CountSink
	st1, err := r.RunRange(context.Background(), balance.Range{Lo: 0, Hi: mid}, &a)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := r.RunRange(context.Background(), balance.Range{Lo: mid, Hi: total}, &b)
	if err != nil {
		t.Fatal(err)
	}
	if a.N != st1.Triangles || b.N != st2.Triangles {
		t.Fatalf("sink routing broken: sinks (%d,%d) vs stats (%d,%d)", a.N, b.N, st1.Triangles, st2.Triangles)
	}
	if a.N+b.N != want {
		t.Fatalf("sinks saw %d triangles, want %d", a.N+b.N, want)
	}
}
