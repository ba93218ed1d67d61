package mgt

import (
	"path/filepath"
	"testing"

	"pdtl/internal/gen"
	"pdtl/internal/graph"
	"pdtl/internal/orient"
)

// TestCompressedPassMatchesPlain runs the same oriented graph through the
// decoded pass on the plain store and through the header-pruned pass on the
// compressed store, and requires of both the triangle stream the order's
// definition gives (windowOrder): same triangles, same order. Memory budgets
// cover the all-large-vertex regime (16), a mid window mix (97), and the
// single-window case (100000).
func TestCompressedPassMatchesPlain(t *testing.T) {
	g, err := gen.PowerLaw(600, 6000, 1.9, 42)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	src := filepath.Join(dir, "g")
	if err := graph.WriteCSR(src, "test", g); err != nil {
		t.Fatal(err)
	}
	dst := filepath.Join(dir, "g.oriented")
	if _, err := orient.Orient(src, dst, 2); err != nil {
		t.Fatal(err)
	}
	od, err := graph.Open(dst)
	if err != nil {
		t.Fatal(err)
	}
	cbase := filepath.Join(dir, "g.oc")
	if err := graph.ConvertStore(dst, cbase, graph.FormatCompressed); err != nil {
		t.Fatal(err)
	}
	cd, err := graph.Open(cbase)
	if err != nil {
		t.Fatal(err)
	}

	csr, err := od.LoadCSR()
	if err != nil {
		t.Fatal(err)
	}
	run := func(d *graph.Disk, mem int) ([]triple, Stats) {
		var out []triple
		st, err := runOnce(d, Config{MemEdges: mem}, FullRange(d), FuncSink(func(u, v, w graph.Vertex) { out = append(out, triple{u, v, w}) }))
		if err != nil {
			t.Fatal(err)
		}
		return out, st
	}
	for _, mem := range []int{16, 97, 100000} {
		want, _ := windowOrder(csr, FullRange(od), mem, od.Meta.Ranked)
		if len(want) == 0 {
			t.Fatalf("mem=%d: the definition lists no triangles", mem)
		}
		for _, d := range []*graph.Disk{od, cd} {
			got, st := run(d, mem)
			if len(got) != len(want) {
				t.Fatalf("mem=%d %s: %d triangles, want %d", mem, d.Format(), len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("mem=%d %s: triangle %d = %v, want %v", mem, d.Format(), i, got[i], want[i])
				}
			}
			// Once there are several windows, the compressed pass rejects
			// out-of-window lists on their headers.
			if d == cd && mem < 100000 && st.SegmentsSkipped == 0 {
				t.Errorf("mem=%d: pass never skipped a segment", mem)
			}
		}
	}
}
