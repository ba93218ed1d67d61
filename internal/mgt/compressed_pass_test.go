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
// compressed store, under both cone routines, and requires the identical
// triangle stream: same triangles, same order. Memory budgets cover the
// all-large-vertex regime (16), a mid window mix (97), and the single-window
// case (100000).
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

	type tri struct{ u, v, w graph.Vertex }
	run := func(d *graph.Disk, k KernelKind, mem int) ([]tri, Stats) {
		var out []tri
		st, err := runOnce(d, Config{MemEdges: mem, Kernel: k}, FullRange(d), FuncSink(func(u, v, w graph.Vertex) { out = append(out, tri{u, v, w}) }))
		if err != nil {
			t.Fatal(err)
		}
		return out, st
	}
	for _, mem := range []int{16, 97, 100000} {
		want, _ := run(od, KernelMerge, mem)
		if len(want) == 0 {
			t.Fatalf("mem=%d: reference run found no triangles", mem)
		}
		for _, k := range []KernelKind{KernelAuto, KernelMerge} {
			got, st := run(cd, k, mem)
			if len(got) != len(want) {
				t.Fatalf("mem=%d kernel=%s: %d triangles, want %d", mem, k, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("mem=%d kernel=%s: triangle %d = %v, want %v", mem, k, i, got[i], want[i])
				}
			}
			// Once there are several windows, the pass rejects out-of-window
			// lists on their headers.
			if mem < 100000 && st.SegmentsSkipped == 0 {
				t.Errorf("mem=%d kernel=%s: pass never skipped a segment", mem, k)
			}
		}
	}
}
