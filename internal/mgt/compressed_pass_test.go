package mgt

import (
	"context"
	"path/filepath"
	"testing"

	"pdtl/internal/gen"
	"pdtl/internal/graph"
	"pdtl/internal/orient"
	"pdtl/internal/scan"
)

// TestCompressedPassMatchesPlain runs the same oriented graph through the
// decoded pass on the plain store and through every kernel on the
// compressed store — including the direct-on-compressed block-skipping
// pass — and requires the identical triangle stream: same triangles, same
// order. Memory budgets cover the all-large-vertex regime (16), a mid
// window mix (97), and the single-window case (100000).
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
	run := func(d *graph.Disk, k scan.Kernel, mem int) ([]tri, Stats) {
		var out []tri
		st, err := Run(context.Background(), d, Config{
			MemEdges: mem,
			Kernel:   k,
			Sink:     FuncSink(func(u, v, w graph.Vertex) { out = append(out, tri{u, v, w}) }),
		})
		if err != nil {
			t.Fatal(err)
		}
		return out, st
	}
	for _, mem := range []int{16, 97, 100000} {
		want, _ := run(od, scan.Merge, mem)
		if len(want) == 0 {
			t.Fatalf("mem=%d: reference run found no triangles", mem)
		}
		for _, k := range []scan.Kernel{scan.Merge, scan.Gallop, scan.Adaptive, scan.Compressed, scan.Cover} {
			got, st := run(cd, k, mem)
			if len(got) != len(want) {
				t.Fatalf("mem=%d kernel=%s: %d triangles, want %d", mem, k.Kind(), len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("mem=%d kernel=%s: triangle %d = %v, want %v", mem, k.Kind(), i, got[i], want[i])
				}
			}
			// Every pass on a compressed store rejects on headers: the
			// block kernel per segment even inside one window, the others
			// per out-of-window list once there are several windows.
			if (k.Kind() == scan.KernelCompressed || mem < 100000) && st.SegmentsSkipped == 0 {
				t.Errorf("mem=%d kernel=%s: pass never skipped a segment", mem, k.Kind())
			}
		}
	}
}

// TestCompressedKernelStepBound pins the perf claim behind the
// block-skipping kernel: on a skewed power-law graph (the shape of the
// twitter-sim benchmark dataset) its comparison-step count is at or below
// the adaptive kernel's, because every segment rejected on its header alone
// removes up to 256 entries from the intersection without a single
// per-entry step.
func TestCompressedKernelStepBound(t *testing.T) {
	g, err := gen.PowerLaw(1<<12, (1<<12)*20, 1.9, 103)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	src := filepath.Join(dir, "g")
	if err := graph.WriteCSR(src, "test", g); err != nil {
		t.Fatal(err)
	}
	dst := filepath.Join(dir, "g.oriented")
	if _, err := orient.OrientFormat(src, dst, 2, graph.FormatCompressed); err != nil {
		t.Fatal(err)
	}
	cd, err := graph.Open(dst)
	if err != nil {
		t.Fatal(err)
	}
	run := func(k scan.Kernel) Stats {
		var sink CountSink
		st, err := Run(context.Background(), cd, Config{
			MemEdges: 1 << 12,
			Kernel:   k,
			Sink:     &sink,
		})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	adaptive := run(scan.Adaptive)
	compressed := run(scan.Compressed)
	if compressed.Triangles != adaptive.Triangles {
		t.Fatalf("kernels disagree: compressed %d, adaptive %d triangles",
			compressed.Triangles, adaptive.Triangles)
	}
	t.Logf("steps: adaptive %d, compressed %d (%.2fx), %d segments skipped",
		adaptive.CmpOps, compressed.CmpOps,
		float64(adaptive.CmpOps)/float64(compressed.CmpOps), compressed.SegmentsSkipped)
	if compressed.CmpOps > adaptive.CmpOps {
		t.Errorf("compressed kernel took %d steps, adaptive %d — block skipping must not cost steps",
			compressed.CmpOps, adaptive.CmpOps)
	}
	if compressed.SegmentsSkipped == 0 {
		t.Error("compressed kernel never skipped a segment on a skewed graph")
	}
}
