package mgt

import (
	"context"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"pdtl/internal/balance"
	"pdtl/internal/gen"
	"pdtl/internal/graph"
	"pdtl/internal/ioacct"
	"pdtl/internal/orient"
	"pdtl/internal/scan"
)

// compressedStore orients g into a compressed store.
func compressedStore(t testing.TB, g *graph.CSR) *graph.Disk {
	t.Helper()
	dir := t.TempDir()
	src := filepath.Join(dir, "g")
	if err := graph.WriteCSR(src, "test", g); err != nil {
		t.Fatal(err)
	}
	dst := filepath.Join(dir, "g.oriented")
	if _, err := orient.OrientFormat(src, dst, 2, graph.FormatCompressed); err != nil {
		t.Fatal(err)
	}
	d, err := graph.Open(dst)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// spyHandle watches which view of a compressed scan a runner consumes and,
// with decodedOnly set, hides the encoded view — which is how the decoding
// pass is reached on a compressed store now that the pruned one is the
// default.
type spyHandle struct {
	scan.Handle
	decodedOnly    bool
	lists, encoded int
}

type spyScan struct {
	scan.Scan
	h *spyHandle
}

type spyCompressedScan struct{ spyScan }

func (h *spyHandle) Scan(maxList int) (scan.Scan, error) {
	sc, err := h.Handle.Scan(maxList)
	if err != nil {
		return nil, err
	}
	if h.decodedOnly {
		return spyScan{sc, h}, nil
	}
	return spyCompressedScan{spyScan{sc, h}}, nil
}

func (s spyScan) Next() (graph.Vertex, []graph.Vertex, bool) {
	s.h.lists++
	return s.Scan.Next()
}

func (s spyCompressedScan) NextCompressed() (graph.Vertex, graph.CompressedList, bool) {
	s.h.encoded++
	return s.Scan.(scan.CompressedScan).NextCompressed()
}

// openSpy opens a runner on d whose scans go through a spyHandle.
func openSpy(t *testing.T, d *graph.Disk, mem int, decodedOnly bool) (*Runner, *spyHandle) {
	t.Helper()
	src, err := scan.New(scan.SourceBuffered, d, scan.Config{})
	if err != nil {
		t.Fatal(err)
	}
	h, err := src.Handle(ioacct.NewCounter(0))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.Close(); src.Close() })
	spy := &spyHandle{Handle: h, decodedOnly: decodedOnly}
	r, err := NewRunner(d, Config{MemEdges: mem, Source: spy})
	if err != nil {
		t.Fatal(err)
	}
	return r, spy
}

// TestPrunedPassMatchesDecodingPass: on a compressed store the default
// kernels take the header-pruned pass, and every runner of a multi-window
// run emits through it exactly the triangle sequence the decoding pass
// emits — same triangles, same order — with the same comparisons. Window
// sizes cover many small windows, the large-vertex path (M below the
// maximum out-degree) and the single window.
func TestPrunedPassMatchesDecodingPass(t *testing.T) {
	g, err := gen.PowerLaw(1500, 15000, 1.9, 9)
	if err != nil {
		t.Fatal(err)
	}
	d := compressedStore(t, g)
	total := d.Meta.AdjEntries
	type tri [3]graph.Vertex
	for _, mem := range []int{int(d.Meta.MaxOutDegree) / 2, int(total) / 40, int(total)} {
		pruned, pspy := openSpy(t, d, mem, false)
		decoding, dspy := openSpy(t, d, mem, true)
		for i, rng := range []balance.Range{{Lo: 0, Hi: total / 5}, {Lo: total / 5, Hi: total / 2}, {Lo: total / 2, Hi: total}} {
			var got, want []tri
			gst, err := pruned.RunRange(context.Background(), rng, FuncSink(func(u, v, w graph.Vertex) { got = append(got, tri{u, v, w}) }))
			if err != nil {
				t.Fatal(err)
			}
			wst, err := decoding.RunRange(context.Background(), rng, FuncSink(func(u, v, w graph.Vertex) { want = append(want, tri{u, v, w}) }))
			if err != nil {
				t.Fatal(err)
			}
			if len(want) == 0 {
				t.Fatalf("mem=%d runner %d: decoding pass found no triangles", mem, i)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("mem=%d runner %d: pruned pass emitted %d triangles, decoding pass %d, or in another order", mem, i, len(got), len(want))
			}
			if gst.CmpOps != wst.CmpOps || gst.Intersections != wst.Intersections || gst.Passes != wst.Passes || gst.LargeVertices != wst.LargeVertices {
				t.Errorf("mem=%d runner %d: pruned pass stats %+v, decoding pass %+v", mem, i, gst, wst)
			}
		}
		if pspy.encoded == 0 || pspy.lists != 0 {
			t.Errorf("mem=%d: default runner read %d encoded and %d decoded lists; it should take the pruned pass", mem, pspy.encoded, pspy.lists)
		}
		if dspy.encoded != 0 || dspy.lists == 0 {
			t.Errorf("mem=%d: reference runner read %d encoded and %d decoded lists; it should take the decoding pass", mem, dspy.encoded, dspy.lists)
		}
	}
}

// TestPrunedPassReportsCorruptHeader: a list the window cannot reach is
// rejected on its headers, never decoded — but a damaged header among them
// must still fail the run, not pass for "out of range".
func TestPrunedPassReportsCorruptHeader(t *testing.T) {
	g, err := gen.PowerLaw(1500, 15000, 1.9, 9)
	if err != nil {
		t.Fatal(err)
	}
	d := compressedStore(t, g)
	mem := int(d.Meta.AdjEntries) / 40
	first := balance.Range{Lo: 0, Hi: uint64(mem)}
	vhigh := d.VertexAt(first.Hi - 1)

	// A list of at least two entries that lies wholly beyond the first
	// window's vertex span: the pruned pass skips it there.
	sc, err := d.NewScanner(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	victim := -1
	for {
		u, list, ok := sc.Next()
		if !ok {
			break
		}
		if len(list) >= 2 && list[0] > vhigh {
			victim = int(u)
			break
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	sc.Close()
	if victim < 0 {
		t.Fatal("no list lies beyond the first window")
	}
	if st, err := runOnce(d, Config{MemEdges: mem}, first, nil); err != nil || st.Passes != 1 {
		t.Fatalf("intact store: %d passes, err %v", st.Passes, err)
	}

	// Break the kind byte of the victim's first segment header.
	const dataStart = 4 // the .cadj magic
	f, err := os.OpenFile(graph.CAdjPath(d.Base), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xff}, dataStart+int64(d.ByteOffs[victim])); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := runOnce(d, Config{MemEdges: mem}, first, nil); err == nil {
		t.Fatalf("the damaged header of vertex %d's list was skipped as out of the window", victim)
	}
}
