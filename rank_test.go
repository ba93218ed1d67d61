package pdtl

import (
	"bytes"
	"context"
	"encoding/binary"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"pdtl/internal/baseline"
	"pdtl/internal/gen"
	"pdtl/internal/graph"
	"pdtl/internal/mgt"
)

// sortedSet sorts each triple's vertices, then the triples: a listing as a
// set.
func sortedSet(ts [][3]uint32) [][3]uint32 {
	out := slices.Clone(ts)
	for i := range out {
		slices.Sort(out[i][:])
	}
	slices.SortFunc(out, func(a, b [3]uint32) int { return slices.Compare(a[:], b[:]) })
	return out
}

// TestRankedRunsHandOutOriginalIDs: the oriented store is in rank space,
// and every way a run hands out vertex ids — List, Triangles,
// TriangleDegrees — names the vertices by the ids of the input, on either
// layout and format.
func TestRankedRunsHandOutOriginalIDs(t *testing.T) {
	g, err := gen.PowerLaw(600, 6000, 1.9, 4)
	if err != nil {
		t.Fatal(err)
	}
	var want [][3]uint32
	baseline.ForwardList(g, func(u, v, w graph.Vertex) { want = append(want, [3]uint32{u, v, w}) })
	want = sortedSet(want)
	wantDeg := make([]uint64, g.NumVertices())
	for _, tri := range want {
		for _, v := range tri {
			wantDeg[v]++
		}
	}
	h := openStore(t, tempStore(t, g, "pl"))
	ctx := context.Background()
	for _, opt := range []Options{
		{Workers: 3, MemEdges: 500},
		{Workers: 2, MemEdges: 700, ScanSource: "buffered", StoreFormat: "compressed"},
	} {
		var out bytes.Buffer
		if _, err := h.List(ctx, &out, opt); err != nil {
			t.Fatal(err)
		}
		listed, err := mgt.ReadTriangles(&out)
		if err != nil {
			t.Fatal(err)
		}
		var iterated [][3]uint32
		seq, done := h.Triangles(ctx, opt)
		for tri := range seq {
			iterated = append(iterated, tri)
		}
		if _, err := done(); err != nil {
			t.Fatal(err)
		}
		for name, got := range map[string][][3]uint32{"List": listed, "Triangles": iterated} {
			if !slices.Equal(sortedSet(got), want) {
				t.Errorf("%+v: %s gave %d triangles, not the input's %d in its own ids", opt, name, len(got), len(want))
			}
		}
		deg, _, err := h.TriangleDegrees(ctx, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(deg, wantDeg) {
			t.Errorf("%+v: TriangleDegrees is not indexed by the input's ids", opt)
		}
	}
	info, err := Info(h.OrientedBase())
	if err != nil || !info.Ranked {
		t.Errorf("the oriented store is not ranked: %+v, %v", info, err)
	}
}

// TestPermIntegrity: a ranked store whose .perm is damaged or missing still
// counts — a count never reads it — but a run that would hand out ids fails
// with an error naming the file, and never writes a listing in the wrong
// ids.
func TestPermIntegrity(t *testing.T) {
	g, err := gen.ErdosRenyi(100, 600, 2)
	if err != nil {
		t.Fatal(err)
	}
	src := openStore(t, tempStore(t, g, "er"))
	if _, err := src.Count(context.Background(), Options{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(graph.PermPath(src.OrientedBase()))
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	put := func(b []byte, x int, v uint32) []byte {
		b = slices.Clone(b)
		binary.LittleEndian.PutUint32(b[4*x:], v)
		return b
	}
	for _, tc := range []struct {
		name string
		perm []byte // nil: no .perm at all
		want string
	}{
		{"truncated", good[:len(good)-3], "bytes"},
		{"duplicate id", put(good, 1, binary.LittleEndian.Uint32(good)), "twice"},
		{"id beyond n", put(good, 7, uint32(n)), "not a vertex"},
		{"missing", nil, "no such file"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			base := filepath.Join(dir, "g")
			for _, ext := range []string{".meta", ".deg", ".adj", ".indeg"} {
				b, err := os.ReadFile(src.OrientedBase() + ext)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(base+ext, b, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if tc.perm != nil {
				if err := os.WriteFile(graph.PermPath(base), tc.perm, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			h := openStore(t, base)
			res, err := h.Count(context.Background(), Options{Workers: 2})
			if err != nil || res.Triangles != baseline.Forward(g) {
				t.Fatalf("count: %v, %v", res, err)
			}
			out := filepath.Join(dir, "list.bin")
			_, err = h.ListFile(context.Background(), out, Options{Workers: 2})
			if err == nil || !strings.Contains(err.Error(), graph.PermPath(base)) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("listing with a %s .perm: %v; want an error naming %s (%q)", tc.name, err, graph.PermPath(base), tc.want)
			}
			if _, err := os.Stat(out); !os.IsNotExist(err) {
				t.Errorf("a listing was written: %v", err)
			}
			seq, done := h.Triangles(context.Background(), Options{Workers: 2})
			for range seq {
				t.Fatal("Triangles yielded a triangle without a valid .perm")
			}
			if _, err := done(); err == nil {
				t.Error("Triangles ran without a valid .perm")
			}
		})
	}
}
