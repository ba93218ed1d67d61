package mgt

import (
	"testing"

	"pdtl/internal/balance"
	"pdtl/internal/baseline"
	"pdtl/internal/gen"
)

// TestLargePathWithRangeSplit exercises the large-vertex path together
// with PDTL's contiguous range splitting: budgets far below d*max across
// several pivot ranges must still partition the triangles exactly.
func TestLargePathWithRangeSplit(t *testing.T) {
	g, err := gen.PowerLaw(1<<10, (1<<10)*24, 1.9, 103)
	if err != nil {
		t.Fatal(err)
	}
	d := orientedStore(t, g)
	if d.Meta.MaxOutDegree < 16 {
		t.Skipf("d*max=%d too small", d.Meta.MaxOutDegree)
	}
	m := int(d.Meta.MaxOutDegree) / 4
	total := d.Meta.AdjEntries
	cuts := []uint64{0, total / 3, 2 * total / 3, total}
	var sum uint64
	var large uint64
	for i := 0; i+1 < len(cuts); i++ {
		st, err := runOnce(d, Config{MemEdges: m}, balance.Range{Lo: cuts[i], Hi: cuts[i+1]}, nil)
		if err != nil {
			t.Fatalf("range %d: %v", i, err)
		}
		sum += st.Triangles
		large += st.LargeVertices
	}
	if want := baseline.Forward(g); sum != want {
		t.Fatalf("sum = %d, want %d", sum, want)
	}
	if large == 0 {
		t.Error("expected the large-vertex path to fire with M = d*max/4")
	}
}
