package live

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"pdtl/internal/core"
	"pdtl/internal/gen"
	"pdtl/internal/graph"
)

// BenchmarkLiveCount measures an exact count over a churned live view — a
// power-law graph with inserts (new vertices among them) and deletes of
// base edges pending in its delta — at P = 1, 2 and 4 runners, each with a
// budget of |E*|/8 entries, so every count takes more than one round.
func BenchmarkLiveCount(b *testing.B) {
	g0, err := gen.PowerLaw(20000, 200000, 2.1, 1)
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	lg, err := Open(writeOriented(b, dir, g0, graph.FormatPlain), Config{Dir: dir, Name: "bench"})
	if err != nil {
		b.Fatal(err)
	}
	defer lg.Close()
	ref := setFromCSR(g0)
	rng := rand.New(rand.NewSource(1))
	batch := randomBatch(rng, ref, 10000, 22000)
	for u := range g0.NumVertices() {
		for _, v := range g0.Neighbors(graph.Vertex(u)) {
			if graph.Vertex(u) < v && ref[canon(graph.Vertex(u), v)] && rng.Intn(20) == 0 {
				batch = append(batch, Update{U: graph.Vertex(u), V: v, Del: true})
				delete(ref, canon(graph.Vertex(u), v))
			}
		}
	}
	if err := lg.ApplyBatch(batch); err != nil {
		b.Fatal(err)
	}
	m, err := lg.currentView().merged()
	if err != nil {
		b.Fatal(err)
	}
	mem := int(m.disk.Meta.AdjEntries / 8)
	for _, p := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			var res *core.Result
			for b.Loop() {
				if res, err = lg.Count(context.Background(), core.Options{Workers: p, MemEdges: mem}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Triangles), "triangles")
		})
	}
}
