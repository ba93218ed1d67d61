// Quickstart: generate a scale-free graph, open a reusable pdtl.Graph
// handle, count its triangles, rerun against the cached preprocessing,
// stream triangles through the iterator — stopping early without leaking
// the workers behind it — and mutate the graph live through a delta
// overlay with a background-compactable snapshot.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"pdtl"
)

func main() {
	dir, err := os.MkdirTemp("", "pdtl-quickstart-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	base := filepath.Join(dir, "rmat")
	ctx := context.Background()

	// 1. Create a graph store: an RMAT graph with 2^12 vertices and
	//    16·2^12 edge samples (the paper's synthetic family).
	info, err := pdtl.GenerateRMAT(base, 12, 16, 42)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph: %d vertices, %d edges, max degree %d\n",
		info.NumVertices, info.NumEdges, info.MaxDegree)

	// 2. Open a handle. The store's metadata and degree index are read
	//    once, here; orientation and load-balance planning happen on the
	//    first run and are cached for the handle's lifetime.
	g, err := pdtl.Open(base)
	if err != nil {
		log.Fatal(err)
	}
	defer g.Close()

	// 3. Count triangles. PDTL orients the graph by the degree-based
	//    order, load-balances contiguous edge ranges across workers, and
	//    runs one external-memory MGT runner per worker. MemEdges is the
	//    per-worker memory budget M in 4-byte adjacency entries —
	//    correctness never depends on it, only the number of passes.
	res, err := g.Count(ctx, pdtl.Options{Workers: 4, MemEdges: 1 << 16})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("triangles: %d\n", res.Triangles)
	fmt.Printf("orientation %v + calculation %v = total %v (d*max = %d)\n",
		res.OrientTime, res.CalcTime, res.TotalTime, res.MaxOutDegree)
	for _, w := range res.Workers {
		fmt.Printf("  worker %d: edges [%d,%d) -> %d triangles in %d pass(es), cpu %v, io %v\n",
			w.Worker, w.EdgeLo, w.EdgeHi, w.Triangles, w.Passes, w.CPUTime, w.IOTime)
	}

	// 4. Rerun on the same handle — e.g. with a tiny memory budget to see
	//    the pass count grow while the answer stays exact. The cached
	//    orientation and degree index are reused: no preprocessing, no
	//    re-reads, OrientTime is zero.
	tight, err := g.Count(ctx, pdtl.Options{Workers: 4, MemEdges: 4096})
	if err != nil {
		log.Fatal(err)
	}
	passes := 0
	for _, w := range tight.Workers {
		passes += w.Passes
	}
	fmt.Printf("rerun with M=4096 entries/worker: %d triangles across %d passes (same count: %v, orientation reused: %v)\n",
		tight.Triangles, passes, tight.Triangles == res.Triangles, tight.OrientTime == 0)

	// 5. Run on the compressed store format. StoreFormat "compressed"
	//    builds (and caches, independently of the plain one) an oriented
	//    store of delta-varint/bitmap segments — typically 2×+ smaller per
	//    edge on skewed graphs — and the runs skip a list whose segment
	//    headers say it cannot reach the window without decoding it. Same
	//    graph, same count, byte-identical listing order.
	//    (`pdtl-gen -format compressed` writes input stores in this
	//    encoding directly; `pdtl.Open` auto-detects it.)
	comp, err := g.Count(ctx, pdtl.Options{
		Workers: 4, MemEdges: 1 << 16,
		StoreFormat: "compressed",
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compressed store rerun: %d triangles (same count: %v)\n",
		comp.Triangles, comp.Triangles == res.Triangles)

	// 6. Stream triangles with the iterator. Breaking out of the loop
	//    cancels the run: the workers stop at their next memory window and
	//    everything is torn down before the loop statement completes.
	seq, done := g.Triangles(ctx, pdtl.Options{Workers: 2, MemEdges: 1 << 14})
	shown := 0
	for t := range seq {
		fmt.Printf("  triangle %v\n", t)
		shown++
		if shown == 5 {
			break // tears the runners down; not an error
		}
	}
	// A broken-off run is not an error, and has no Result: only a run
	// iterated to the end reports one.
	if _, err := done(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("stopped after %d of %d triangles — early break cancels the run\n", shown, res.Triangles)

	// 7. Contexts cancel runs the same way: a deadline or Ctrl-C style
	//    cancellation makes the run return ctx.Err() promptly.
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := g.Count(cancelled, pdtl.Options{Workers: 2}); err != nil {
		fmt.Printf("cancelled run returns: %v\n", err)
	}

	// 8. Live updates: wrap the store in a delta overlay (DESIGN.md §11).
	//    Mutation batches are absorbed in memory — new vertices included —
	//    while exact counts run over base ⊕ delta through the same engine.
	//    Compact folds the delta into a fresh on-disk snapshot (atomic swap,
	//    queries never blocked) without changing the answer.
	lg, err := pdtl.OpenLive(ctx, base, pdtl.LiveOptions{Dir: dir})
	if err != nil {
		log.Fatal(err)
	}
	defer lg.Close()
	n := uint32(info.NumVertices)
	if err := lg.Apply([]pdtl.LiveUpdate{
		{U: n, V: n + 1}, {U: n + 1, V: n + 2}, {U: n, V: n + 2}, // a triangle of brand-new vertices
	}); err != nil {
		log.Fatal(err)
	}
	liveRes, err := lg.Count(ctx, pdtl.Options{Workers: 2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("live count after inserting a triangle: %d (+%d)\n",
		liveRes.Triangles, liveRes.Triangles-res.Triangles)
	if err := lg.Compact(ctx); err != nil {
		log.Fatal(err)
	}
	compacted, err := lg.Count(ctx, pdtl.Options{Workers: 2})
	if err != nil {
		log.Fatal(err)
	}
	st := lg.Stats()
	fmt.Printf("after compaction: %d triangles (unchanged: %v), snapshot gen %d, delta edges %d\n",
		compacted.Triangles, compacted.Triangles == liveRes.Triangles, st.Gen, st.DeltaEdges)
}
