package harness

import (
	"fmt"
	"math/rand"
	"time"

	"pdtl/internal/balance"
	"pdtl/internal/baseline"
	"pdtl/internal/core"
	"pdtl/internal/graph"
	"pdtl/internal/live"
)

// expChurn exercises the live-graph extension (DESIGN.md §11): a dataset
// is wrapped in a delta overlay and mutated in seeded batches while exact
// counts run over the merged view. Every count is verified against a
// from-scratch in-memory count of the same edge set, the streaming
// TRIÈST-FD estimate is checked in its exact regime, and a final
// compaction folds the delta into a fresh snapshot without changing the
// answer.
func expChurn(h *Harness, r *Report) error {
	const (
		key    = "rmat14"
		rounds = 5
		batch  = 400
	)
	ref, err := h.LoadCSR(key)
	if err != nil {
		return err
	}
	orientedBase, _, err := h.Oriented(key, 2)
	if err != nil {
		return err
	}
	mem, err := h.MemTight(key, 2)
	if err != nil {
		return err
	}
	lg, err := live.Open(orientedBase, live.Config{
		Dir:       h.cacheDir,
		Name:      fmt.Sprintf("%s.churn%d", key, scratchSeq.Add(1)),
		Workers:   2,
		MemEdges:  mem,
		Reservoir: 1 << 19,
		Seed:      42,
	})
	if err != nil {
		return err
	}
	defer lg.Close()

	// The reference edge set the batches mutate; counts over the overlay
	// are checked against a from-scratch count of exactly this set.
	type ekey struct{ u, v uint32 }
	canon := func(u, v uint32) ekey {
		if u > v {
			u, v = v, u
		}
		return ekey{u, v}
	}
	set := make(map[ekey]bool)
	for u := 0; u < ref.NumVertices(); u++ {
		for _, v := range ref.Neighbors(graph.Vertex(u)) {
			if uint32(u) < uint32(v) {
				set[ekey{uint32(u), uint32(v)}] = true
			}
		}
	}
	refCount := func() (uint64, error) {
		edges := make([]graph.Edge, 0, len(set))
		maxV := ref.NumVertices()
		for k := range set {
			edges = append(edges, graph.Edge{U: k.u, V: k.v})
			if int(k.v) >= maxV {
				maxV = int(k.v) + 1
			}
			if int(k.u) >= maxV {
				maxV = int(k.u) + 1
			}
		}
		g, err := graph.FromEdges(maxV, edges)
		if err != nil {
			return 0, err
		}
		return baseline.Forward(g), nil
	}

	rng := rand.New(rand.NewSource(42))
	maxV := uint32(ref.NumVertices() + 64) // a few vertices beyond the store
	rows := make([][]string, 0, rounds+1)
	for round := 1; round <= rounds; round++ {
		updates := make([]live.Update, 0, batch)
		for len(updates) < batch {
			u, v := rng.Uint32()%maxV, rng.Uint32()%maxV
			if u == v {
				continue
			}
			k := canon(u, v)
			if set[k] {
				if rng.Intn(3) == 0 {
					delete(set, k)
					updates = append(updates, live.Update{U: graph.Vertex(k.u), V: graph.Vertex(k.v), Del: true})
				}
				continue
			}
			set[k] = true
			updates = append(updates, live.Update{U: graph.Vertex(k.u), V: graph.Vertex(k.v)})
		}
		if err := lg.ApplyBatch(updates); err != nil {
			return fmt.Errorf("churn round %d: %w", round, err)
		}

		start := time.Now()
		res, _, err := lg.Count(h.ctx(), core.Options{
			Workers:  2,
			MemEdges: mem,
			Strategy: balance.InDegree,
		})
		if err != nil {
			return fmt.Errorf("churn round %d count: %w", round, err)
		}
		wall := time.Since(start)
		want, err := refCount()
		if err != nil {
			return err
		}
		if res.Triangles != want {
			return fmt.Errorf("churn round %d: live count %d != exact %d", round, res.Triangles, want)
		}
		st := lg.Stats()
		if !st.EstimateExact || uint64(st.Estimate) != want {
			return fmt.Errorf("churn round %d: streaming estimate %v (exact=%v) != %d",
				round, st.Estimate, st.EstimateExact, want)
		}
		rows = append(rows, []string{
			fmt.Sprintf("round %d", round),
			N(uint64(st.DeltaEdges)),
			N(res.Triangles),
			D(wall),
			"exact match",
		})
	}

	// Compaction folds the whole delta into a gen-1 snapshot; the count is
	// unchanged and the delta is empty.
	start := time.Now()
	if err := lg.CompactNow(h.ctx()); err != nil {
		return fmt.Errorf("churn compaction: %w", err)
	}
	compactWall := time.Since(start)
	res, _, err := lg.Count(h.ctx(), core.Options{Workers: 2, MemEdges: mem, Strategy: balance.InDegree})
	if err != nil {
		return err
	}
	want, err := refCount()
	if err != nil {
		return err
	}
	if res.Triangles != want {
		return fmt.Errorf("churn post-compact: live count %d != exact %d", res.Triangles, want)
	}
	st := lg.Stats()
	if st.Gen != 1 || st.DeltaEdges != 0 {
		return fmt.Errorf("churn post-compact: gen %d delta %d, want 1/0", st.Gen, st.DeltaEdges)
	}
	rows = append(rows, []string{
		fmt.Sprintf("after compaction (%s)", D(compactWall)),
		N(uint64(st.DeltaEdges)),
		N(res.Triangles),
		"-",
		"exact match, gen 1",
	})

	r.Table([]string{"Stage", "delta edges", "triangles", "count wall", "verified"}, rows)
	r.Note("extension of Section VI: LSM-style delta overlay — churn-safe exact queries, streaming estimate, background compaction (DESIGN.md §11)")
	return nil
}
