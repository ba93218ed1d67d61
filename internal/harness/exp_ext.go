package harness

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"pdtl/internal/approx"
	"pdtl/internal/balance"
	"pdtl/internal/baseline"
	"pdtl/internal/core"
	"pdtl/internal/dynamic"
	"pdtl/internal/gen"
	"pdtl/internal/graph"
	"pdtl/internal/obs"
	"pdtl/internal/orient"
)

// expLBAblation is the load-balancer ablation called for by the paper's
// future work ("more detailed investigations could try different
// techniques of load balancing", Section VI): naive equal edges vs the
// paper's in-degree weights vs the exact-cost model.
func expLBAblation(h *Harness, r *Report) error {
	keys := []string{"twitter-sim", "yahoo-sim", "rmat14"}
	const workers = 4
	rows := make([][]string, 0, len(keys))
	for _, key := range keys {
		mem, err := h.MemFull(key, 1) // ample memory isolates balance quality
		if err != nil {
			return err
		}
		row := []string{key}
		var baselineWork uint64
		for _, s := range []balance.Strategy{balance.Naive, balance.InDegree, balance.Cost} {
			res, err := h.CalcLocalSplit(key, workers, mem, s)
			if err != nil {
				return err
			}
			straggler := MaxWorkerWork(res.Workers)
			if s == balance.Naive {
				baselineWork = straggler
				row = append(row, N(straggler))
			} else {
				row = append(row, fmt.Sprintf("%s (%.2fx)", N(straggler),
					float64(baselineWork)/float64(straggler)))
			}
		}
		rows = append(rows, row)
	}
	r.Table([]string{"Graph", "naive straggler", "indegree (gain)", "cost (gain)"}, rows)
	r.Note("straggler = max per-worker work at %d processors; gain vs naive", 4)
	return nil
}

// expLBOutOfCore is the load-balancer ablation in the out-of-core regime:
// two runners, windows of 1/48 of the store, on the sparse power-law
// instance shaped like the benchmark's count-ooc input. It
// compares the equal-edge split, the paper's in-degree weights as they
// were — blind to the window — and the same weights with the scan an edge
// causes priced in (balance.PlanStore for the run's M), by passes per
// runner, scan rounds (the runners' windows summed), and the best wall of
// three runs.
func expLBOutOfCore(h *Harness, r *Report) error {
	const key, workers, windows = "ooc-sim", 2, 48
	base, ores, err := h.Oriented(key, 2)
	if err != nil {
		return err
	}
	d, err := graph.Open(base)
	if err != nil {
		return err
	}
	mem := int((d.Meta.AdjEntries + windows - 1) / windows)
	plans := []struct {
		name     string
		strategy balance.Strategy
		mem      int
	}{
		{"naive (equal edges)", balance.Naive, mem},
		{"in-degree, window-blind (paper)", balance.InDegree, 0},
		{"in-degree, window-aware", balance.InDegree, mem},
	}
	source := h.SplitScan() // see CalcLocalSplit
	var rows [][]string
	var want uint64
	for _, p := range plans {
		plan, err := balance.PlanStore(d, ores.InDegrees, workers, p.strategy, p.mem)
		if err != nil {
			return err
		}
		var best time.Duration
		var stats []core.WorkerStat
		var tr *obs.Trace
		for rep := 0; rep < 3; rep++ {
			tr = obs.NewTrace(0)
			ctx := obs.ContextWithCursor(h.ctx(), obs.Cursor{T: tr, Span: obs.NoSpan, Worker: -1})
			start := time.Now()
			calc, err := core.RunRanges(ctx, d, plan.Ranges, core.Options{
				Workers: workers, MemEdges: mem, Scan: source, Kernel: h.Kernel,
			})
			if err != nil {
				return err
			}
			if wall := time.Since(start); rep == 0 || wall < best {
				best, stats = wall, calc.Workers
			}
		}
		// The same plan forms the same rounds every time.
		rounds := 0
		for _, sp := range tr.Spans() {
			if sp.Name == obs.SpanScanRound {
				rounds++
			}
		}
		var triangles uint64
		passes := make([]string, len(stats))
		for i, w := range stats {
			triangles += w.Stats.Triangles
			passes[i] = fmt.Sprint(w.Stats.Passes)
		}
		if want == 0 {
			want = triangles
		} else if triangles != want {
			return fmt.Errorf("lb-ooc: %s counted %d triangles, %d under the first plan", p.name, triangles, want)
		}
		rows = append(rows, []string{p.name, strings.Join(passes, " + "), fmt.Sprint(rounds), D(best)})
	}
	r.Table([]string{"Plan", "passes per runner", "scan rounds", "wall"}, rows)
	r.Note("%s, %s store, P = %d, M = |E*|/%d = %d entries, -scan %s; scan rounds are the runners' window loads summed, one per pass",
		key, d.Format(), workers, windows, mem, source)
	return nil
}

// expSmallDegree demonstrates the removal of the small-degree assumption
// (the paper's footnote 1): budgets far below d*max stay exact, with the
// large-vertex path's extra I/O visible and bounded. It uses a dedicated
// small RMAT instance because the sweep's I/O volume grows as |E|²/M.
func expSmallDegree(h *Harness, r *Report) error {
	g, err := gen.RMAT(10, 16, 105)
	if err != nil {
		return err
	}
	base := filepath.Join(h.CacheDir(), fmt.Sprintf("smalldeg.%d", os.Getpid()))
	if err := graph.WriteCSR(base, "smalldeg", g); err != nil {
		return err
	}
	oriented := base + ".oriented"
	ores, err := orient.Orient(base, oriented, 2)
	if err != nil {
		return err
	}
	dmax := int(ores.MaxOutDegree)

	var exact uint64
	rows := make([][]string, 0, 4)
	for _, m := range []int{4 * dmax, dmax + 1, dmax / 2, dmax / 4} {
		res, err := core.Process(h.ctx(), oriented, core.Options{Workers: 2, MemEdges: m, Strategy: balance.InDegree})
		if err != nil {
			return err
		}
		if exact == 0 {
			exact = res.Triangles
		} else if res.Triangles != exact {
			return fmt.Errorf("smalldeg: count changed under M=%d: %d vs %d", m, res.Triangles, exact)
		}
		var large uint64
		var passes int
		var bytesRead int64
		for _, w := range res.Workers {
			large += w.Stats.LargeVertices
			passes += w.Stats.Passes
			bytesRead += w.Stats.IO.BytesRead
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d (%.2f·d*max)", m, float64(m)/float64(dmax)),
			N(res.Triangles), fmt.Sprintf("%d", passes), N(large), Bytes(bytesRead),
		})
	}
	r.Table([]string{"M entries/worker", "triangles", "passes", "large-vertex cones", "bytes read"}, rows)
	r.Note("RMAT scale 10, d*max = %d; counts identical at every budget — the assumption is advisory only", dmax)
	return nil
}

// expApprox evaluates the approximate-counting extension (Section VI
// future work): Doulion sparsification and wedge sampling against the
// exact PDTL count.
func expApprox(h *Harness, r *Report) error {
	keys := []string{"twitter-sim", "rmat14"}
	rows := make([][]string, 0, len(keys))
	for _, key := range keys {
		g, err := h.LoadCSR(key)
		if err != nil {
			return err
		}
		mem, err := h.MemFull(key, 2)
		if err != nil {
			return err
		}
		res, err := h.CalcLocal(key, 2, mem, balance.InDegree)
		if err != nil {
			return err
		}
		exact := res.Triangles
		dEst, kept, err := approx.Doulion(g, 0.25, 11)
		if err != nil {
			return err
		}
		wEst, err := approx.WedgeSample(g, 100_000, 11)
		if err != nil {
			return err
		}
		rows = append(rows, []string{
			key, N(exact),
			fmt.Sprintf("%.3g (%.1f%% err, %d%% edges)", dEst, 100*approx.RelativeError(dEst, exact),
				100*kept/g.NumEdges()),
			fmt.Sprintf("%.3g (%.1f%% err)", wEst, 100*approx.RelativeError(wEst, exact)),
		})
	}
	r.Table([]string{"Graph", "exact", "Doulion p=0.25", "wedge 100k samples"}, rows)
	r.Note("extension of Section VI: approximate counting on the same substrate")
	return nil
}

// expDynamic evaluates the dynamic-counting extension: stream a dataset's
// edges into the incremental counter, delete a slice, and verify against
// from-scratch exact counts.
func expDynamic(h *Harness, r *Report) error {
	const key = "rmat14"
	g, err := h.LoadCSR(key)
	if err != nil {
		return err
	}
	edges := g.Edges()
	c := dynamic.New()
	for _, e := range edges {
		if _, err := c.Insert(e.U, e.V); err != nil {
			return err
		}
	}
	full := c.Triangles()
	want := baseline.Forward(g)
	if full != want {
		return fmt.Errorf("dynamic: %d != exact %d after inserts", full, want)
	}
	// Delete 10% of edges and verify against a rebuilt static graph.
	cut := len(edges) / 10
	for _, e := range edges[:cut] {
		if _, err := c.Delete(e.U, e.V); err != nil {
			return err
		}
	}
	rest, err := graph.FromEdges(g.NumVertices(), edges[cut:])
	if err != nil {
		return err
	}
	after := baseline.Forward(rest)
	if c.Triangles() != after {
		return fmt.Errorf("dynamic: %d != exact %d after deletes", c.Triangles(), after)
	}
	r.Table([]string{"Stage", "edges", "triangles", "verified"}, [][]string{
		{"after streaming inserts", N(uint64(len(edges))), N(full), "exact match"},
		{fmt.Sprintf("after deleting %s edges", N(uint64(cut))), N(c.Edges()), N(c.Triangles()), "exact match"},
	})
	r.Note("extension of Section VI: exact dynamic counting, O(d(u)+d(v)) per update")
	return nil
}
