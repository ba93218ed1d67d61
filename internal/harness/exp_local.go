package harness

import (
	"fmt"

	"pdtl/internal/balance"
	"pdtl/internal/graph"
	"pdtl/internal/optlike"
	"pdtl/internal/powergraph"
)

// expTable1 reproduces Table I: the dataset inventory, with triangle counts
// produced by PDTL itself (the paper verified its counts against SNAP/OPT;
// ours are verified against the in-memory reference in the test suite).
func expTable1(h *Harness, r *Report) error {
	rows := make([][]string, 0, len(allKeys))
	for _, key := range allKeys {
		ds, err := dataset(key)
		if err != nil {
			return err
		}
		base, err := h.Store(key)
		if err != nil {
			return err
		}
		size, err := h.StoreBytes(key)
		if err != nil {
			return err
		}
		_ = base
		mem, err := h.MemFull(key, 2)
		if err != nil {
			return err
		}
		res, err := h.CalcLocal(key, 2, mem, balance.InDegree)
		if err != nil {
			return err
		}
		g, err := h.LoadCSR(key)
		if err != nil {
			return err
		}
		st := graph.Stats(g)
		rows = append(rows, []string{
			key, ds.Paper, N(uint64(st.NumVertices)), N(st.NumEdges), N(res.Triangles),
			Bytes(size), fmt.Sprintf("%.1f", st.AvgDegree), fmt.Sprintf("%.0f", st.StdDegree),
			N(uint64(st.MaxDegree)),
		})
	}
	r.Table([]string{"Graph", "StandsFor", "Nodes", "Edges", "Triangles", "Size", "AvDeg", "STD", "MaxDeg"}, rows)
	return nil
}

// expTable2 reproduces Table II: preprocessing cost of PDTL (orientation)
// vs PowerGraph (setup) vs OPT (database creation).
func expTable2(h *Harness, r *Report) error {
	rows := make([][]string, 0, len(cmpKeys))
	for _, key := range cmpKeys {
		_, ores, cleanup, err := h.OrientTimed(key, 2)
		if err != nil {
			return err
		}
		cleanup()

		g, err := h.LoadCSR(key)
		if err != nil {
			return err
		}
		pg, err := powergraph.Count(g, powergraph.Config{Machines: 4, Threads: 2})
		if err != nil {
			return err
		}
		base, err := h.Store(key)
		if err != nil {
			return err
		}
		db, err := optlike.BuildDB(base)
		if err != nil {
			return err
		}
		rows = append(rows, []string{
			key, N(uint64(ores.MaxOutDegree)), D(ores.Duration), D(pg.SetupTime), D(db.DBTime),
		})
	}
	r.Table([]string{"Graph", "d*max", "PDTL orient", "PowerGraph setup", "OPT database"}, rows)
	r.Note("paper: PDTL orientation is 8-75x faster than competing preprocessing")
	return nil
}

// expFig2 reproduces Figure 2: orientation time across core counts.
func expFig2(h *Harness, r *Report) error {
	header := []string{"Graph"}
	for _, c := range coreList {
		header = append(header, fmt.Sprintf("%d cores", c))
	}
	rows := make([][]string, 0, len(sweepKeys))
	for _, key := range sweepKeys {
		row := []string{key}
		for _, cores := range coreList {
			_, ores, cleanup, err := h.OrientTimed(key, cores)
			if err != nil {
				return err
			}
			cleanup()
			row = append(row, D(ores.Duration))
		}
		rows = append(rows, row)
	}
	r.Table(header, rows)
	r.Note("paper: 5.2x speedup at 24 cores, capped by SSD bandwidth at 16 threads")
	return nil
}

// expFig3 reproduces Figure 3: local multicore total time with constant
// total memory (weak scaling): M_per_worker = M_total / cores.
func expFig3(h *Harness, r *Report) error {
	header := []string{"Graph"}
	for _, c := range coreList {
		header = append(header, fmt.Sprintf("%d cores", c))
	}
	rows := make([][]string, 0, len(sweepKeys))
	for _, key := range sweepKeys {
		memTotal, err := h.MemFull(key, 1) // one pass worth of memory, shared
		if err != nil {
			return err
		}
		row := []string{key}
		for _, cores := range coreList {
			res, err := h.CalcLocal(key, cores, memTotal/cores+1, balance.InDegree)
			if err != nil {
				return err
			}
			row = append(row, D(res.CalcTime))
		}
		rows = append(rows, row)
	}
	r.Table(header, rows)
	r.Note("paper: 2 cores halve calculation time; Yahoo scales worst (5x at 24 cores vs 13x)")
	return nil
}

// expFig9 reproduces Figure 9: the load-balancing ablation.
func expFig9(h *Harness, r *Report) error {
	keys := []string{"twitter-sim", "yahoo-sim", "rmat14"}
	for _, cores := range []int{2, 4} {
		rows := make([][]string, 0, len(keys))
		for _, key := range keys {
			// Ample memory (the paper's 128 GB machine): every runner
			// holds its whole range in one window, so range-size variance
			// cannot add passes and the comparison isolates the balancing
			// of intersection work.
			mem, err := h.MemFull(key, 1)
			if err != nil {
				return err
			}
			with, err := h.CalcLocalSplit(key, cores, mem, balance.InDegree)
			if err != nil {
				return err
			}
			without, err := h.CalcLocalSplit(key, cores, mem, balance.Naive)
			if err != nil {
				return err
			}
			// The struggler work ratio is the machine-independent signal.
			maxWith := MaxWorkerWork(with.Workers)
			maxWithout := MaxWorkerWork(without.Workers)
			rows = append(rows, []string{
				key, D(with.CalcTime), D(without.CalcTime),
				fmt.Sprintf("%.2fx", float64(maxWithout)/float64(maxWith)),
			})
		}
		r.Note("multicore (%d cores)", cores)
		r.Table([]string{"Graph", "w/ LB", "w/o LB", "struggler work ratio (naive/balanced)"}, rows)
	}
	r.Note("paper: load balancing improves calculation time by up to 3x")
	return nil
}

// expFig10 reproduces Figure 10: single-node calculation scaling over
// cores.
func expFig10(h *Harness, r *Report) error {
	header := []string{"Graph"}
	for _, c := range coreList {
		header = append(header, fmt.Sprintf("%d cores", c))
	}
	header = append(header, "work/runner 4c")
	rows := make([][]string, 0, len(realKeys))
	for _, key := range realKeys {
		row := []string{key}
		var last []coreWorker
		for _, cores := range coreList {
			mem, err := h.MemFull(key, cores)
			if err != nil {
				return err
			}
			res, err := h.CalcLocal(key, cores, mem, balance.InDegree)
			if err != nil {
				return err
			}
			row = append(row, D(res.CalcTime))
			last = res.Workers
		}
		row = append(row, N(MaxWorkerWork(last)))
		rows = append(rows, row)
	}
	r.Table(header, rows)
	r.Note("paper: 2 cores halve processing time; 16x at 32 cores on Twitter")
	return nil
}

// expTable5 reproduces Table V: PDTL (orientation + calc) vs OPT (database
// + calc) on the local multicore machine.
func expTable5(h *Harness, r *Report) error {
	rows := make([][]string, 0, len(cmpKeys))
	for _, key := range cmpKeys {
		_, ores, cleanup, err := h.OrientTimed(key, 2)
		if err != nil {
			return err
		}
		cleanup()
		mem, err := h.MemFull(key, 4)
		if err != nil {
			return err
		}
		pdtl, err := h.CalcLocal(key, 4, mem, balance.InDegree)
		if err != nil {
			return err
		}
		base, err := h.Store(key)
		if err != nil {
			return err
		}
		db, err := optlike.BuildDB(base)
		if err != nil {
			return err
		}
		opt, err := optlike.Count(db.DBBase, 4)
		if err != nil {
			return err
		}
		if opt.Triangles != pdtl.Triangles {
			return fmt.Errorf("table5: count mismatch on %s: PDTL %d vs OPT %d", key, pdtl.Triangles, opt.Triangles)
		}
		rows = append(rows, []string{
			key, D(ores.Duration), D(pdtl.CalcTime), D(db.DBTime), D(opt.CalcTime),
			fmt.Sprintf("%.1fx", (db.DBTime+opt.CalcTime).Seconds()/(ores.Duration+pdtl.CalcTime).Seconds()),
		})
	}
	r.Table([]string{"Graph", "PDTL orient", "PDTL calc", "OPT database", "OPT calc", "OPT/PDTL total"}, rows)
	r.Note("paper: PDTL total up to 3.5x faster on large graphs (7.8x on LiveJournal)")
	return nil
}

// expFig12 reproduces Figure 12: PDTL vs OPT on an RMAT graph across core
// counts.
func expFig12(h *Harness, r *Report) error {
	const key = "rmat14"
	base, err := h.Store(key)
	if err != nil {
		return err
	}
	db, err := optlike.BuildDB(base)
	if err != nil {
		return err
	}
	_, ores, cleanup, err := h.OrientTimed(key, 2)
	if err != nil {
		return err
	}
	cleanup()
	rows := make([][]string, 0, len(coreList))
	for _, cores := range coreList {
		mem, err := h.MemFull(key, cores)
		if err != nil {
			return err
		}
		pdtl, err := h.CalcLocal(key, cores, mem, balance.InDegree)
		if err != nil {
			return err
		}
		opt, err := optlike.Count(db.DBBase, cores)
		if err != nil {
			return err
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", cores), D(pdtl.CalcTime), D(opt.CalcTime), D(ores.Duration), D(db.DBTime),
		})
	}
	r.Table([]string{"Cores", "PDTL calc", "OPT calc", "PDTL setup", "OPT setup"}, rows)
	r.Note("paper: effects persist for any core count, more pronounced for fewer cores")
	return nil
}

// expTable9 reproduces Table IX: the orientation grid with d*max.
func expTable9(h *Harness, r *Report) error {
	header := []string{"Graph", "d*max"}
	for _, c := range coreList {
		header = append(header, fmt.Sprintf("%d cores", c))
	}
	rows := make([][]string, 0, len(allKeys))
	for _, key := range allKeys {
		var dmax uint32
		row := []string{key, ""}
		for _, cores := range coreList {
			_, ores, cleanup, err := h.OrientTimed(key, cores)
			if err != nil {
				return err
			}
			cleanup()
			dmax = ores.MaxOutDegree
			row = append(row, D(ores.Duration))
		}
		row[1] = N(uint64(dmax))
		rows = append(rows, row)
	}
	r.Table(header, rows)
	return nil
}

// expTable10 reproduces Table X: runtime with and without load balancing.
func expTable10(h *Harness, r *Report) error {
	keys := []string{"twitter-sim", "yahoo-sim", "rmat14"}
	header := []string{"Graph"}
	for _, c := range []int{2, 4} {
		header = append(header, fmt.Sprintf("%dc w/ LB", c), fmt.Sprintf("%dc w/o LB", c))
	}
	rows := make([][]string, 0, len(keys))
	for _, key := range keys {
		row := []string{key}
		mem, err := h.MemFull(key, 1) // ample memory, as in the paper's 128 GB runs
		if err != nil {
			return err
		}
		for _, cores := range []int{2, 4} {
			with, err := h.CalcLocalSplit(key, cores, mem, balance.InDegree)
			if err != nil {
				return err
			}
			without, err := h.CalcLocalSplit(key, cores, mem, balance.Naive)
			if err != nil {
				return err
			}
			row = append(row, D(with.CalcTime), D(without.CalcTime))
		}
		rows = append(rows, row)
	}
	r.Table(header, rows)
	return nil
}

// expTable11 reproduces Table XI: the local multicore runtime grid.
func expTable11(h *Harness, r *Report) error {
	header := []string{"Graph"}
	for _, c := range coreList {
		header = append(header, fmt.Sprintf("%d cores", c))
	}
	keys := []string{"lj-sim", "orkut-sim", "twitter-sim", "yahoo-sim", "rmat14", "rmat15"}
	rows := make([][]string, 0, len(keys))
	for _, key := range keys {
		row := []string{key}
		for _, cores := range coreList {
			mem, err := h.MemFull(key, cores)
			if err != nil {
				return err
			}
			res, err := h.CalcLocal(key, cores, mem, balance.InDegree)
			if err != nil {
				return err
			}
			row = append(row, D(res.CalcTime))
		}
		rows = append(rows, row)
	}
	r.Table(header, rows)
	return nil
}
