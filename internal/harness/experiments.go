package harness

import (
	"fmt"
	"io"
)

// Experiment is one reproducible table or figure of the paper.
type Experiment struct {
	// ID is the harness key ("table2", "fig9", ...).
	ID string
	// Paper names the artifact reproduced ("Table II").
	Paper string
	// Desc is a one-line summary.
	Desc string
	// Run executes the experiment, writing tables to the report.
	Run func(h *Harness, r *Report) error
}

// Experiments lists every experiment, in the paper's order.
var Experiments = []Experiment{
	{ID: "table1", Paper: "Table I", Desc: "dataset inventory with exact triangle counts", Run: expTable1},
	{ID: "table2", Paper: "Table II", Desc: "preprocessing: PDTL orientation vs PowerGraph setup vs OPT DB creation", Run: expTable2},
	{ID: "fig2", Paper: "Figure 2", Desc: "multicore orientation scaling", Run: expFig2},
	{ID: "fig3", Paper: "Figure 3", Desc: "local multicore total time, fixed total memory", Run: expFig3},
	{ID: "fig4", Paper: "Figure 4", Desc: "distributed total time vs cores/nodes", Run: expFig4},
	{ID: "table3", Paper: "Table III", Desc: "distributed total time and average copy time per node count", Run: expTable3},
	{ID: "fig5", Paper: "Figure 5", Desc: "memory budget vs calculation time", Run: expFig5},
	{ID: "fig6", Paper: "Figure 6", Desc: "total CPU vs I/O breakdown", Run: expFig6},
	{ID: "fig7", Paper: "Figure 7", Desc: "per-node CPU/I-O, Twitter stand-in (balanced)", Run: expFig7},
	{ID: "fig8", Paper: "Figure 8", Desc: "per-node CPU/I-O, Yahoo stand-in (skewed)", Run: expFig8},
	{ID: "fig9", Paper: "Figure 9", Desc: "load balancing vs naive edge split", Run: expFig9},
	{ID: "table4", Paper: "Table IV", Desc: "per-node CPU and I/O across node counts", Run: expTable4},
	{ID: "fig10", Paper: "Figure 10", Desc: "single-node calculation scaling", Run: expFig10},
	{ID: "fig11", Paper: "Figure 11", Desc: "speedup over single-core MGT", Run: expFig11},
	{ID: "table5", Paper: "Table V", Desc: "PDTL vs OPT setup and calculation", Run: expTable5},
	{ID: "fig12", Paper: "Figure 12", Desc: "PDTL vs OPT across core counts (RMAT)", Run: expFig12},
	{ID: "fig13", Paper: "Figure 13", Desc: "PDTL vs PowerGraph total/calc breakdown", Run: expFig13},
	{ID: "table6", Paper: "Table VI", Desc: "PDTL vs PowerGraph with memory budgets (OOM)", Run: expTable6},
	{ID: "patric", Paper: "Section V-E4", Desc: "PDTL vs PATRIC-style partitioned counting", Run: expPatric},
	{ID: "cttp", Paper: "Section V-E4", Desc: "CTTP MapReduce comparison and shuffle blowup", Run: expCTTP},
	{ID: "table7", Paper: "Table VII", Desc: "EC2-style CPU/I-O grid over cores and nodes", Run: expTable7},
	{ID: "table8", Paper: "Table VIII", Desc: "EC2-style runtime grid including OPT", Run: expTable8},
	{ID: "table9", Paper: "Table IX", Desc: "orientation grid with d*max", Run: expTable9},
	{ID: "table10", Paper: "Table X", Desc: "runtime with and without load balancing", Run: expTable10},
	{ID: "table11", Paper: "Table XI", Desc: "local multicore runtime grid", Run: expTable11},
	{ID: "table12", Paper: "Table XII", Desc: "cluster runtimes, tight memory", Run: expTable12},
	{ID: "table13", Paper: "Table XIII", Desc: "cluster runtimes, ample memory", Run: expTable13},
	{ID: "table14", Paper: "Table XIV", Desc: "7-node PDTL vs PowerGraph with OOM", Run: expTable14},
	{ID: "lb-ablation", Paper: "§VI ext.", Desc: "load-balancer ablation: naive vs in-degree vs exact cost", Run: expLBAblation},
	{ID: "lb-ooc", Paper: "§IV-B ext.", Desc: "load-balancer ablation out of core: naive vs window-blind vs window-aware in-degree", Run: expLBOutOfCore},
	{ID: "smalldeg", Paper: "§IV-A fn.1", Desc: "small-degree assumption removed: exact counts at M far below d*max", Run: expSmallDegree},
	{ID: "approx", Paper: "§VI ext.", Desc: "approximate counting: Doulion and wedge sampling vs exact", Run: expApprox},
	{ID: "service", Paper: "§VI ext.", Desc: "resident query service under concurrent mixed load (cache + single-flight absorption)", Run: expService},
	{ID: "churn", Paper: "§VI ext.", Desc: "live graphs: exact counts and streaming estimate under churn, with compaction", Run: expChurn},
}

// Find returns the experiment with the given id.
func Find(id string) (Experiment, error) {
	for _, e := range Experiments {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("harness: unknown experiment %q", id)
}

// Run executes one experiment by id.
func (h *Harness) Run(id string, w io.Writer) error {
	e, err := Find(id)
	if err != nil {
		return err
	}
	if err := h.ctx().Err(); err != nil {
		return err
	}
	r := NewReport(w)
	r.Title("%s (%s): %s", e.ID, e.Paper, e.Desc)
	return e.Run(h, r)
}

// RunAll executes every experiment in order, stopping early when the
// harness context is cancelled.
func (h *Harness) RunAll(w io.Writer) error {
	for _, e := range Experiments {
		if err := h.Run(e.ID, w); err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
	}
	return nil
}

// Standard dataset groups used by the experiments. The paper's huge RMAT
// instances are represented by their scaled stand-ins (DESIGN.md §3).
var (
	allKeys   = []string{"lj-sim", "orkut-sim", "twitter-sim", "yahoo-sim", "rmat14", "rmat15", "rmat16", "rmat17"}
	realKeys  = []string{"lj-sim", "orkut-sim", "twitter-sim", "yahoo-sim"}
	sweepKeys = []string{"twitter-sim", "yahoo-sim", "rmat14", "rmat15"}
	cmpKeys   = []string{"lj-sim", "orkut-sim", "twitter-sim", "yahoo-sim", "rmat14"}
	coreList  = []int{1, 2, 4}
	nodeList  = []int{1, 2, 3, 4}
)
