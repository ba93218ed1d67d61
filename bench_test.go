// Benchmarks regenerating every table and figure of the paper's evaluation
// (Section V). Each benchmark runs one harness experiment end to end
// against the laptop-scale stand-in datasets (DESIGN.md §3 and §4); run
// with -benchtime=1x for a single regeneration pass, or use
// `go run ./cmd/pdtl-bench -all` to see the rendered tables.
//
// External test package: the harness now reaches pdtl through
// internal/service (the query-service load driver), so an in-package test
// file importing it would be an import cycle.
package pdtl_test

import (
	"io"
	"sync"
	"testing"

	"pdtl/internal/harness"
)

var (
	benchOnce sync.Once
	benchH    *harness.Harness
	benchErr  error
)

// benchHarness shares one dataset cache across all benchmarks in the
// process so graph generation is paid once, not per benchmark.
func benchHarness(b *testing.B) *harness.Harness {
	b.Helper()
	benchOnce.Do(func() {
		benchH, benchErr = harness.New("")
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchH
}

func runExperiment(b *testing.B, id string) {
	h := benchHarness(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := h.Run(id, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1DatasetInventory regenerates Table I: the dataset
// inventory with exact triangle counts.
func BenchmarkTable1DatasetInventory(b *testing.B) { runExperiment(b, "table1") }

// BenchmarkTable2Preprocessing regenerates Table II: PDTL orientation vs
// PowerGraph setup vs OPT database creation.
func BenchmarkTable2Preprocessing(b *testing.B) { runExperiment(b, "table2") }

// BenchmarkFig2OrientationScaling regenerates Figure 2: multicore
// orientation scaling.
func BenchmarkFig2OrientationScaling(b *testing.B) { runExperiment(b, "fig2") }

// BenchmarkFig3LocalMulticoreTotal regenerates Figure 3: local multicore
// total time under constant total memory.
func BenchmarkFig3LocalMulticoreTotal(b *testing.B) { runExperiment(b, "fig3") }

// BenchmarkFig4DistributedTotal regenerates Figure 4: distributed total
// time across node counts.
func BenchmarkFig4DistributedTotal(b *testing.B) { runExperiment(b, "fig4") }

// BenchmarkTable3CopyTimes regenerates Table III: total and average copy
// time per node count under a rate-limited uplink.
func BenchmarkTable3CopyTimes(b *testing.B) { runExperiment(b, "table3") }

// BenchmarkFig5MemoryVsCalc regenerates Figure 5: memory budget vs
// calculation time.
func BenchmarkFig5MemoryVsCalc(b *testing.B) { runExperiment(b, "fig5") }

// BenchmarkFig6CPUIOBreakdown regenerates Figure 6: total CPU vs I/O.
func BenchmarkFig6CPUIOBreakdown(b *testing.B) { runExperiment(b, "fig6") }

// BenchmarkFig7TwitterPerNode regenerates Figure 7: per-node CPU/I-O on
// the balanced Twitter stand-in.
func BenchmarkFig7TwitterPerNode(b *testing.B) { runExperiment(b, "fig7") }

// BenchmarkFig8YahooPerNode regenerates Figure 8: per-node CPU/I-O on the
// skewed Yahoo stand-in.
func BenchmarkFig8YahooPerNode(b *testing.B) { runExperiment(b, "fig8") }

// BenchmarkFig9LoadBalancing regenerates Figure 9: the load-balancing
// ablation.
func BenchmarkFig9LoadBalancing(b *testing.B) { runExperiment(b, "fig9") }

// BenchmarkTable4PerNodeBreakdown regenerates Table IV: per-node CPU/I-O
// across node counts.
func BenchmarkTable4PerNodeBreakdown(b *testing.B) { runExperiment(b, "table4") }

// BenchmarkFig10SingleNode regenerates Figure 10: single-node scaling.
func BenchmarkFig10SingleNode(b *testing.B) { runExperiment(b, "fig10") }

// BenchmarkFig11SpeedupOverMGT regenerates Figure 11: distributed speedup
// over single-core MGT.
func BenchmarkFig11SpeedupOverMGT(b *testing.B) { runExperiment(b, "fig11") }

// BenchmarkTable5PDTLvsOPT regenerates Table V: PDTL vs OPT setup and
// calculation.
func BenchmarkTable5PDTLvsOPT(b *testing.B) { runExperiment(b, "table5") }

// BenchmarkFig12PDTLvsOPTCores regenerates Figure 12: PDTL vs OPT across
// core counts on RMAT.
func BenchmarkFig12PDTLvsOPTCores(b *testing.B) { runExperiment(b, "fig12") }

// BenchmarkFig13PDTLvsPowerGraph regenerates Figure 13: PDTL vs PowerGraph
// breakdowns.
func BenchmarkFig13PDTLvsPowerGraph(b *testing.B) { runExperiment(b, "fig13") }

// BenchmarkTable6PowerGraphOOM regenerates Table VI: PowerGraph OOM under
// memory budgets while PDTL runs with tiny per-core memory.
func BenchmarkTable6PowerGraphOOM(b *testing.B) { runExperiment(b, "table6") }

// BenchmarkSec5E4PATRIC regenerates the Section V-E4 PATRIC comparison.
func BenchmarkSec5E4PATRIC(b *testing.B) { runExperiment(b, "patric") }

// BenchmarkSec5E4CTTP regenerates the Section V-E4 CTTP comparison.
func BenchmarkSec5E4CTTP(b *testing.B) { runExperiment(b, "cttp") }

// BenchmarkTable7CPUIOGrid regenerates Appendix Table VII.
func BenchmarkTable7CPUIOGrid(b *testing.B) { runExperiment(b, "table7") }

// BenchmarkTable8EC2Runtimes regenerates Appendix Table VIII.
func BenchmarkTable8EC2Runtimes(b *testing.B) { runExperiment(b, "table8") }

// BenchmarkTable9OrientationGrid regenerates Appendix Table IX.
func BenchmarkTable9OrientationGrid(b *testing.B) { runExperiment(b, "table9") }

// BenchmarkTable10LoadBalanceGrid regenerates Appendix Table X.
func BenchmarkTable10LoadBalanceGrid(b *testing.B) { runExperiment(b, "table10") }

// BenchmarkTable11MulticoreGrid regenerates Appendix Table XI.
func BenchmarkTable11MulticoreGrid(b *testing.B) { runExperiment(b, "table11") }

// BenchmarkTable12Cluster8GB regenerates Appendix Table XII (tight
// memory).
func BenchmarkTable12Cluster8GB(b *testing.B) { runExperiment(b, "table12") }

// BenchmarkTable13Cluster32GB regenerates Appendix Table XIII (ample
// memory).
func BenchmarkTable13Cluster32GB(b *testing.B) { runExperiment(b, "table13") }

// BenchmarkTable14ClusterVsPowerGraph regenerates Appendix Table XIV.
func BenchmarkTable14ClusterVsPowerGraph(b *testing.B) { runExperiment(b, "table14") }

// BenchmarkAblationLoadBalancers compares the three range-assignment
// strategies (naive / in-degree / exact cost) — the Section VI future-work
// ablation.
func BenchmarkAblationLoadBalancers(b *testing.B) { runExperiment(b, "lb-ablation") }

// BenchmarkAblationSmallDegree demonstrates the footnote-1 removal of the
// small-degree assumption (exactness at M ≪ d*max).
func BenchmarkAblationSmallDegree(b *testing.B) { runExperiment(b, "smalldeg") }

// BenchmarkExtApproximate evaluates the approximate-counting extension.
func BenchmarkExtApproximate(b *testing.B) { runExperiment(b, "approx") }
