package pdtl

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"text/tabwriter"

	"pdtl/internal/balance"
	"pdtl/internal/baseline"
	"pdtl/internal/cluster"
	"pdtl/internal/core"
	"pdtl/internal/gen"
	"pdtl/internal/graph"
	"pdtl/internal/orient"
	"pdtl/internal/scan"
)

// The paper-claims ledger: each row is one claim of the paper's evaluation
// (Section V) that does not depend on the machine — passes, bytes read,
// comparison steps, copy bytes, balance — restated over the engine's exact
// counters on small generated graphs. A row records the figures it measured
// and a verdict, and the test holds every row to the verdict recorded here:
// a claim that does not reproduce stays in the ledger as "not reproduced",
// with its numbers, rather than being dropped or loosened.
//
//	go test -run Ledger -v .
//
// prints the table.

const (
	reproduced    = "reproduced"
	notReproduced = "not reproduced"
)

type ledgerRow struct {
	paper string // where the paper makes the claim
	claim string // what the paper says, restated machine-independently
	want  string // the verdict this ledger records
	// measure computes the row's figures and whether the claim holds on them.
	measure func(t *testing.T) (figures string, holds bool)
}

func TestLedger(t *testing.T) {
	rows := []ledgerRow{
		{"Figure 5", "at fixed P, passes and bytes read do not increase as M grows, and reach one pass per runner at M ≥ |E*|/P", reproduced, ledgerFig5},
		{"Figure 9 / Table X", "in-degree balancing lowers the busiest runner's cmp_ops against the naive equal-edge split on a skewed graph", reproduced, ledgerBalanceSkewed},
		{"Figure 9 / Table X", "(control) on a uniform graph in-degree balancing does not help: the busiest runner's cmp_ops stay within 10 % of naive", notReproduced, ledgerBalanceUniform},
		{"Table III", "each remote node is sent exactly the store: copy bytes = |.meta| + |.deg| + adjacency bytes", reproduced, ledgerTable3},
		{"Figures 6–8", "CPU work per byte read is higher on a hub-heavy graph than on a sparse one", reproduced, ledgerCPUPerByte},
		{"§IV-A fn. 1", "without the small-degree assumption the count stays exact from M = 4·d*max down to d*max/4, and the large-vertex path engages exactly below d*max", reproduced, ledgerSmallDegree},
		{"Theorem IV.3", "bytes read = the window loads plus, per window, each list from the window's first vertex on that it does not hold whole", reproduced, ledgerTheoremIV3},
	}
	var table strings.Builder
	tw := tabwriter.NewWriter(&table, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "paper\tclaim\tmeasured\tverdict")
	for _, r := range rows {
		figures, holds := r.measure(t)
		got := notReproduced
		if holds {
			got = reproduced
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\n", r.paper, r.claim, figures, got)
		if got != r.want {
			t.Errorf("%s: %s, the ledger records %s (%s)", r.paper, got, r.want, figures)
		}
	}
	tw.Flush()
	t.Log("\n" + table.String())
}

// ledgerStore writes g as an undirected store, orients it into the given
// format and returns the oriented store's base.
func ledgerStore(t *testing.T, g *graph.CSR, format graph.Format) string {
	t.Helper()
	base := filepath.Join(t.TempDir(), "g")
	if err := graph.WriteCSR(base, "g", g); err != nil {
		t.Fatal(err)
	}
	if _, err := orient.OrientFormat(base, base+".oriented", 2, format); err != nil {
		t.Fatal(err)
	}
	return base + ".oriented"
}

func ledgerRun(t *testing.T, oriented string, opt core.Options) *core.Result {
	t.Helper()
	res, err := core.Process(context.Background(), oriented, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func ledgerMeta(t *testing.T, oriented string) graph.Meta {
	t.Helper()
	meta, err := graph.ReadMeta(oriented)
	if err != nil {
		t.Fatal(err)
	}
	return meta
}

// ledgerFig5: Figure 5 sweeps the memory budget at a fixed processor count.
// The window sizes double, so every window boundary of a larger M is one of
// a smaller M's and a pass can only merge rounds, never add one.
func ledgerFig5(t *testing.T) (string, bool) {
	g, err := gen.RMAT(12, 12, 5)
	if err != nil {
		t.Fatal(err)
	}
	oriented := ledgerStore(t, g, graph.FormatPlain)
	const p = 2
	total := int(ledgerMeta(t, oriented).AdjEntries)
	full := (total + p - 1) / p
	var figures []string
	holds := true
	for _, source := range []scan.SourceKind{scan.SourceAuto, scan.SourceBuffered} {
		prevPasses, prevBytes := -1, int64(-1)
		var steps []string
		for k := 4; k >= 0; k-- {
			m := (full + (1 << k) - 1) >> k
			res := ledgerRun(t, oriented, core.Options{Workers: p, MemEdges: m, Strategy: balance.InDegree, Scan: source})
			st := res.TotalStats()
			maxPasses := 0
			for _, w := range res.Workers {
				maxPasses = max(maxPasses, w.Stats.Passes)
			}
			if prevPasses >= 0 && (st.Passes > prevPasses || st.IO.BytesRead > prevBytes) {
				holds = false
			}
			if k == 0 && maxPasses != 1 {
				holds = false
			}
			prevPasses, prevBytes = st.Passes, st.IO.BytesRead
			steps = append(steps, fmt.Sprintf("%d/%.0fK", st.Passes, float64(st.IO.BytesRead)/1e3))
		}
		figures = append(figures, fmt.Sprintf("%s: %s", source.OrAuto(), strings.Join(steps, " ")))
	}
	return fmt.Sprintf("RMAT-12, P=%d, M=|E*|/(P·16…1), passes/bytes: %s", p, strings.Join(figures, "; ")), holds
}

// maxRunnerCmpOps runs the paper's layout — one private window per range, the
// layout in which a split decides each runner's share — with every runner
// holding its range in one window, and returns the busiest runner's steps.
func maxRunnerCmpOps(t *testing.T, oriented string, p int, strategy balance.Strategy) uint64 {
	total := int(ledgerMeta(t, oriented).AdjEntries)
	res := ledgerRun(t, oriented, core.Options{Workers: p, MemEdges: total, Strategy: strategy, Scan: scan.SourceBuffered})
	var most uint64
	for _, w := range res.Workers {
		most = max(most, w.Stats.CmpOps)
	}
	return most
}

func balanceRatio(t *testing.T, g *graph.CSR) (naive, balanced uint64) {
	oriented := ledgerStore(t, g, graph.FormatPlain)
	return maxRunnerCmpOps(t, oriented, 4, balance.Naive), maxRunnerCmpOps(t, oriented, 4, balance.InDegree)
}

func ledgerBalanceSkewed(t *testing.T) (string, bool) {
	g, err := gen.PowerLaw(1<<12, 1<<15, 1.9, 9)
	if err != nil {
		t.Fatal(err)
	}
	naive, balanced := balanceRatio(t, g)
	ratio := float64(naive) / float64(balanced)
	return fmt.Sprintf("power law n=4096 γ=1.9, P=4: max cmp_ops naive %d, in-degree %d (%.2f×)", naive, balanced, ratio), ratio > 1
}

// ledgerBalanceUniform is the control the paper does not run. It does not
// reproduce: orientation alone skews the work along the degree order, even
// when the degrees are even. A vertex late in the order has most of its
// edges pointing in and few out, so the in-degree mass still piles up where
// an equal-edge split does not look.
func ledgerBalanceUniform(t *testing.T) (string, bool) {
	g, err := gen.ErdosRenyi(1<<12, 1<<15, 9)
	if err != nil {
		t.Fatal(err)
	}
	naive, balanced := balanceRatio(t, g)
	ratio := float64(naive) / float64(balanced)
	return fmt.Sprintf("Erdős–Rényi n=4096, P=4: max cmp_ops naive %d, in-degree %d (%.2f×)", naive, balanced, ratio), ratio > 0.9 && ratio < 1.1
}

// ledgerTable3: Table III's copy time is the master's uplink carrying one
// replica per remote node.
func ledgerTable3(t *testing.T) (string, bool) {
	g, err := gen.RMAT(11, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	lc, err := cluster.StartLocal(2, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	var figures []string
	holds := true
	for _, format := range []graph.Format{graph.FormatPlain, graph.FormatCompressed} {
		oriented := ledgerStore(t, g, format)
		files := []string{graph.MetaPath(oriented), graph.DegPath(oriented), graph.AdjPath(oriented)}
		if format == graph.FormatCompressed {
			files = []string{graph.MetaPath(oriented), graph.DegPath(oriented), graph.CAdjPath(oriented), graph.CIdxPath(oriented)}
		}
		var size int64
		for _, f := range files {
			fi, err := os.Stat(f)
			if err != nil {
				t.Fatal(err)
			}
			size += fi.Size()
		}
		res, err := cluster.Run(context.Background(), cluster.Config{
			GraphBase: oriented, GraphName: "ledger-" + string(format), Workers: 1, Strategy: balance.InDegree,
		}, lc.Addrs())
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Nodes) != 3 {
			holds = false
		}
		var copies []string
		for _, n := range res.Nodes[1:] {
			copies = append(copies, fmt.Sprint(n.CopyBytes))
			if n.CopyBytes != size {
				holds = false
			}
		}
		figures = append(figures, fmt.Sprintf("%s store %d B, copies %s B", format, size, strings.Join(copies, ", ")))
	}
	return "RMAT-11, 3 nodes: " + strings.Join(figures, "; "), holds
}

// ledgerCPUPerByte: Figures 6–8 break the run into CPU and I/O; their
// machine-independent form is the comparison steps done per byte read.
func ledgerCPUPerByte(t *testing.T) (string, bool) {
	perByte := func(g *graph.CSR) float64 {
		oriented := ledgerStore(t, g, graph.FormatPlain)
		res := ledgerRun(t, oriented, core.Options{Workers: 2, MemEdges: int(ledgerMeta(t, oriented).AdjEntries)})
		st := res.TotalStats()
		return float64(st.CmpOps) / float64(st.IO.BytesRead)
	}
	hubby, err := gen.RMAT(12, 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := gen.PowerLaw(1<<12, 1<<13, 2.5, 2)
	if err != nil {
		t.Fatal(err)
	}
	h, s := perByte(hubby), perByte(sparse)
	return fmt.Sprintf("cmp_ops per byte read: RMAT-12 %.2f, sparse power law (avg degree ≈ 4) %.2f", h, s), h > s
}

// ledgerSmallDegree: footnote 1 drops the assumption d*max ≤ M/2. Under the
// paper's layout M is each runner's window, so a list longer than M arrives
// in pieces (mgt's large-vertex path).
func ledgerSmallDegree(t *testing.T) (string, bool) {
	g, err := gen.RMAT(10, 16, 105)
	if err != nil {
		t.Fatal(err)
	}
	want := baseline.Forward(g)
	oriented := ledgerStore(t, g, graph.FormatPlain)
	dmax := int(ledgerMeta(t, oriented).MaxOutDegree)
	holds := true
	var steps []string
	for _, m := range []int{4 * dmax, 2 * dmax, dmax, dmax / 2, dmax / 4} {
		res := ledgerRun(t, oriented, core.Options{Workers: 2, MemEdges: m, Strategy: balance.InDegree, Scan: scan.SourceBuffered})
		large := res.TotalStats().LargeVertices
		if res.Triangles != want || (large > 0) != (m < dmax) {
			holds = false
		}
		steps = append(steps, fmt.Sprintf("%.2g·d*max: %d large", float64(m)/float64(dmax), large))
	}
	return fmt.Sprintf("RMAT-10, d*max=%d, P=2, every count %d = baseline; %s", dmax, want, strings.Join(steps, ", ")), holds
}

// ledgerTheoremIV3 names the tests that check Theorem IV.3's I/O to the byte
// for both layouts, rather than checking it a second time.
func ledgerTheoremIV3(t *testing.T) (string, bool) {
	checks := []struct{ file, test string }{
		{"internal/core/crosscheck_test.go", "TestPaperLayoutIOExact"},
		{"internal/mgt/coop_test.go", "TestDealtIOExact"},
	}
	holds := true
	var names []string
	for _, c := range checks {
		src, err := os.ReadFile(c.file)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(src), "func "+c.test+"(") {
			holds = false
		}
		names = append(names, c.test)
	}
	return "exact per runner and round in " + strings.Join(names, " and "), holds
}
