package balance

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"pdtl/internal/gen"
	"pdtl/internal/graph"
	"pdtl/internal/orient"
)

// orientedArrays builds the inputs a split needs from an undirected CSR.
func orientedArrays(t *testing.T, g *graph.CSR) (offsets []uint64, outDeg, inDeg []uint32) {
	t.Helper()
	o := orient.CSR(g)
	outDeg = o.Degrees()
	deg := g.Degrees()
	inDeg = make([]uint32, len(deg))
	for v := range deg {
		inDeg[v] = deg[v] - outDeg[v]
	}
	return o.Offsets, outDeg, inDeg
}

func TestNaiveSplitEqualSizes(t *testing.T) {
	g, err := gen.ErdosRenyi(50, 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	offsets, outDeg, inDeg := orientedArrays(t, g)
	total := offsets[len(offsets)-1]
	plan, err := SplitInputs(Inputs{Offsets: offsets, OutDeg: outDeg, InDeg: inDeg}, 4, Naive)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(total); err != nil {
		t.Fatal(err)
	}
	for i, r := range plan.Ranges {
		if diff := int64(r.Len()) - int64(total/4); diff < -1 || diff > 1 {
			t.Errorf("range %d has %d edges, want ~%d", i, r.Len(), total/4)
		}
	}
}

func TestInDegreeSplitBalancesSkew(t *testing.T) {
	// A skewed graph: hub-heavy power law. The in-degree plan should have
	// clearly lower imbalance than the naive one under the cost model.
	g, err := gen.PowerLaw(3000, 30000, 2.1, 4)
	if err != nil {
		t.Fatal(err)
	}
	offsets, outDeg, inDeg := orientedArrays(t, g)
	total := offsets[len(offsets)-1]

	naive, err := SplitInputs(Inputs{Offsets: offsets, OutDeg: outDeg, InDeg: inDeg}, 8, Naive)
	if err != nil {
		t.Fatal(err)
	}
	weighted, err := SplitInputs(Inputs{Offsets: offsets, OutDeg: outDeg, InDeg: inDeg}, 8, InDegree)
	if err != nil {
		t.Fatal(err)
	}
	if err := naive.Validate(total); err != nil {
		t.Fatal(err)
	}
	if err := weighted.Validate(total); err != nil {
		t.Fatal(err)
	}
	if weighted.Imbalance() >= naive.Imbalance() {
		t.Errorf("weighted imbalance %.3f not better than naive %.3f",
			weighted.Imbalance(), naive.Imbalance())
	}
	if weighted.Imbalance() > 1.5 {
		t.Errorf("weighted imbalance %.3f too high", weighted.Imbalance())
	}
}

func TestSplitValidation(t *testing.T) {
	offsets := []uint64{0, 2, 4}
	outDeg := []uint32{2, 2}
	inDeg := []uint32{0, 0}
	if _, err := SplitInputs(Inputs{Offsets: offsets, OutDeg: outDeg, InDeg: inDeg}, 0, Naive); err == nil {
		t.Error("want error for k=0")
	}
	if _, err := SplitInputs(Inputs{Offsets: offsets[:2], OutDeg: outDeg, InDeg: inDeg}, 1, Naive); err == nil {
		t.Error("want error for mismatched offsets")
	}
	if _, err := SplitInputs(Inputs{Offsets: offsets, OutDeg: outDeg, InDeg: inDeg[:1]}, 1, InDegree); err == nil {
		t.Error("want error for mismatched in-degrees")
	}
	if _, err := SplitInputs(Inputs{Offsets: offsets, OutDeg: outDeg, InDeg: inDeg}, 1, Strategy(99)); err == nil {
		t.Error("want error for unknown strategy")
	}
}

func TestSplitDegenerateCases(t *testing.T) {
	// k = 1: the single range is everything.
	offsets := []uint64{0, 3, 5}
	outDeg := []uint32{3, 2}
	inDeg := []uint32{1, 2}
	for _, s := range []Strategy{Naive, InDegree} {
		plan, err := SplitInputs(Inputs{Offsets: offsets, OutDeg: outDeg, InDeg: inDeg}, 1, s)
		if err != nil {
			t.Fatal(err)
		}
		if len(plan.Ranges) != 1 || plan.Ranges[0] != (Range{0, 5}) {
			t.Errorf("%v: k=1 plan = %+v", s, plan.Ranges)
		}
	}
	// More processors than edges: some ranges empty, still valid.
	for _, s := range []Strategy{Naive, InDegree} {
		plan, err := SplitInputs(Inputs{Offsets: offsets, OutDeg: outDeg, InDeg: inDeg}, 16, s)
		if err != nil {
			t.Fatal(err)
		}
		if err := plan.Validate(5); err != nil {
			t.Errorf("%v: %v", s, err)
		}
	}
	// Empty graph.
	plan, err := SplitInputs(Inputs{Offsets: []uint64{0}, OutDeg: nil, InDeg: nil}, 3, InDegree)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(0); err != nil {
		t.Error(err)
	}
}

func TestSubdivide(t *testing.T) {
	plan := Plan{Ranges: []Range{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}}}
	groups := plan.Subdivide(3)
	if len(groups) != 3 {
		t.Fatalf("groups = %d", len(groups))
	}
	for i, g := range groups {
		if len(g) != 2 {
			t.Errorf("group %d has %d ranges, want 2", i, len(g))
		}
	}
	// Uneven subdivision covers everything exactly once.
	groups = plan.Subdivide(4)
	seen := 0
	for _, g := range groups {
		seen += len(g)
	}
	if seen != 6 {
		t.Errorf("subdivide(4) covered %d ranges, want 6", seen)
	}
}

func TestStrategyString(t *testing.T) {
	if Naive.String() != "naive" || InDegree.String() != "indegree" {
		t.Error("strategy names wrong")
	}
	if Strategy(7).String() == "" {
		t.Error("unknown strategy should still print")
	}
}

// Property: both strategies always produce valid contiguous covers, for any
// random graph and processor count.
func TestSplitCoverageProperty(t *testing.T) {
	f := func(seed int64, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(80)
		g, err := gen.ErdosRenyi(n, rng.Intn(6*n), seed)
		if err != nil {
			return false
		}
		o := orient.CSR(g)
		outDeg := o.Degrees()
		deg := g.Degrees()
		inDeg := make([]uint32, len(deg))
		for v := range deg {
			inDeg[v] = deg[v] - outDeg[v]
		}
		k := 1 + int(kRaw%32)
		total := o.Offsets[len(o.Offsets)-1]
		for _, s := range []Strategy{Naive, InDegree} {
			plan, err := SplitInputs(Inputs{Offsets: o.Offsets, OutDeg: outDeg, InDeg: inDeg}, k, s)
			if err != nil {
				return false
			}
			if len(plan.Ranges) != k {
				return false
			}
			if plan.Validate(total) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestSplitChunked: the chunked split for the stealing scheduler is the
// same weighted cover, K× finer — k·perWorker valid contiguous ranges
// whose boundaries refine the same cost model.
func TestSplitChunked(t *testing.T) {
	g, err := gen.PowerLaw(300, 4000, 2.0, 5)
	if err != nil {
		t.Fatal(err)
	}
	offsets, outDeg, inDeg := orientedArrays(t, g)
	in := Inputs{Offsets: offsets, OutDeg: outDeg, InDeg: inDeg}
	total := offsets[len(offsets)-1]

	plan, err := SplitInputs(in, 4*8, InDegree)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Ranges) != 32 {
		t.Fatalf("got %d chunks, want 32", len(plan.Ranges))
	}
	if err := plan.Validate(total); err != nil {
		t.Fatal(err)
	}
	// Chunk weights equalize like the coarse split does: no chunk should
	// carry more than a few times the mean (weighted interpolation can't
	// split a single vertex's list weight, so allow slack).
	if imb := plan.Imbalance(); imb > 3 {
		t.Errorf("chunk imbalance %.2f too high for a weighted split", imb)
	}
}

// paperRanges is the planner as it was before it learnt about M — the
// paper's model, one unit of scan work per edge — kept as the reference the
// single-window property is checked against.
func paperRanges(in Inputs, k int, strategy Strategy) []Range {
	n := len(in.OutDeg)
	total := in.Offsets[n]
	if strategy == Naive {
		return naiveRanges(total, k)
	}
	weight := func(v int) float64 {
		if in.OutDeg[v] == 0 {
			return 0
		}
		return 1 + float64(in.InDeg[v])
	}
	cum := make([]float64, n+1)
	for v := 0; v < n; v++ {
		cum[v+1] = cum[v] + weight(v)*float64(in.OutDeg[v])
	}
	ranges := make([]Range, k)
	var lo uint64
	v := 0
	for i := 0; i < k-1; i++ {
		target := cum[n] * float64(i+1) / float64(k)
		for v < n && cum[v+1] < target {
			v++
		}
		hi := total
		if v < n {
			var within uint64
			if w := weight(v); w > 0 {
				within = min(uint64((target-cum[v])/w), uint64(in.OutDeg[v]))
			}
			hi = in.Offsets[v] + within
		}
		hi = max(hi, lo)
		ranges[i] = Range{Lo: lo, Hi: hi}
		lo = hi
	}
	ranges[k-1] = Range{Lo: lo, Hi: total}
	return ranges
}

// randomInputs builds the planner inputs of a random skewed graph.
func randomInputs(t *testing.T, rng *rand.Rand) Inputs {
	t.Helper()
	n := 20 + rng.Intn(300)
	g, err := gen.PowerLaw(n, (2+rng.Intn(8))*n, 1.8+rng.Float64(), rng.Int63())
	if err != nil {
		t.Fatal(err)
	}
	offsets, outDeg, inDeg := orientedArrays(t, g)
	return Inputs{Offsets: offsets, OutDeg: outDeg, InDeg: inDeg}
}

// TestSingleWindowPlansUnchanged: whenever the store fits one window — any
// M ≥ |E*|, or none given — every strategy plans exactly as the paper's
// M-blind model did, range for range, on either store format.
func TestSingleWindowPlansUnchanged(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		in := randomInputs(t, rng)
		total := int(in.Offsets[len(in.Offsets)-1])
		k := 1 + rng.Intn(24)
		for _, s := range []Strategy{Naive, InDegree} {
			want := paperRanges(in, k, s)
			for _, mem := range []int{-1, 0, total, total + 1 + rng.Intn(1000), 1 << 40} {
				for _, f := range []graph.Format{graph.FormatPlain, graph.FormatCompressed} {
					in.MemEdges, in.Format = mem, f
					plan, err := SplitInputs(in, k, s)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(plan.Ranges, want) {
						t.Fatalf("trial %d %v k=%d mem=%d (|E*|=%d) %s: plan %v, paper's %v", trial, s, k, mem, total, f, plan.Ranges, want)
					}
					if plan.Windows != 1 || plan.ScanUnits != 1 {
						t.Fatalf("single-window plan reports windows=%d scan_units=%v", plan.Windows, plan.ScanUnits)
					}
				}
			}
		}
	}
}

// TestMultiWindowPlansWasteNoPass: with at least as many windows as ranges
// (W ≥ k) every cut sits on a multiple of M, so no range is empty and the
// plan costs exactly W = ⌈|E*|/M⌉ passes in all — for the static split
// (k = P) and the stealing scheduler's chunking (k = 8·P) alike.
func TestMultiWindowPlansWasteNoPass(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		in := randomInputs(t, rng)
		total := in.Offsets[len(in.Offsets)-1]
		p := 1 + rng.Intn(4)
		for _, k := range []int{p, 8 * p} {
			if total < uint64(k) {
				continue
			}
			// Any M that leaves at least k windows.
			in.MemEdges = 1 + rng.Intn(int(total)/k)
			if rng.Intn(2) == 0 {
				in.Format = graph.FormatCompressed
			}
			windows := (total + uint64(in.MemEdges) - 1) / uint64(in.MemEdges)
			for _, s := range []Strategy{Naive, InDegree} {
				plan, err := SplitInputs(in, k, s)
				if err != nil {
					t.Fatal(err)
				}
				if err := plan.Validate(total); err != nil {
					t.Fatal(err)
				}
				sum := 0
				for i, n := range plan.Passes() {
					if n == 0 {
						t.Fatalf("trial %d %v k=%d M=%d: range %d %+v is empty", trial, s, k, in.MemEdges, i, plan.Ranges[i])
					}
					sum += n
				}
				if plan.Windows != windows || uint64(sum) != windows {
					t.Fatalf("trial %d %v k=%d M=%d |E*|=%d: Σ passes = %d over %d windows, want %d", trial, s, k, in.MemEdges, total, sum, plan.Windows, windows)
				}
			}
		}
	}
}

// TestWindowAwarePlanSharesThePasses: on a skewed graph cut into 48
// windows the paper's weights put half the in-degree mass — a couple of
// windows — on the first runner and every remaining pass on the second.
// Priced by the scan it causes, an edge in a many-window range is no longer
// nearly free, and the passes are shared.
func TestWindowAwarePlanSharesThePasses(t *testing.T) {
	g, err := gen.PowerLaw(1<<13, 8<<13, 1.9, 1)
	if err != nil {
		t.Fatal(err)
	}
	offsets, outDeg, inDeg := orientedArrays(t, g)
	total := offsets[len(offsets)-1]
	in := Inputs{Offsets: offsets, OutDeg: outDeg, InDeg: inDeg, Format: graph.FormatCompressed}
	blind, err := SplitInputs(in, 2, InDegree)
	if err != nil {
		t.Fatal(err)
	}
	in.MemEdges = int((total + 47) / 48)
	aware, err := SplitInputs(in, 2, InDegree)
	if err != nil {
		t.Fatal(err)
	}
	blind.MemEdges = aware.MemEdges // what the blind plan costs at this M
	if got := slices.Max(blind.Passes()); got < 40 {
		t.Fatalf("M-blind plan's heavier runner has %d of 48 passes; the premise of this test is gone", got)
	}
	if got := slices.Max(aware.Passes()); got > 30 {
		t.Errorf("M-aware plan's heavier runner has %d passes of %d, want ≤ 30", got, aware.Windows)
	}
}
