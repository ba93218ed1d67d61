package approx

import (
	"testing"

	"pdtl/internal/baseline"
	"pdtl/internal/gen"
	"pdtl/internal/graph"
)

func TestDoulionAccuracy(t *testing.T) {
	g, err := gen.RMAT(11, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	exact := baseline.Forward(g)
	// Average several seeds: Doulion is unbiased, so the mean converges.
	var sum float64
	const trials = 8
	for s := int64(0); s < trials; s++ {
		est, kept, err := Doulion(g, 0.5, s)
		if err != nil {
			t.Fatal(err)
		}
		if kept == 0 || kept >= g.NumEdges() {
			t.Errorf("kept %d of %d edges at p=0.5", kept, g.NumEdges())
		}
		sum += est
	}
	mean := sum / trials
	if rel := relativeError(mean, exact); rel > 0.15 {
		t.Errorf("Doulion mean estimate %.0f vs exact %d: rel err %.3f > 0.15", mean, exact, rel)
	}
}

func TestDoulionP1IsExact(t *testing.T) {
	g, err := gen.Complete(20)
	if err != nil {
		t.Fatal(err)
	}
	est, kept, err := Doulion(g, 1.0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if kept != g.NumEdges() {
		t.Errorf("p=1 must keep all edges: %d vs %d", kept, g.NumEdges())
	}
	if uint64(est) != gen.CompleteTriangles(20) {
		t.Errorf("p=1 estimate %f != exact %d", est, gen.CompleteTriangles(20))
	}
}

func TestDoulionValidation(t *testing.T) {
	g, err := gen.Complete(5)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Doulion(g, 0, 1); err == nil {
		t.Error("want error for p=0")
	}
	if _, _, err := Doulion(g, 1.5, 1); err == nil {
		t.Error("want error for p>1")
	}
}

func TestWedgeSampleAccuracy(t *testing.T) {
	g, err := gen.RMAT(11, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	exact := baseline.Forward(g)
	est, err := WedgeSample(g, 200_000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if rel := relativeError(est, exact); rel > 0.1 {
		t.Errorf("wedge estimate %.0f vs exact %d: rel err %.3f > 0.1", est, exact, rel)
	}
}

func TestWedgeSampleCompleteGraph(t *testing.T) {
	// In K_n every wedge is closed, so any sample gives the exact count.
	g, err := gen.Complete(12)
	if err != nil {
		t.Fatal(err)
	}
	est, err := WedgeSample(g, 100, 3)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(est+0.5) != gen.CompleteTriangles(12) {
		t.Errorf("K12 wedge estimate %f, want %d", est, gen.CompleteTriangles(12))
	}
}

func TestWedgeSampleEdgeCases(t *testing.T) {
	empty, err := graph.FromEdges(3, []graph.Edge{{U: 0, V: 1}})
	if err != nil {
		t.Fatal(err)
	}
	est, err := WedgeSample(empty, 50, 1)
	if err != nil || est != 0 {
		t.Errorf("wedge-free graph: est=%f err=%v", est, err)
	}
	if _, err := WedgeSample(empty, 0, 1); err == nil {
		t.Error("want error for 0 samples")
	}
}

func TestRelativeError(t *testing.T) {
	if relativeError(110, 100) != 0.1 {
		t.Error("rel error of 110 vs 100 should be 0.1")
	}
	if relativeError(90, 100) != 0.1 {
		t.Error("rel error should be symmetric")
	}
	if relativeError(0, 0) != 0 {
		t.Error("0 vs 0 should be 0")
	}
	if relativeError(5, 0) != 1 {
		t.Error("nonzero vs 0 should be 1")
	}
}

// relativeError is |estimate − exact| / exact (0 when exact is 0 and the
// estimate is too).
func relativeError(estimate float64, exact uint64) float64 {
	if exact == 0 {
		if estimate == 0 {
			return 0
		}
		return 1
	}
	diff := estimate - float64(exact)
	if diff < 0 {
		diff = -diff
	}
	return diff / float64(exact)
}
