package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
)

// updatePinFile regenerates the pinned seed's inputs at full scale and
// rewrites bench/pins.json. A bench maintainer runs it when an input change
// is intended; nothing else writes the pins.
func updatePinFile(e *env) error {
	all, err := workloads("full")
	if err != nil {
		return err
	}
	tmp := filepath.Join(e.buildDir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	pins := pinFile{Seed: 1, Workloads: map[string][]inputGraph{}}
	for _, w := range all {
		dir, err := os.MkdirTemp(tmp, "pins-")
		if err != nil {
			return err
		}
		man, err := buildInputs(w, pins.Seed, dir)
		os.RemoveAll(dir)
		if err != nil {
			return err
		}
		for _, g := range man.Graphs {
			g.Path = ""
			pins.Workloads[w.Name] = append(pins.Workloads[w.Name], g)
		}
	}
	return writeJSONFile(filepath.Join(e.root, "bench", "pins.json"), pins)
}

// runSelfcheck is the A/A stability check: the full set twice on the same
// binary, the second time in reverse order, compared metric by metric.
// Timed end-to-end metrics must agree within their bound; exact metrics
// (counts the program makes) must be identical. It prints STABILITY.md and
// fails if anything disagrees.
func runSelfcheck(ctx context.Context, e *env, seed int64, seconds float64) error {
	names, err := workloadNames(e.scale)
	if err != nil {
		return err
	}
	if err := buildBinaries(ctx, e); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "bench: selfcheck set A")
	a, err := runSet(ctx, e, names, seed, seconds, false)
	if err != nil {
		return err
	}
	reversed := slices.Clone(names)
	slices.Reverse(reversed)
	fmt.Fprintln(os.Stderr, "bench: selfcheck set B (reverse order)")
	b, err := runSet(ctx, e, reversed, seed, seconds, false)
	if err != nil {
		return err
	}

	fmt.Println("# A/A stability")
	fmt.Println()
	fmt.Println("Output of `bench/run.sh -selfcheck`: the full set run twice on one binary,")
	fmt.Println("set B in reverse workload order. A timed end-to-end metric passes when the")
	fmt.Println("two sets differ by no more than its bound; an exact metric (a count the")
	fmt.Println("program makes) passes only when the two sets are identical.")
	fmt.Println()
	fmt.Println("```")
	printProvenance(e, seed, seconds)
	fmt.Println("```")
	fmt.Println()
	fmt.Println("## End-to-end metrics")
	fmt.Println()
	fmt.Println("| workload | metric | unit | A | B | diff | bound | verdict |")
	fmt.Println("|---|---|---|---|---|---|---|---|")
	bad := 0
	for _, name := range names {
		if a[name].Failed+b[name].Failed > 0 {
			bad++
			fmt.Printf("| %s | failed operations | count | %d | %d | | 0 | FAIL |\n", name, a[name].Failed, b[name].Failed)
		}
		for _, d := range endToEnd {
			va, vb := a[name].EndToEnd[d.Name], b[name].EndToEnd[d.Name]
			diff := math.Abs(va-vb) / math.Min(va, vb)
			limit, limitText := d.Bound, fmt.Sprintf("%g%%", d.Bound*100)
			if d.Exact {
				limit, limitText = 0, "exact"
			}
			verdict := "ok"
			if diff > limit || math.IsNaN(diff) {
				verdict = "FAIL"
				bad++
			}
			fmt.Printf("| %s | %s | %s | %.6g | %.6g | %.2f%% | %s | %s |\n", name, d.Name, d.Unit, va, vb, diff*100, limitText, verdict)
		}
	}
	fmt.Println()
	fmt.Println("## Exact per-layer metrics")
	fmt.Println()
	fmt.Println("Identical in both sets unless listed here.")
	fmt.Println()
	for _, name := range names {
		for _, d := range perLayer {
			if va, vb := a[name].PerLayer[d.Name], b[name].PerLayer[d.Name]; d.Exact && va != vb {
				bad++
				fmt.Printf("- FAIL %s %s: A=%v B=%v\n", name, d.Name, va, vb)
			}
		}
	}
	fmt.Println()
	if bad > 0 {
		fmt.Printf("**%d disagreements.**\n", bad)
		return fmt.Errorf("selfcheck: %d metrics disagree between two runs of the same code", bad)
	}
	fmt.Println("**All metrics agree.**")
	return nil
}
