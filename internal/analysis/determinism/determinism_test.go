package determinism_test

import (
	"slices"
	"testing"

	"pdtl/internal/analysis/atest"
	"pdtl/internal/analysis/determinism"
)

func TestDeterminism(t *testing.T) {
	def := determinism.Packages
	determinism.Packages = []string{"detfix"}
	defer func() { determinism.Packages = def }()
	atest.Run(t, determinism.Analyzer, "detfix")
}

// TestDefaultPackages pins the enforced set: the MGT pass loop, the
// scheduler, and the core engine.
func TestDefaultPackages(t *testing.T) {
	want := []string{"pdtl/internal/mgt", "pdtl/internal/sched", "pdtl/internal/core"}
	if !slices.Equal(determinism.Packages, want) {
		t.Fatalf("default Packages = %q, want %q", determinism.Packages, want)
	}
}
