package wirecompat_test

import (
	"testing"

	"pdtl/internal/analysis/atest"
	"pdtl/internal/analysis/wirecompat"
)

// withWirePkg points the analyzer at a fixture package for the duration
// of one subtest.
func withWirePkg(t *testing.T, pkg string) {
	t.Helper()
	def := wirecompat.WirePkg
	wirecompat.WirePkg = pkg
	t.Cleanup(func() { wirecompat.WirePkg = def })
}

func TestCleanAndKeyedLiterals(t *testing.T) {
	withWirePkg(t, "wirefix")
	atest.Run(t, wirecompat.Analyzer, "wirefix", "wireuse")
}

func TestAppendOnlyBreaks(t *testing.T) {
	withWirePkg(t, "wirebreak")
	atest.Run(t, wirecompat.Analyzer, "wirebreak")
}

func TestStaleGolden(t *testing.T) {
	withWirePkg(t, "wirestale")
	atest.Run(t, wirecompat.Analyzer, "wirestale")
}

// TestDefaultWirePkg pins the production configuration.
func TestDefaultWirePkg(t *testing.T) {
	if got := wirecompat.WirePkg; got != "pdtl/internal/cluster" {
		t.Fatalf("default WirePkg = %q", got)
	}
}
