// Command pdtl-lint runs PDTL's project-specific static analyzers (see
// internal/analysis) over the packages the patterns match, ./... by
// default:
//
//	pdtl-lint [-json] [packages]
//
// It type-checks the packages, their test variants and their module
// dependencies in one process, so analysis facts flow across package
// boundaries, and prints one file:line:col: message line per finding.
// -json prints the findings instead as a flat JSON array of {file,
// line, analyzer, message} objects. The exit code is 0 on a clean tree,
// 1 with findings, and 2 when the packages do not load.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"pdtl/internal/analysis"
	"pdtl/internal/analysis/ctxflow"
	"pdtl/internal/analysis/determinism"
	"pdtl/internal/analysis/hotpathalloc"
	"pdtl/internal/analysis/metricreg"
	"pdtl/internal/analysis/wirecompat"
)

// analyzers is the pdtl-lint suite, in stable order.
var analyzers = []*analysis.Analyzer{
	ctxflow.Analyzer,
	determinism.Analyzer,
	hotpathalloc.Analyzer,
	metricreg.Analyzer,
	wirecompat.Analyzer,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run lints the packages args name, from the working directory, and
// returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pdtl-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as a flat JSON array on stdout")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: pdtl-lint [-json] [packages]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	found, err := analysis.Lint(patterns, analyzers)
	if err != nil {
		fmt.Fprintf(stderr, "pdtl-lint: %v\n", err)
		return 2
	}
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(found); err != nil {
			fmt.Fprintf(stderr, "pdtl-lint: %v\n", err)
			return 2
		}
	} else {
		for _, f := range found {
			fmt.Fprintf(stdout, "%s:%d:%d: %s\n", f.File, f.Line, f.Col, f.Message)
		}
	}
	if len(found) > 0 {
		return 1
	}
	return 0
}
