// Package wirecompat guards the cluster's gob wire format.
//
// Two checks:
//
//  1. Everywhere in the module, composite literals of structs declared
//     in the wire file (internal/cluster/wire.go) must use keyed
//     fields. Positional literals compile today and silently shear off
//     onto the wrong fields the day someone appends a field — which the
//     append-only policy explicitly invites them to do.
//
//  2. In the wire package itself, the live struct definitions are
//     fingerprinted (see internal/analysis/wirefp) and diffed against
//     the committed wire.fingerprint golden. Appending fields or
//     structs passes; renaming, retyping, removing, or reordering is
//     reported as a wire break. A stale golden (missing newly appended
//     fields) is reported as a reminder to run go generate.
package wirecompat

import (
	"go/ast"
	"go/types"
	"os"
	"path/filepath"
	"strings"

	"pdtl/internal/analysis"
	"pdtl/internal/analysis/wirefp"
)

// Analyzer is the wirecompat pass.
var Analyzer = &analysis.Analyzer{
	Name: "wirecompat",
	Doc:  "require keyed literals for gob wire structs and enforce the append-only wire fingerprint",
	Run:  run,
}

// WirePkg is the package whose wire.go defines the gob protocol;
// fixtures replace it to opt themselves in.
var WirePkg = "pdtl/internal/cluster"

const (
	// wireFile is the base name of the defining file inside WirePkg.
	wireFile = "wire.go"
	// goldenName is the committed fingerprint, next to the wire file.
	goldenName = "wire.fingerprint"
)

func run(pass *analysis.Pass) {
	checkKeyedLiterals(pass)
	if strings.TrimSuffix(pass.Pkg.Path(), "_test") == WirePkg {
		checkFingerprint(pass)
	}
}

// isWireStruct reports whether named is a struct declared in the wire
// file of the wire package.
func isWireStruct(pass *analysis.Pass, named *types.Named) bool {
	tn := named.Obj()
	if tn.Pkg() == nil || tn.Pkg().Path() != WirePkg {
		return false
	}
	if _, ok := named.Underlying().(*types.Struct); !ok {
		return false
	}
	return filepath.Base(pass.Fset.Position(tn.Pos()).Filename) == wireFile
}

// checkKeyedLiterals flags positional composite literals of wire
// structs, wherever in the module they appear.
func checkKeyedLiterals(pass *analysis.Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok || len(lit.Elts) == 0 {
				return true
			}
			t := pass.TypesInfo.TypeOf(lit)
			if t == nil {
				return true
			}
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			named, ok := t.(*types.Named)
			if !ok || !isWireStruct(pass, named) {
				return true
			}
			if _, keyed := lit.Elts[0].(*ast.KeyValueExpr); !keyed {
				pass.Reportf(lit.Pos(),
					"wire struct %s.%s must use keyed fields: positional literals break silently when a wire field is appended",
					named.Obj().Pkg().Name(), named.Obj().Name())
			}
			return true
		})
	}
}

// checkFingerprint diffs the live wire types against the committed
// golden under the append-only policy.
func checkFingerprint(pass *analysis.Pass) {
	// Locate the wire file among this package's files; the in-package
	// test variant re-analyzes the same sources, so only the variant
	// that actually contains wire.go runs the diff (no double reports).
	var wireDecl *ast.File
	for _, f := range pass.Files {
		if filepath.Base(pass.Fset.Position(f.Pos()).Filename) == wireFile {
			wireDecl = f
			break
		}
	}
	if wireDecl == nil {
		return
	}
	dir := filepath.Dir(pass.Fset.Position(wireDecl.Pos()).Filename)
	goldenPath := filepath.Join(dir, goldenName)
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		pass.Reportf(wireDecl.Pos(), "wire fingerprint %s is missing (run: go generate ./internal/cluster): %v", goldenName, err)
		return
	}
	committed, err := wirefp.Parse(data)
	if err != nil {
		pass.Reportf(wireDecl.Pos(), "wire fingerprint %s is unreadable: %v", goldenName, err)
		return
	}
	live, err := wirefp.Compute(pass.Pkg, pass.Fset, wireFile)
	if err != nil {
		pass.Reportf(wireDecl.Pos(), "computing live wire fingerprint: %v", err)
		return
	}
	breaks := wirefp.CompareAppendOnly(committed, live)
	for _, msg := range breaks {
		pass.Reportf(wireDecl.Pos(), "%s", msg)
	}
	// The reverse direction is not a wire break, just a stale golden:
	// appended fields exist in the live types but not in the file.
	if len(breaks) == 0 && string(live.Marshal()) != string(data) {
		pass.Reportf(wireDecl.Pos(), "wire fingerprint %s is stale; run: go generate ./internal/cluster", goldenName)
	}
}
