// Package determinism enforces PDTL's byte-identical-listing guarantee
// at compile time: in the listing-order-sensitive packages (the MGT pass
// loop, the chunk scheduler, and the core engine's assembly paths),
// sources of nondeterminism are banned unless explicitly waived with
//
//	//pdtl:nondeterministic-ok <reason>
//
// on the offending line, the line above it, or the enclosing function's
// doc comment. A waiver without a reason is itself a diagnostic.
//
// Flagged constructs: ranging over a map (iteration order is
// randomized), time.Now/Since/Until (wall-clock reads), and any use of
// math/rand or math/rand/v2. Test files are exempt — tests seed their
// own randomness deliberately.
package determinism

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"

	"pdtl/internal/analysis"
	"pdtl/internal/analysis/pdtldir"
)

// Analyzer is the determinism pass.
var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc:  "ban map ranges, wall-clock reads, and math/rand in listing-order-sensitive packages",
	Run:  run,
}

// Packages lists the import paths the analyzer applies to; fixtures
// replace it to opt themselves in.
var Packages = []string{"pdtl/internal/mgt", "pdtl/internal/sched", "pdtl/internal/core"}

func run(pass *analysis.Pass) {
	if !slices.Contains(Packages, strings.TrimSuffix(pass.Pkg.Path(), "_test")) {
		return
	}
	ix := pdtldir.NewIndex(pass.Fset, pass.Files)
	for _, f := range pass.Files {
		name := pass.Fset.Position(f.Pos()).Filename
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			switch n := n.(type) {
			case *ast.RangeStmt:
				if t := pass.TypesInfo.TypeOf(n.X); t != nil {
					if _, ok := t.Underlying().(*types.Map); ok {
						report(pass, ix, stack, n.Pos(),
							"map iteration order is nondeterministic in a listing-order-sensitive package (iterate sorted keys)")
					}
				}
			case *ast.SelectorExpr:
				obj := pass.TypesInfo.Uses[n.Sel]
				if obj == nil || obj.Pkg() == nil {
					return true
				}
				switch obj.Pkg().Path() {
				case "time":
					switch obj.Name() {
					case "Now", "Since", "Until":
						report(pass, ix, stack, n.Pos(),
							"time."+obj.Name()+" reads the wall clock, which is nondeterministic in a listing-order-sensitive package")
					}
				case "math/rand", "math/rand/v2":
					report(pass, ix, stack, n.Pos(),
						obj.Pkg().Path()+" is nondeterministic in a listing-order-sensitive package")
				}
			}
			return true
		})
	}
}

// report emits the diagnostic unless a //pdtl:nondeterministic-ok waiver
// with a non-empty reason covers pos (line-level) or the enclosing
// function's doc. A reason-less waiver is reported instead.
func report(pass *analysis.Pass, ix *pdtldir.Index, stack []ast.Node, pos token.Pos, msg string) {
	if arg, ok := ix.At(pos, pdtldir.NondetOK); ok {
		if arg == "" {
			pass.Reportf(pos, "//pdtl:nondeterministic-ok needs a reason")
		}
		return
	}
	for i := len(stack) - 1; i >= 0; i-- {
		fd, ok := stack[i].(*ast.FuncDecl)
		if !ok {
			continue
		}
		if arg, ok := pdtldir.FromDoc(fd.Doc, pdtldir.NondetOK); ok {
			if arg == "" {
				pass.Reportf(fd.Pos(), "//pdtl:nondeterministic-ok needs a reason")
			}
			return
		}
	}
	pass.Reportf(pos, "%s (or annotate //pdtl:nondeterministic-ok <reason>)", msg)
}
