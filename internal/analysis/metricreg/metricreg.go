// Package metricreg statically checks every obs.Registry metric
// registration: the name must be a compile-time constant matching
// ^pdtl_[a-z_]+$, the HELP text must be a non-empty constant, and a
// name may be registered at most once per package — the obs registry is
// idempotent at runtime, so a duplicate registration silently aliases
// an existing series, which obslint only catches at scrape time (and
// only for series a scrape happens to exercise).
package metricreg

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"regexp"
	"strings"

	"pdtl/internal/analysis"
)

// Analyzer is the metricreg pass.
var Analyzer = &analysis.Analyzer{
	Name: "metricreg",
	Doc:  "check obs.Registry metric names (^pdtl_[a-z_]+$), HELP text, and once-only registration",
	Run:  run,
}

// obsPkgPath identifies the registry package; the method set below are
// its registration entry points (CounterVec.With is a series lookup,
// not a registration, and is deliberately absent).
const obsPkgPath = "pdtl/internal/obs"

var registerMethods = map[string]bool{
	"Counter":     true,
	"Gauge":       true,
	"CounterFunc": true,
	"GaugeFunc":   true,
	"ConstGauge":  true,
	"CounterVec":  true,
	"Histogram":   true,
}

var nameRE = regexp.MustCompile(`^pdtl_[a-z_]+$`)

func run(pass *analysis.Pass) {
	// Fast path: packages that never import obs have nothing to check.
	imports := false
	for _, p := range pass.Pkg.Imports() {
		if p.Path() == obsPkgPath {
			imports = true
			break
		}
	}
	if !imports && pass.Pkg.Path() != obsPkgPath {
		return
	}
	seen := make(map[string]token.Pos) // metric name → first registration
	for _, f := range pass.Files {
		// Tests register toy names on scratch registries to exercise the
		// machinery itself; the production naming policy applies only to
		// real registrations.
		if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !registerMethods[sel.Sel.Name] {
				return true
			}
			callee, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if !ok {
				return true
			}
			sig, ok := callee.Type().(*types.Signature)
			if !ok || sig.Recv() == nil {
				return true
			}
			if !isObsRegistry(sig.Recv().Type()) {
				return true
			}
			if len(call.Args) < 2 {
				return true
			}
			name, nameOK := constString(pass, call.Args[0])
			if !nameOK {
				pass.Reportf(call.Args[0].Pos(), "obs metric name must be a compile-time string constant")
				return true
			}
			if !nameRE.MatchString(name) {
				pass.Reportf(call.Args[0].Pos(), "obs metric name %q does not match ^pdtl_[a-z_]+$", name)
			}
			if help, ok := constString(pass, call.Args[1]); !ok {
				pass.Reportf(call.Args[1].Pos(), "obs metric %q HELP text must be a compile-time string constant", name)
			} else if help == "" {
				pass.Reportf(call.Args[1].Pos(), "obs metric %q needs non-empty HELP text", name)
			}
			if first, dup := seen[name]; dup {
				p := pass.Fset.Position(first)
				pass.Reportf(call.Pos(), "obs metric %q registered more than once (first at %s:%d)", name, p.Filename, p.Line)
			} else {
				seen[name] = call.Pos()
			}
			return true
		})
	}
}

// isObsRegistry reports whether t is obs.Registry or *obs.Registry.
func isObsRegistry(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Registry" && obj.Pkg() != nil && obj.Pkg().Path() == obsPkgPath
}

// constString evaluates e as a constant string.
func constString(pass *analysis.Pass, e ast.Expr) (string, bool) {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}
