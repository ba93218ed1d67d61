// Package hotpathalloc statically enforces PDTL's zero-allocation hot
// paths: a function whose doc comment carries the //pdtl:hotpath
// directive may not contain allocating constructs, and may not
// statically call a module function that does. The runtime AllocsPerRun
// pins catch regressions only on the inputs the tests exercise; this
// analyzer checks every line of every build.
//
// Allocating constructs flagged in an annotated function's body:
//
//   - make and new
//   - heap-bound composite literals: &T{...}, and slice or map literals
//   - closures that capture enclosing variables (the closure object and
//     captured variables move to the heap)
//   - interface boxing: passing, assigning, or returning a non-pointer-
//     shaped concrete value where an interface is expected
//   - calls into package fmt (all of which allocate)
//   - calls to module functions that themselves may allocate, found
//     transitively via a per-function summary exported as an analysis
//     fact — the directive propagates to static callees across package
//     boundaries
//
// Deliberately NOT flagged, documented here so reviewers know the
// contract: append (amortized, budgeted by the caller's pre-sized
// buffers), string conversions/concatenation (absent from the engine's
// hot paths), and dynamic calls through interfaces (the callee behind
// an interface is the caller's business: the sink's Triangles, say).
package hotpathalloc

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"runtime"

	"pdtl/internal/analysis"
	"pdtl/internal/analysis/pdtldir"
)

// Analyzer is the hotpathalloc pass.
var Analyzer = &analysis.Analyzer{
	Name: "hotpathalloc",
	Doc:  "forbid allocating constructs in //pdtl:hotpath functions and their module callees",
	Run:  run,
}

// AllocFact marks a function that may allocate, with a one-line cause.
// It is exported for every such function so annotated callers in
// downstream packages flag the call site.
type AllocFact struct{ Why string }

// AFact marks AllocFact as an analysis fact.
func (*AllocFact) AFact() {}

// sizes is the layout the gc compiler gives types on this machine.
var sizes = types.SizesFor("gc", runtime.GOARCH)

// site is one allocating construct inside a function body.
type site struct {
	pos token.Pos
	why string
}

// callSite is one statically resolved call.
type callSite struct {
	pos    token.Pos
	callee *types.Func
}

type fnInfo struct {
	decl    *ast.FuncDecl
	hotpath bool
	direct  []site
	calls   []callSite
	// why is non-empty once the function is known to possibly allocate.
	why string
}

func run(pass *analysis.Pass) {
	infos := make(map[*types.Func]*fnInfo)
	var order []*types.Func
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			_, hot := pdtldir.FromDoc(fd.Doc, pdtldir.HotPath)
			info := &fnInfo{decl: fd, hotpath: hot}
			collect(pass, fd, info)
			infos[obj] = info
			order = append(order, obj)
		}
	}

	// Seed: direct allocations.
	for _, obj := range order {
		if info := infos[obj]; len(info.direct) > 0 {
			p := pass.Fset.Position(info.direct[0].pos)
			info.why = fmt.Sprintf("%s at %s:%d", info.direct[0].why, p.Filename, p.Line)
		}
	}
	// Fixpoint: propagate through same-package static calls. Cross-package
	// callees resolve through imported facts and are stable within one pass.
	for changed := true; changed; {
		changed = false
		for _, obj := range order {
			info := infos[obj]
			if info.why != "" {
				continue
			}
			for _, c := range info.calls {
				if why := calleeWhy(pass, infos, c.callee); why != "" {
					info.why = fmt.Sprintf("calls %s, which may allocate (%s)", c.callee.FullName(), why)
					changed = true
					break
				}
			}
		}
	}

	// Export facts so annotated callers in downstream packages see through
	// this package's functions.
	for _, obj := range order {
		if info := infos[obj]; info.why != "" {
			pass.ExportObjectFact(obj, &AllocFact{Why: info.why})
		}
	}

	// Diagnostics, only inside annotated functions.
	for _, obj := range order {
		info := infos[obj]
		if !info.hotpath {
			continue
		}
		for _, s := range info.direct {
			pass.Reportf(s.pos, "//pdtl:hotpath function %s: %s", obj.Name(), s.why)
		}
		for _, c := range info.calls {
			if why := calleeWhy(pass, infos, c.callee); why != "" {
				pass.Reportf(c.pos, "//pdtl:hotpath function %s calls %s, which may allocate: %s", obj.Name(), c.callee.FullName(), why)
			}
		}
	}
}

// calleeWhy reports why a statically resolved callee may allocate, or ""
// if it is (or must be assumed) allocation-free. Module-external callees
// without facts are assumed clean, except package fmt.
func calleeWhy(pass *analysis.Pass, infos map[*types.Func]*fnInfo, fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	if fn.Pkg() == pass.Pkg {
		if info, ok := infos[fn]; ok {
			return info.why
		}
		return ""
	}
	if fn.Pkg().Path() == "fmt" {
		return "all fmt functions allocate"
	}
	var fact AllocFact
	if pass.ImportObjectFact(fn, &fact) {
		return fact.Why
	}
	return ""
}

// collect records every direct allocating construct and every statically
// resolved call in fd's body.
func collect(pass *analysis.Pass, fd *ast.FuncDecl, info *fnInfo) {
	inAddrOf := make(map[*ast.CompositeLit]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			collectCall(pass, n, info)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if cl, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					inAddrOf[cl] = true
					info.direct = append(info.direct, site{n.Pos(), "address-of composite literal allocates"})
				}
			}
		case *ast.CompositeLit:
			if inAddrOf[n] {
				return true
			}
			switch pass.TypesInfo.TypeOf(n).Underlying().(type) {
			case *types.Slice:
				info.direct = append(info.direct, site{n.Pos(), "slice literal allocates"})
				// The outer literal is the allocation; don't descend into
				// element literals and double-report.
				return false
			case *types.Map:
				info.direct = append(info.direct, site{n.Pos(), "map literal allocates"})
				return false
			}
		case *ast.FuncLit:
			if v := captured(pass, fd, n); v != "" {
				info.direct = append(info.direct, site{n.Pos(), fmt.Sprintf("closure captures %s and allocates", v)})
			}
		case *ast.ReturnStmt:
			collectReturnBoxing(pass, fd, n, info)
		case *ast.AssignStmt:
			collectAssignBoxing(pass, n, info)
		case *ast.ValueSpec:
			collectSpecBoxing(pass, n, info)
		}
		return true
	})
}

// collectCall handles make/new, static callees, and argument boxing.
func collectCall(pass *analysis.Pass, call *ast.CallExpr, info *fnInfo) {
	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				info.direct = append(info.direct, site{call.Pos(), "make allocates"})
			case "new":
				info.direct = append(info.direct, site{call.Pos(), "new allocates"})
			}
			return
		}
	}
	// Conversions are not calls.
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		return
	}
	if callee := analysis.StaticCallee(pass.TypesInfo, call); callee != nil {
		info.calls = append(info.calls, callSite{call.Pos(), callee})
		if callee.Pkg() != nil && callee.Pkg().Path() == "fmt" {
			// The call itself is already flagged through the fmt denylist;
			// boxing its ...any arguments would double-report.
			return
		}
	}
	sig, ok := pass.TypesInfo.TypeOf(call.Fun).(*types.Signature)
	if ok {
		collectArgBoxing(pass, call, sig, info)
	}
}

// collectArgBoxing flags concrete non-pointer-shaped values passed to
// interface parameters.
func collectArgBoxing(pass *analysis.Pass, call *ast.CallExpr, sig *types.Signature, info *fnInfo) {
	if call.Ellipsis.IsValid() {
		return // slice passed through; no per-element boxing here
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			st, ok := params.At(params.Len() - 1).Type().(*types.Slice)
			if !ok {
				continue
			}
			pt = st.Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if why := boxes(pass, pt, pass.TypesInfo.TypeOf(arg)); why != "" {
			info.direct = append(info.direct, site{arg.Pos(), why})
		}
	}
}

func collectReturnBoxing(pass *analysis.Pass, fd *ast.FuncDecl, ret *ast.ReturnStmt, info *fnInfo) {
	results := fd.Type.Results
	if results == nil || len(ret.Results) == 0 {
		return
	}
	// Only the one-to-one form; "return f()" spreads are rare and skipped.
	var resTypes []types.Type
	for _, field := range results.List {
		t := pass.TypesInfo.TypeOf(field.Type)
		n := max(len(field.Names), 1)
		for range n {
			resTypes = append(resTypes, t)
		}
	}
	if len(resTypes) != len(ret.Results) {
		return
	}
	for i, e := range ret.Results {
		if why := boxes(pass, resTypes[i], pass.TypesInfo.TypeOf(e)); why != "" {
			info.direct = append(info.direct, site{e.Pos(), why})
		}
	}
}

func collectAssignBoxing(pass *analysis.Pass, as *ast.AssignStmt, info *fnInfo) {
	if as.Tok != token.ASSIGN || len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i := range as.Lhs {
		lt := pass.TypesInfo.TypeOf(as.Lhs[i])
		if lt == nil {
			continue
		}
		if why := boxes(pass, lt, pass.TypesInfo.TypeOf(as.Rhs[i])); why != "" {
			info.direct = append(info.direct, site{as.Rhs[i].Pos(), why})
		}
	}
}

func collectSpecBoxing(pass *analysis.Pass, spec *ast.ValueSpec, info *fnInfo) {
	if spec.Type == nil || len(spec.Values) == 0 {
		return
	}
	lt := pass.TypesInfo.TypeOf(spec.Type)
	for _, v := range spec.Values {
		if why := boxes(pass, lt, pass.TypesInfo.TypeOf(v)); why != "" {
			info.direct = append(info.direct, site{v.Pos(), why})
		}
	}
}

// boxes reports why storing a value of type "from" into a location of
// type "to" allocates, or "" when it does not: the destination must be
// an interface and the source a concrete type the runtime cannot store
// directly in the interface word.
func boxes(pass *analysis.Pass, to, from types.Type) string {
	if to == nil || from == nil || !types.IsInterface(to) {
		return ""
	}
	if types.IsInterface(from) {
		return "" // interface-to-interface conversions don't box
	}
	if b, ok := from.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return ""
	}
	switch from.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return "" // pointer-shaped: stored directly in the interface word
	case *types.Basic:
		if from.Underlying().(*types.Basic).Kind() == types.UnsafePointer {
			return ""
		}
	}
	if sizes.Sizeof(from) == 0 {
		return "" // zero-sized values box to a static address
	}
	return fmt.Sprintf("interface boxing of %s allocates", types.TypeString(from, types.RelativeTo(pass.Pkg)))
}

// captured returns the name of a variable the func literal captures from
// its enclosing function, or "" when it captures nothing (a capture-free
// literal compiles to a static closure and does not allocate).
func captured(pass *analysis.Pass, fd *ast.FuncDecl, lit *ast.FuncLit) string {
	name := ""
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if name != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		// Captured = declared inside the enclosing function but outside
		// this literal. Package-level vars aren't captures.
		if v.Pos() >= fd.Pos() && v.Pos() < fd.End() && (v.Pos() < lit.Pos() || v.Pos() >= lit.End()) {
			name = v.Name()
			return false
		}
		return true
	})
	return name
}
