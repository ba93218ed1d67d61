// Package analysis is the pass API and the loader of pdtl-lint, PDTL's
// project-specific static analyzers. Each analyzer (one subpackage
// apiece) pins one load-bearing engine invariant that ordinary tests
// cover only probabilistically:
//
//   - hotpathalloc: //pdtl:hotpath functions (and their module callees)
//     contain no allocating constructs.
//   - wirecompat: gob wire structs use keyed literals everywhere, and
//     the committed wire.fingerprint only ever grows (append-only).
//   - ctxflow: context plumbing — no detached Background calls, bare
//     ctx.Err() returns, ctx-checked blocking loops.
//   - determinism: no map ranges, wall-clock reads, or math/rand in
//     listing-order-sensitive packages without an explained waiver.
//   - metricreg: obs metric names match ^pdtl_[a-z_]+$, carry HELP
//     text, and register once.
//
// The loader (Lint) type-checks a module's packages in one process and
// runs the analyzers over them; cmd/pdtl-lint is its command line.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
)

// Analyzer is one pdtl-lint check. Run inspects one package and
// reports through the pass.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Pass is one analyzer's view of one type-checked package.
type Pass struct {
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)

	// ImportObjectFact copies into fact the fact of fact's type that an
	// earlier pass exported for obj, and reports whether there was one.
	ImportObjectFact func(obj types.Object, fact Fact) bool
	// ExportObjectFact records fact for obj, for the passes of the
	// packages that import this one.
	ExportObjectFact func(obj types.Object, fact Fact)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Fact is what an analyzer learns about an object of one package and
// reads back in the packages that import it. A fact is a pointer to a
// struct.
type Fact interface{ AFact() }

// Facts holds the object facts of one run: a package's passes see the
// facts the passes of its dependencies exported, so packages must be
// run in dependency order.
type Facts map[factKey]Fact

type factKey struct {
	obj types.Object
	typ reflect.Type
}

// Run runs a over one type-checked package, reporting a's diagnostics
// to report.
func (fs Facts) Run(a *Analyzer, fset *token.FileSet, pkg *Package, report func(Diagnostic)) {
	a.Run(&Pass{
		Fset:      fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.Info,
		Report:    report,
		ImportObjectFact: func(obj types.Object, fact Fact) bool {
			f, ok := fs[factKey{obj, reflect.TypeOf(fact)}]
			if ok {
				reflect.ValueOf(fact).Elem().Set(reflect.ValueOf(f).Elem())
			}
			return ok
		},
		ExportObjectFact: func(obj types.Object, fact Fact) {
			fs[factKey{obj, reflect.TypeOf(fact)}] = fact
		},
	})
}

// StaticCallee returns the function or method a call statically
// invokes: nil for a call through a function value or an interface
// method, of a builtin, or for a conversion.
func StaticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(ix.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(ix.X)
	}
	var obj types.Object
	switch fun := fun.(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			obj = sel.Obj()
		} else {
			obj = info.Uses[fun.Sel]
		}
	}
	f, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	if recv := f.Signature().Recv(); recv != nil && types.IsInterface(recv.Type()) {
		return nil
	}
	return f
}
