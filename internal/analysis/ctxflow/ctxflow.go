// Package ctxflow enforces PDTL's context conventions (established in
// PR 2 and load-bearing ever since): long-running work is cancellable,
// and cancellation surfaces as the bare ctx.Err().
//
// Three rules, scoped to what can be decided reliably from one
// package's syntax and types:
//
//  1. A function that already receives a context.Context must not hand
//     context.Background() or context.TODO() to a callee — that
//     detaches the callee from the caller's cancellation. (Assigning
//     Background to default a nil ctx is the documented idiom and is
//     allowed; so is Background inside a `go`-launched literal, which
//     is deliberately detached work.)
//  2. Cancellation errors return bare: fmt.Errorf("...%w", ctx.Err())
//     and friends are flagged, because every engine layer compares
//     errors.Is(err, context.Canceled) against the *unwrapped*
//     convention and the cluster wire re-encodes error strings.
//  3. In a function with a context.Context parameter, a loop that does
//     blocking work — file/socket reads or writes, *rpc.Client calls,
//     or calls into cancellable (ctx-taking) APIs — must consult a
//     context somewhere in the loop: check ctx.Err(), select on
//     ctx.Done(), or pass ctx to a callee. This is the chunk/window
//     loop rule: one check per iteration bounds cancellation latency.
//
// Test files are exempt from rules 1 and 3.
package ctxflow

import (
	"go/ast"
	"go/types"
	"strings"

	"pdtl/internal/analysis"
)

// Analyzer is the ctxflow pass.
var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc:  "enforce context plumbing: no detached Background calls, bare ctx.Err() returns, ctx-checked blocking loops",
	Run:  run,
}

func run(pass *analysis.Pass) {
	for _, f := range pass.Files {
		test := strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go")
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkBareErr(pass, fd)
			if test {
				continue
			}
			if !hasCtxParam(pass, fd) {
				continue
			}
			checkDetachedBackground(pass, fd)
			checkBlockingLoops(pass, fd)
		}
	}
}

// isCtxType reports whether t is context.Context.
func isCtxType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

func hasCtxParam(pass *analysis.Pass, fd *ast.FuncDecl) bool {
	if fd.Type.Params == nil {
		return false
	}
	for _, field := range fd.Type.Params.List {
		if isCtxType(pass.TypesInfo.TypeOf(field.Type)) {
			return true
		}
	}
	return false
}

// checkDetachedBackground flags context.Background()/TODO() passed as a
// call argument inside a ctx-bearing function, outside go-launched
// literals.
func checkDetachedBackground(pass *analysis.Pass, fd *ast.FuncDecl) {
	// Positions covered by a `go func(){...}()` literal are exempt.
	type span struct{ lo, hi ast.Node }
	var detached []span
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		g, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
			detached = append(detached, span{lit, lit})
		}
		return true
	})
	inDetached := func(n ast.Node) bool {
		for _, s := range detached {
			if n.Pos() >= s.lo.Pos() && n.End() <= s.hi.End() {
				return true
			}
		}
		return false
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, arg := range call.Args {
			inner, ok := ast.Unparen(arg).(*ast.CallExpr)
			if !ok {
				continue
			}
			fn := analysis.StaticCallee(pass.TypesInfo, inner)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
				continue
			}
			if (fn.Name() == "Background" || fn.Name() == "TODO") && !inDetached(arg) {
				pass.Reportf(arg.Pos(), "function %s has a context.Context parameter; pass it (or derive from it) instead of context.%s()", fd.Name.Name, fn.Name())
			}
		}
		return true
	})
}

// checkBareErr flags wrapping ctx.Err() in fmt.Errorf: cancellation
// errors must be returned bare.
func checkBareErr(pass *analysis.Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := analysis.StaticCallee(pass.TypesInfo, call)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "fmt" || fn.Name() != "Errorf" {
			return true
		}
		for _, arg := range call.Args {
			inner, ok := ast.Unparen(arg).(*ast.CallExpr)
			if !ok {
				continue
			}
			sel, ok := inner.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Err" || len(inner.Args) != 0 {
				continue
			}
			if recv := pass.TypesInfo.TypeOf(sel.X); recv != nil && isCtxType(recv) {
				pass.Reportf(call.Pos(), "wrapping ctx.Err() breaks the bare-cancellation convention; return ctx.Err() itself")
			}
		}
		return true
	})
}

// checkBlockingLoops flags for/range loops that do blocking work without
// consulting any context.
func checkBlockingLoops(pass *analysis.Pass, fd *ast.FuncDecl) {
	// Walk outermost loops; nested loops are covered by their outermost
	// enclosing loop (a ctx check at any depth inside it counts).
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		var body *ast.BlockStmt
		switch l := n.(type) {
		case *ast.ForStmt:
			body = l.Body
		case *ast.RangeStmt:
			body = l.Body
		default:
			return true
		}
		if blockPos, what := firstBlockingCall(pass, body); blockPos != nil {
			if !referencesCtx(pass, body) {
				pass.Reportf(blockPos.Pos(), "loop in %s %s without consulting a context; check ctx.Err() or pass ctx once per iteration", fd.Name.Name, what)
			}
		}
		return false // outermost loop handled; don't re-flag inner loops
	}
	ast.Inspect(fd.Body, visit)
}

// firstBlockingCall finds a call that blocks or is cancellable: an
// *rpc.Client Call/Go, an I/O method on a file/socket-like receiver, or
// a callee that itself takes a context.Context (a cancellable API being
// driven in a loop).
func firstBlockingCall(pass *analysis.Pass, body ast.Node) (at ast.Node, what string) {
	ast.Inspect(body, func(n ast.Node) bool {
		if at != nil {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := analysis.StaticCallee(pass.TypesInfo, call)
		if fn == nil {
			// Dynamic call: still blocking if it's an io-style method.
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && ioMethod(pass, sel) {
				at, what = call, "performs I/O ("+sel.Sel.Name+")"
			}
			return true
		}
		sig, _ := fn.Type().(*types.Signature)
		if sig != nil {
			for i := 0; i < sig.Params().Len(); i++ {
				if isCtxType(sig.Params().At(i).Type()) {
					at, what = call, "calls cancellable "+fn.Name()
					return false
				}
			}
		}
		if recv := recvType(fn); recv != "" {
			switch {
			case recv == "net/rpc.Client" && (fn.Name() == "Call" || fn.Name() == "Go"):
				at, what = call, "issues RPCs"
				return false
			case ioReceiver(recv) && ioName(fn.Name()):
				at, what = call, "performs I/O ("+recv+"."+fn.Name()+")"
				return false
			}
		}
		return true
	})
	return at, what
}

// referencesCtx reports whether any expression of type context.Context
// is used inside n.
func referencesCtx(pass *analysis.Pass, n ast.Node) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if found {
			return false
		}
		id, ok := m.(*ast.Ident)
		if !ok {
			return true
		}
		if obj := pass.TypesInfo.Uses[id]; obj != nil && isCtxType(obj.Type()) {
			found = true
			return false
		}
		return true
	})
	return found
}

// recvType renders a method's receiver as "pkgpath.Type", "" for
// functions.
func recvType(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	return named.Obj().Pkg().Path() + "." + named.Obj().Name()
}

func ioName(name string) bool {
	switch name {
	case "Read", "ReadAt", "ReadFull", "Write", "WriteAt", "Seek", "Sync", "Accept", "ReadFrom", "WriteTo":
		return true
	}
	return false
}

// ioReceiver limits the I/O method rule to receivers that actually hit
// the disk or the network; in-memory buffers are not blocking.
func ioReceiver(recv string) bool {
	switch {
	case strings.HasPrefix(recv, "os."),
		strings.HasPrefix(recv, "net."),
		strings.HasPrefix(recv, "net/rpc."),
		strings.HasPrefix(recv, "bufio."),
		strings.HasPrefix(recv, "pdtl/internal/ioacct."):
		return true
	}
	return false
}

// ioMethod is the dynamic-dispatch fallback: an interface-typed receiver
// whose method is an io.Reader/io.Writer-shaped call.
func ioMethod(pass *analysis.Pass, sel *ast.SelectorExpr) bool {
	t := pass.TypesInfo.TypeOf(sel.X)
	if t == nil || !types.IsInterface(t) {
		return false
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	if named.Obj().Pkg().Path() != "io" {
		return false
	}
	return ioName(sel.Sel.Name)
}
