// Package traceguard enforces the engine's tracer-delivery contract:
// observability must never corrupt or slow the operation it watches.
//
// Concretely (README "Observability", observe.go):
//
//  1. Events reach a Tracer only through a guarded emit helper — a function
//     that nil-checks the tracer and invokes Emit behind a deferred
//     recover, like emitSafe. A bare t.Emit(ev) on an interface value
//     either skips the nil check (panic when tracing is off) or the
//     recover (a panicking tracer kills the sort), and a fan-out that
//     forwards without per-sink recovery lets one bad sink starve the
//     rest.
//  2. The untraced path stays free: constructing a trace.Event (or any
//     other per-event work) must be dominated by a tracer nil-check, not
//     rely on a cross-file invariant that the tracer "happens" to be
//     non-nil whenever the code runs.
//  3. The engine's observer hook (OnEvent) is invoked only behind a
//     recover guard, so a panicking observer is counted, not fatal.
package traceguard

import (
	"go/ast"
	"go/token"
	"go/types"

	"github.com/memadapt/masort/internal/analyzers/analysis"
	"github.com/memadapt/masort/internal/analyzers/lintutil"
)

// Analyzer flags unguarded Tracer.Emit calls, trace.Event construction on
// the untraced path, and unguarded observer-hook invocations.
var Analyzer = &analysis.Analyzer{
	Name: "traceguard",
	Doc: "tracer delivery must be nil-checked and recover-guarded\n\n" +
		"Direct Tracer.Emit calls and trace.Event construction are only allowed\n" +
		"inside (or under) guarded emit helpers, keeping the nil-tracer path free\n" +
		"and tracer panics non-fatal.",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		if lintutil.IsTestFile(pass.Fset, f) {
			continue // tests drive sinks directly by design
		}
		lintutil.WithStack(f, func(n ast.Node, stack []ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkCall(pass, n, stack)
			case *ast.CompositeLit:
				checkEventLit(pass, n, stack)
			}
			return true
		})
	}
	return nil
}

// checkCall applies rules 1 and 3 to interface Emit calls and OnEvent
// hook invocations.
func checkCall(pass *analysis.Pass, call *ast.CallExpr, stack []ast.Node) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn := lintutil.EnclosingFunc(stack)
	if fn == nil {
		return
	}
	switch sel.Sel.Name {
	case "Emit":
		recv, ok := pass.TypesInfo.Types[sel.X]
		if !ok || !lintutil.IsTracerInterface(recv.Type) {
			return // a concrete sink's own Emit is the sink, not fan-out
		}
		if isGuardedEmitter(pass, fn) {
			return
		}
		pass.Reportf(call.Pos(),
			"direct Tracer.Emit call outside a guarded emit helper; deliver through a nil-checked, recover-guarded helper (see emitSafe)")
	case "OnEvent":
		// Only func-typed fields (the Env observer hook), not methods.
		s, ok := pass.TypesInfo.Selections[sel]
		if !ok || s.Kind() != types.FieldVal {
			return
		}
		if _, isFunc := s.Type().Underlying().(*types.Signature); !isFunc {
			return
		}
		if hasRecoverDefer(fn) {
			return
		}
		pass.Reportf(call.Pos(),
			"observer hook invoked without a deferred recover; a panicking observer must be counted, not fatal (see the core emit helper, Env.emit)")
	}
}

// checkEventLit applies rule 2: a trace.Event composite literal must sit
// under a tracer nil-check.
func checkEventLit(pass *analysis.Pass, lit *ast.CompositeLit, stack []ast.Node) {
	tv, ok := pass.TypesInfo.Types[lit]
	if !ok || !lintutil.IsEventType(tv.Type) {
		return
	}
	if pass.Pkg.Name() == "trace" {
		return // the trace package's sinks transform events as data
	}
	fn := lintutil.EnclosingFunc(stack)
	if fn == nil {
		return // package-level data
	}
	if returnsEvent(pass, fn) {
		return // an Event constructor; its callers own the guard
	}
	if isGuardedEmitter(pass, fn) || hasNilReturnGuard(pass, fn) || underNonNilCheck(pass, stack) {
		return
	}
	pass.Reportf(lit.Pos(),
		"trace.Event constructed outside a tracer nil-check: this work runs even when tracing is off — guard with the tracer's nil check")
}

// isGuardedEmitter reports whether fn has the emitSafe shape: a deferred
// recover plus a nil check of a tracer-bearing value.
func isGuardedEmitter(pass *analysis.Pass, fn ast.Node) bool {
	return hasRecoverDefer(fn) && hasTracerNilCheck(pass, fn)
}

func funcBody(fn ast.Node) *ast.BlockStmt {
	switch f := fn.(type) {
	case *ast.FuncDecl:
		return f.Body
	case *ast.FuncLit:
		return f.Body
	}
	return nil
}

// hasRecoverDefer reports whether fn's body contains a deferred function
// literal that calls recover.
func hasRecoverDefer(fn ast.Node) bool {
	body := funcBody(fn)
	if body == nil {
		return false
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		d, ok := n.(*ast.DeferStmt)
		if !ok {
			return !found
		}
		if lit, ok := d.Call.Fun.(*ast.FuncLit); ok && callsRecover(lit.Body) {
			found = true
		}
		return !found
	})
	return found
}

func callsRecover(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "recover" {
				found = true
			}
		}
		return !found
	})
	return found
}

// hasTracerNilCheck reports whether fn's body contains any nil comparison
// of a tracer-bearing value.
func hasTracerNilCheck(pass *analysis.Pass, fn ast.Node) bool {
	body := funcBody(fn)
	if body == nil {
		return false
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if b, ok := n.(*ast.BinaryExpr); ok {
			if operand, _ := lintutil.NilComparison(b); operand != nil {
				if tv, ok := pass.TypesInfo.Types[operand]; ok && lintutil.IsTracerish(tv.Type) {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// hasNilReturnGuard reports whether fn contains an early-return guard of
// the form "if <tracerish> == nil { ... return ... }".
func hasNilReturnGuard(pass *analysis.Pass, fn ast.Node) bool {
	body := funcBody(fn)
	if body == nil {
		return false
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		ifStmt, ok := n.(*ast.IfStmt)
		if !ok {
			return !found
		}
		guards := lintutil.CondContainsNilCheck(ifStmt.Cond, token.EQL, func(e ast.Expr) bool {
			tv, ok := pass.TypesInfo.Types[e]
			return ok && lintutil.IsTracerish(tv.Type)
		})
		if guards && containsReturn(ifStmt.Body) {
			found = true
		}
		return !found
	})
	return found
}

func containsReturn(body *ast.BlockStmt) bool {
	for _, st := range body.List {
		if _, ok := st.(*ast.ReturnStmt); ok {
			return true
		}
	}
	return false
}

// underNonNilCheck reports whether some ancestor if-statement's condition
// requires a tracer-bearing value to be non-nil.
func underNonNilCheck(pass *analysis.Pass, stack []ast.Node) bool {
	for _, n := range stack {
		ifStmt, ok := n.(*ast.IfStmt)
		if !ok {
			continue
		}
		if lintutil.CondContainsNilCheck(ifStmt.Cond, token.NEQ, func(e ast.Expr) bool {
			tv, ok := pass.TypesInfo.Types[e]
			return ok && lintutil.IsTracerish(tv.Type)
		}) {
			return true
		}
	}
	return false
}

// returnsEvent reports whether fn declares a result of the trace.Event
// type — the constructor pattern (e.g. opTrace.convert), whose call sites
// own the guarding.
func returnsEvent(pass *analysis.Pass, fn ast.Node) bool {
	var ftype *ast.FuncType
	switch f := fn.(type) {
	case *ast.FuncDecl:
		ftype = f.Type
	case *ast.FuncLit:
		ftype = f.Type
	}
	if ftype == nil || ftype.Results == nil {
		return false
	}
	for _, res := range ftype.Results.List {
		if tv, ok := pass.TypesInfo.Types[res.Type]; ok && lintutil.IsEventType(tv.Type) {
			return true
		}
	}
	return false
}
