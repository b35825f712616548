// Call graph and fact summaries: the framework's first cross-function
// layer. The PR 3–6 contracts (epoch fencing, deadline propagation,
// span lifecycle) are not expressible by looking at one call expression
// at a time — whether `n.check(session, epoch)` is a lease fence or
// `endRenderSpan(span, err)` closes a span lives one call down. A
// CallGraph indexes the package's declared functions and their direct
// same-package calls, and memoizes per-function facts over it:
//
//   - FencesEpoch: the function (transitively) compares a lease-epoch
//     value, so calling it re-validates ownership after a modeled pause.
//   - EndsSpanParam: the function (transitively) ends the telemetry
//     span it receives as a parameter, so passing a span to it counts
//     as ending the span.
//   - CarriesDeadlineVar: a parameter holds an absolute deadline — a
//     time.Time or nanosecond value named for one, or a request struct
//     with a DeadlineNanos field — so downstream requests the function
//     builds must forward it.
//
// Summaries are per-package: calls that cross the package boundary are
// judged by name-level heuristics in the analyzers themselves. That is
// deliberate — the suite loads one package per pass, and the contracts
// the facts encode (Node.check, endRenderSpan, handler signatures) are
// package-local idioms.
package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// TelemetryPath is the module path of the telemetry package whose span
// and registry types several contract analyzers key off.
const TelemetryPath = "repro/internal/telemetry"

// CallGraph indexes one package's function declarations and memoizes
// the fact summaries the cross-function analyzers share.
type CallGraph struct {
	pass  *Pass
	decls map[*types.Func]*ast.FuncDecl

	fences map[*types.Func]bool
	enders map[*types.Func]map[int]bool
}

// NewCallGraph builds the package's call graph from the pass's syntax.
func NewCallGraph(pass *Pass) *CallGraph {
	g := &CallGraph{
		pass:   pass,
		decls:  map[*types.Func]*ast.FuncDecl{},
		fences: map[*types.Func]bool{},
		enders: map[*types.Func]map[int]bool{},
	}
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if f, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				g.decls[f] = fd
			}
		}
	}
	return g
}

// Decl returns the package-local declaration of f, or nil for functions
// declared elsewhere (other packages, interface methods).
func (g *CallGraph) Decl(f *types.Func) *ast.FuncDecl {
	if f == nil {
		return nil
	}
	return g.decls[f]
}

// callee resolves the declared function a call invokes (nil for
// func-typed variables and builtins).
func (g *CallGraph) callee(call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	f, _ := g.pass.TypesInfo.Uses[id].(*types.Func)
	return f
}

// mentionsEpoch reports whether the expression's source names a lease
// epoch: an identifier or selector whose name contains "epoch".
func mentionsEpoch(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok &&
			strings.Contains(strings.ToLower(id.Name), "epoch") {
			found = true
		}
		return !found
	})
	return found
}

// FencesEpoch reports whether calling f re-validates lease ownership: f
// is declared in this package and its body — or that of a same-package
// function it calls, transitively — compares a value named for the
// lease epoch. Node.check ("have != epoch") is the canonical direct
// fence; ApplyLoadOp fences by calling it.
func (g *CallGraph) FencesEpoch(f *types.Func) bool {
	return g.fencesEpoch(f, map[*types.Func]bool{})
}

func (g *CallGraph) fencesEpoch(f *types.Func, visiting map[*types.Func]bool) bool {
	if f == nil || visiting[f] {
		return false
	}
	if v, ok := g.fences[f]; ok {
		return v
	}
	decl := g.decls[f]
	if decl == nil {
		return false // cross-package: no summary
	}
	visiting[f] = true
	defer delete(visiting, f)
	fences := false
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if fences {
			return false
		}
		switch n := n.(type) {
		case *ast.BinaryExpr:
			switch n.Op.String() {
			case "==", "!=", "<", ">", "<=", ">=":
				if mentionsEpoch(n.X) || mentionsEpoch(n.Y) {
					fences = true
				}
			}
		case *ast.CallExpr:
			if g.fencesEpoch(g.callee(n), visiting) {
				fences = true
			}
		}
		return true
	})
	g.fences[f] = fences
	return fences
}

// IsActiveSpan reports whether t is *telemetry.ActiveSpan, the started-
// span handle whose lifecycle the spanend contract governs.
func IsActiveSpan(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := p.Elem().(*types.Named)
	return ok && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == TelemetryPath &&
		named.Obj().Name() == "ActiveSpan"
}

// EndsSpanParam reports whether f (declared in this package) ends the
// *telemetry.ActiveSpan it receives as parameter i: its body calls
// End/EndStatus on that parameter, or forwards it to a same-package
// function that does. endRenderSpan(span, err) is the canonical ender.
// The summary is existence-level, not all-paths — a helper that takes a
// span to end it is assumed to end it however it returns.
func (g *CallGraph) EndsSpanParam(f *types.Func, i int) bool {
	return g.endsSpanParam(f, i, map[*types.Func]bool{})
}

func (g *CallGraph) endsSpanParam(f *types.Func, i int, visiting map[*types.Func]bool) bool {
	if f == nil || visiting[f] {
		return false
	}
	if m, ok := g.enders[f]; ok {
		if v, ok := m[i]; ok {
			return v
		}
	}
	decl := g.decls[f]
	if decl == nil {
		return false
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || i >= sig.Params().Len() || !IsActiveSpan(sig.Params().At(i).Type()) {
		return false
	}
	param := sig.Params().At(i)
	visiting[f] = true
	defer delete(visiting, f)
	ends := false
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if ends {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if sel.Sel.Name == "End" || sel.Sel.Name == "EndStatus" {
				if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok &&
					g.pass.TypesInfo.Uses[id] == param {
					ends = true
					return false
				}
			}
		}
		for j, arg := range call.Args {
			if id, ok := ast.Unparen(arg).(*ast.Ident); ok &&
				g.pass.TypesInfo.Uses[id] == param &&
				g.endsSpanParam(g.callee(call), j, visiting) {
				ends = true
				return false
			}
		}
		return true
	})
	if g.enders[f] == nil {
		g.enders[f] = map[int]bool{}
	}
	g.enders[f][i] = ends
	return ends
}

// HasDeadlineNanosField reports whether t (through pointers) is a
// struct with a DeadlineNanos field — the wire-request shape whose
// deadline the deadlineprop contract requires handlers to forward.
func HasDeadlineNanosField(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	s, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < s.NumFields(); i++ {
		if s.Field(i).Name() == "DeadlineNanos" {
			return true
		}
	}
	return false
}

// isTimeTime reports whether t is time.Time.
func isTimeTime(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == "time" && named.Obj().Name() == "Time"
}

// isIntegerNanos reports whether t is an int64-kind type (the
// DeadlineNanos wire representation).
func isIntegerNanos(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.Int64
}

// CarriesDeadlineVar reports whether the variable holds an absolute
// deadline a handler is responsible for propagating: a time.Time or
// int64 named for a deadline, or a value of a request type carrying a
// DeadlineNanos field.
func CarriesDeadlineVar(v *types.Var) bool {
	if v == nil {
		return false
	}
	name := strings.ToLower(v.Name())
	if strings.Contains(name, "deadline") &&
		(isTimeTime(v.Type()) || isIntegerNanos(v.Type())) {
		return true
	}
	return HasDeadlineNanosField(v.Type())
}
