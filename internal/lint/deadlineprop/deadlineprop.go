// Package deadlineprop enforces the overload contract's deadline rule:
// a handler that holds an absolute frame deadline must hand it to every
// downstream request it constructs, or check expiry itself before
// expensive work. PR 4's admission control only sheds infeasible work
// because the deadline survives each hop — a transport.RenderRequest
// built without its caller's DeadlineNanos silently converts "decline
// late work at the door" back into "render frames nobody will display".
//
// The rule applies under internal/ and cmd/. A function carries a
// deadline when its signature or locals hold one (see
// analysis.CarriesDeadlineVar): a time.Time or int64 named for a
// deadline, or a decoded request struct with a DeadlineNanos field.
// Inside such a function, every composite literal of a request type
// (any struct with a DeadlineNanos field) must populate DeadlineNanos
// with a non-zero expression — typically forwarding the carried value
// through transport.DeadlineToNanos — unless the function checks
// expiry itself (an Expired-style call or a deadline comparison).
// `//lint:allow deadlineprop` is the escape hatch for constructions
// whose deadline handling the analyzer cannot see.
package deadlineprop

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
	"repro/internal/lint/lintutil"
)

// Analyzer is the deadlineprop rule.
var Analyzer = &analysis.Analyzer{
	Name: "deadlineprop",
	Doc: "a handler holding a frame deadline must forward DeadlineNanos on every " +
		"request it constructs or check expiry itself — a dropped deadline turns " +
		"admission control back into rendering late frames",
	Run: run,
}

func run(pass *analysis.Pass) error {
	path := pass.Pkg.Path()
	if !lintutil.HasSegment(path, "internal") && !lintutil.HasSegment(path, "cmd") {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			var ftyp *ast.FuncType
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				ftyp, body = fn.Type, fn.Body
			case *ast.FuncLit:
				ftyp, body = fn.Type, fn.Body
			default:
				return true
			}
			if body == nil || !carriesDeadline(pass, ftyp, body) || checksExpiry(pass, body) {
				return true
			}
			checkConstructions(pass, body)
			return true
		})
	}
	return nil
}

// shallow walks body but stays out of nested function literals, which
// are judged as their own scope.
func shallow(body ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		if n == body {
			return true
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		return fn(n)
	})
}

// carriesDeadline reports whether the function holds an absolute
// deadline it is responsible for: a deadline-carrying parameter, or a
// local that received one — decoded request structs, computed deadline
// times. A local whose only definition is a request composite literal
// does not count: that is the construction under judgment, not a
// deadline source.
func carriesDeadline(pass *analysis.Pass, ftyp *ast.FuncType, body *ast.BlockStmt) bool {
	if ftyp.Params != nil {
		for _, field := range ftyp.Params.List {
			for _, name := range field.Names {
				if v, ok := pass.TypesInfo.Defs[name].(*types.Var); ok && analysis.CarriesDeadlineVar(v) {
					return true
				}
			}
		}
	}
	found := false
	shallow(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				v, ok := pass.TypesInfo.Defs[id].(*types.Var)
				if !ok || !analysis.CarriesDeadlineVar(v) {
					continue
				}
				if len(n.Rhs) == len(n.Lhs) && isRequestLiteral(pass, n.Rhs[i]) {
					continue // the construction itself, not a source
				}
				found = true
			}
		case *ast.DeclStmt:
			gd, ok := n.Decl.(*ast.GenDecl)
			if !ok {
				return true
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					v, ok := pass.TypesInfo.Defs[name].(*types.Var)
					if !ok || !analysis.CarriesDeadlineVar(v) {
						continue
					}
					if i < len(vs.Values) && isRequestLiteral(pass, vs.Values[i]) {
						continue
					}
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// isRequestLiteral reports whether e is a composite literal of a
// request type (a struct carrying DeadlineNanos).
func isRequestLiteral(pass *analysis.Pass, e ast.Expr) bool {
	e = ast.Unparen(e)
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op.String() == "&" {
		e = ast.Unparen(u.X)
	}
	cl, ok := e.(*ast.CompositeLit)
	if !ok {
		return false
	}
	tv, ok := pass.TypesInfo.Types[cl]
	return ok && tv.Type != nil && analysis.HasDeadlineNanosField(tv.Type)
}

// checksExpiry reports whether the function itself validates the
// deadline before expensive work: a call to an Expired-style callee, a
// Before/After comparison on a deadline-named time, or a comparison
// mentioning a deadline.
func checksExpiry(pass *analysis.Pass, body *ast.BlockStmt) bool {
	found := false
	shallow(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if f := lintutil.Callee(pass.TypesInfo, n); f != nil {
				name := f.Name()
				if strings.Contains(strings.ToLower(name), "expired") {
					found = true
				}
				if name == "Before" || name == "After" || name == "Until" {
					if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok && mentionsDeadline(sel.X) {
						found = true
					}
					for _, arg := range n.Args {
						if mentionsDeadline(arg) {
							found = true
						}
					}
				}
			}
		case *ast.BinaryExpr:
			switch n.Op.String() {
			case "==", "!=", "<", ">", "<=", ">=":
				if mentionsDeadline(n.X) || mentionsDeadline(n.Y) {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// mentionsDeadline reports whether the expression names a deadline.
func mentionsDeadline(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok &&
			strings.Contains(strings.ToLower(id.Name), "deadline") {
			found = true
		}
		return !found
	})
	return found
}

// checkConstructions flags request composite literals whose
// DeadlineNanos is absent or constant zero.
func checkConstructions(pass *analysis.Pass, body *ast.BlockStmt) {
	shallow(body, func(n ast.Node) bool {
		cl, ok := n.(*ast.CompositeLit)
		if !ok {
			return true
		}
		tv, ok := pass.TypesInfo.Types[cl]
		if !ok || tv.Type == nil || !analysis.HasDeadlineNanosField(tv.Type) {
			return true
		}
		if deadlineSet(pass, cl, tv.Type) || pass.Allowed(cl.Pos()) {
			return true
		}
		pass.Reportf(cl.Pos(),
			"request constructed without the handler's deadline: set DeadlineNanos (or check expiry before expensive work) so admission control can shed late work downstream")
		return true
	})
}

// deadlineSet reports whether the literal populates DeadlineNanos with
// a non-zero expression (keyed or positional).
func deadlineSet(pass *analysis.Pass, cl *ast.CompositeLit, t types.Type) bool {
	for _, elt := range cl.Elts {
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			if id, ok := kv.Key.(*ast.Ident); ok && id.Name == "DeadlineNanos" {
				return !isZeroConst(pass, kv.Value)
			}
		}
	}
	// Positional literal: locate the field index.
	if len(cl.Elts) > 0 {
		if _, ok := cl.Elts[0].(*ast.KeyValueExpr); !ok {
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			s, ok := t.Underlying().(*types.Struct)
			if !ok {
				return false
			}
			for i := 0; i < s.NumFields() && i < len(cl.Elts); i++ {
				if s.Field(i).Name() == "DeadlineNanos" {
					return !isZeroConst(pass, cl.Elts[i])
				}
			}
		}
	}
	return false
}

// isZeroConst reports whether the type checker evaluated e to the
// constant 0.
func isZeroConst(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[ast.Unparen(e)]
	return ok && tv.Value != nil && tv.Value.String() == "0"
}
