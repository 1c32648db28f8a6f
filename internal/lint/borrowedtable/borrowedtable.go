// Package borrowedtable enforces the owned-vs-borrowed table regime of
// docs/memory-model.md at compile time. A borrowed table — a decoded
// snapshot table handed to an engine, the nextC input of
// core.NewDSFAFromParts, a mapping vector a lazy engine lends out — is
// memory the callee may read but does not own: mutating it corrupts a
// structure someone else still reads, and retaining it past the call
// extends a lifetime the owner reasons about.
//
// The grammar is two function-level directives:
//
//	//sfa:borrowed p q — parameters p and q are borrowed by this
//	function: it must not mutate them and must not retain them.
//
//	//sfa:adopts — this function takes ownership of its borrowed
//	parameters: retention (storing into a field, global, channel,
//	map, or returning) is legal; mutation is still not. This is the
//	decoded-snapshot hand-off: the codec's tables are adopted by the
//	assembled automaton exactly once, at construction.
//
// Inside a function with borrowed parameters the analyzer reports:
//
//   - index/field assignment through the parameter (p[i] = v);
//   - append(p, ...) and copy(p, ...) — growth and overwrite;
//   - passing p to another module function whose corresponding
//     parameter is not itself //sfa:borrowed (the mutating-callee
//     leak: ownership discipline is only as strong as its weakest
//     callee). Reads through builtins (len, cap, copy-as-source,
//     append-as-source) are always fine;
//   - without //sfa:adopts: storing p into anything that outlives the
//     call — a field, a global, a channel send, a map or slice cell,
//     a composite literal, or a return value.
//
// Collect gathers the borrowed-parameter sets of every function in the
// module first, so cross-package calls check against the callee's
// actual annotation.
package borrowedtable

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint/analysis"
)

// New returns a fresh analyzer instance.
func New() *analysis.Analyzer {
	a := &analysis.Analyzer{
		Name: "borrowedtable",
		Doc: "enforce //sfa:borrowed parameter discipline: no mutation, no " +
			"retention without //sfa:adopts, no leaking to unannotated callees",
	}
	// borrowed maps a function key ("pkgpath.Func" or
	// "pkgpath.(Recv).Method") to the set of its borrowed parameter
	// indices.
	borrowed := map[string]map[int]bool{}

	a.Collect = func(pass *analysis.Pass) {
		for _, file := range pass.Files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				d, ok := analysis.FuncDirective(fn, "borrowed")
				if !ok {
					continue
				}
				set := map[int]bool{}
				for i, name := range paramNames(fn) {
					for _, arg := range d.Args {
						if name == arg {
							set[i] = true
						}
					}
				}
				borrowed[funcKey(pass, fn)] = set
			}
		}
	}

	a.Run = func(pass *analysis.Pass) {
		for _, file := range pass.Files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				d, ok := analysis.FuncDirective(fn, "borrowed")
				if !ok {
					continue
				}
				checkFunc(pass, fn, d, borrowed)
			}
		}
	}
	return a
}

// paramNames lists a function's parameter names in signature order.
func paramNames(fn *ast.FuncDecl) []string {
	var out []string
	for _, f := range fn.Type.Params.List {
		for _, n := range f.Names {
			out = append(out, n.Name)
		}
	}
	return out
}

// funcKey names a function stably across units.
func funcKey(pass *analysis.Pass, fn *ast.FuncDecl) string {
	key := pass.PkgPath + "."
	if fn.Recv != nil && len(fn.Recv.List) > 0 {
		t := fn.Recv.List[0].Type
		if s, ok := t.(*ast.StarExpr); ok {
			t = s.X
		}
		if ix, ok := t.(*ast.IndexExpr); ok { // generic receiver
			t = ix.X
		}
		if id, ok := t.(*ast.Ident); ok {
			key += "(" + id.Name + ")."
		}
	}
	return key + fn.Name.Name
}

// calleeKey names a called function in the same scheme, resolved
// through go/types so cross-package calls land on the callee's
// collected annotation.
func calleeKey(f *types.Func) string {
	if f.Pkg() == nil {
		return ""
	}
	key := f.Pkg().Path() + "."
	sig := f.Type().(*types.Signature)
	if recv := sig.Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			key += "(" + named.Obj().Name() + ")."
		}
	}
	return key + f.Name()
}

func checkFunc(pass *analysis.Pass, fn *ast.FuncDecl, d analysis.Directive, borrowed map[string]map[int]bool) {
	// Resolve directive args to parameter objects.
	objs := map[types.Object]string{}
	declared := map[string]bool{}
	for _, f := range fn.Type.Params.List {
		for _, name := range f.Names {
			for _, arg := range d.Args {
				if name.Name == arg {
					if obj := pass.Info.Defs[name]; obj != nil {
						objs[obj] = arg
						declared[arg] = true
					}
				}
			}
		}
	}
	for _, arg := range d.Args {
		if !declared[arg] {
			pass.Reportf(d.Pos, "//sfa:borrowed names %q, which is not a parameter of %s", arg, fn.Name.Name)
		}
	}
	if len(objs) == 0 {
		return
	}
	_, adopts := analysis.FuncDirective(fn, "adopts")

	// isBorrowed resolves an expression to a borrowed parameter name.
	isBorrowed := func(e ast.Expr) (string, bool) {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return "", false
		}
		name, ok := objs[pass.Info.ObjectOf(id)]
		return name, ok
	}
	// rootBorrowed: does the expression's base identifier name a
	// borrowed parameter (p, p[i], p.f, ...)?
	rootBorrowed := func(e ast.Expr) (string, bool) {
		id := analysis.RootIdent(e)
		if id == nil {
			return "", false
		}
		name, ok := objs[pass.Info.ObjectOf(id)]
		return name, ok
	}

	analysis.WithStack([]*ast.File{{Name: ast.NewIdent("_"), Decls: []ast.Decl{fn}}},
		func(n ast.Node, stack []ast.Node) bool {
			switch x := n.(type) {
			case *ast.AssignStmt:
				checkAssign(pass, fn, x, adopts, isBorrowed, rootBorrowed)
			case *ast.CallExpr:
				checkCall(pass, fn, x, borrowed, isBorrowed, rootBorrowed)
			case *ast.SendStmt:
				if name, ok := isBorrowed(x.Value); ok && !adopts {
					pass.Reportf(x.Value.Pos(),
						"borrowed parameter %s sent on a channel (retention); mark %s //sfa:adopts if it takes ownership",
						name, fn.Name.Name)
				}
			case *ast.ReturnStmt:
				if adopts {
					return true
				}
				for _, r := range x.Results {
					if name, ok := isBorrowed(r); ok {
						pass.Reportf(r.Pos(),
							"borrowed parameter %s returned (retention); mark %s //sfa:adopts if ownership transfers through it",
							name, fn.Name.Name)
					}
				}
			case *ast.CompositeLit:
				if adopts {
					return true
				}
				for _, el := range x.Elts {
					v := el
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						v = kv.Value
					}
					if name, ok := isBorrowed(v); ok {
						pass.Reportf(v.Pos(),
							"borrowed parameter %s stored in a composite literal (retention); mark %s //sfa:adopts if it takes ownership",
							name, fn.Name.Name)
					}
				}
			case *ast.UnaryExpr:
				// Taking &p[i] hands out a mutable window.
				if x.Op == token.AND {
					if name, ok := rootBorrowed(x.X); ok {
						pass.Reportf(x.Pos(), "address taken into borrowed parameter %s", name)
					}
				}
			}
			return true
		})
}

// checkAssign flags writes through a borrowed parameter and retention
// stores of one.
func checkAssign(pass *analysis.Pass, fn *ast.FuncDecl, as *ast.AssignStmt, adopts bool,
	isBorrowed, rootBorrowed func(ast.Expr) (string, bool)) {
	for _, lhs := range as.Lhs {
		switch ast.Unparen(lhs).(type) {
		case *ast.IndexExpr, *ast.SelectorExpr, *ast.StarExpr:
			if name, ok := rootBorrowed(lhs); ok {
				pass.Reportf(lhs.Pos(), "write through borrowed parameter %s", name)
			}
		}
	}
	for i, rhs := range as.Rhs {
		name, ok := isBorrowed(rhs)
		if !ok || adopts {
			continue
		}
		if i >= len(as.Lhs) {
			continue
		}
		// p assigned to a plain local is an alias, fine; stored into a
		// field/global/cell it outlives the call.
		switch l := ast.Unparen(as.Lhs[i]).(type) {
		case *ast.Ident:
			if obj, ok := pass.Info.ObjectOf(l).(*types.Var); ok && obj.Parent() == pass.Pkg.Scope() {
				pass.Reportf(rhs.Pos(),
					"borrowed parameter %s stored in package variable %s (retention); mark %s //sfa:adopts if it takes ownership",
					name, l.Name, fn.Name.Name)
			}
		case *ast.SelectorExpr, *ast.IndexExpr:
			pass.Reportf(rhs.Pos(),
				"borrowed parameter %s stored into %s (retention); mark %s //sfa:adopts if it takes ownership",
				name, exprKind(l), fn.Name.Name)
		}
	}
}

func exprKind(e ast.Expr) string {
	switch e.(type) {
	case *ast.SelectorExpr:
		return "a field"
	case *ast.IndexExpr:
		return "an indexed cell"
	}
	return "a location"
}

// checkCall flags mutation builtins targeting a borrowed parameter and
// leaks of one into callees that do not declare the parameter borrowed.
func checkCall(pass *analysis.Pass, fn *ast.FuncDecl, call *ast.CallExpr, borrowed map[string]map[int]bool,
	isBorrowed, rootBorrowed func(ast.Expr) (string, bool)) {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "append":
				if len(call.Args) > 0 {
					if name, ok := rootBorrowed(call.Args[0]); ok {
						pass.Reportf(call.Pos(), "append to borrowed parameter %s", name)
					}
				}
			case "copy":
				if len(call.Args) > 0 {
					if name, ok := rootBorrowed(call.Args[0]); ok {
						pass.Reportf(call.Pos(), "copy into borrowed parameter %s", name)
					}
				}
			}
			return // len/cap/append-src/copy-src are reads
		}
	}
	if tv, ok := pass.Info.Types[call.Fun]; ok && tv.IsType() {
		return // conversion, not a call
	}
	f := analysis.CalleeFunc(pass.Info, call)
	var calleeSet map[int]bool
	calleeName := "an indirect callee"
	if f != nil {
		calleeSet = borrowed[calleeKey(f)]
		calleeName = f.Name()
	}
	for i, arg := range call.Args {
		name, ok := isBorrowed(arg)
		if !ok {
			// A sliced window p[a:b] leaks the same backing array.
			if n2, ok2 := rootBorrowed(arg); ok2 {
				if _, isSlice := ast.Unparen(arg).(*ast.SliceExpr); isSlice {
					name, ok = n2, true
				}
			}
			if !ok {
				continue
			}
		}
		if calleeSet[argIndex(f, call, i)] {
			continue // callee declares it borrowed too
		}
		pass.Reportf(arg.Pos(),
			"borrowed parameter %s passed to %s, whose parameter is not //sfa:borrowed (mutation/retention there is unchecked)",
			name, calleeName)
	}
}

// argIndex maps a call-site argument position to the callee's
// parameter index, accounting for methods called with selector
// receivers (arg i is parameter i) and variadic tails (they collapse
// onto the final parameter).
func argIndex(f *types.Func, call *ast.CallExpr, i int) int {
	if f == nil {
		return i
	}
	sig := f.Type().(*types.Signature)
	if sig.Variadic() && i >= sig.Params().Len() {
		return sig.Params().Len() - 1
	}
	return i
}
