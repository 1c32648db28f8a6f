// Package hotpathalloc statically guards the zero-allocation contract
// of the streaming scan path. The runtime side of the contract is the
// testing.AllocsPerRun tests (0 allocs per steady-state call of each
// hot path); this analyzer is their compile-time twin: it flags the
// *constructs* that produce allocations, so a regression is named at
// the line that introduces it instead of showing up as a bare
// "allocate 1.0/op" in CI.
//
// A function opts in with a doc-comment directive:
//
//	//sfa:noalloc
//	func (st *SetStream) Write(chunk []byte) { ... }
//
// Inside an annotated function the analyzer reports:
//
//   - make, new, and map/slice composite literals (value struct
//     literals are fine: they live in registers or on the stack);
//   - &T{...} — a composite literal whose address escapes the
//     statement;
//   - append, unless it is the amortized buffer-reuse idiom: the
//     self-append x = append(x, ...) (including x = append(x[:0], ...))
//     or appending into a caller-owned buffer that is returned;
//   - string ↔ []byte/[]rune conversions and string concatenation;
//   - any call into package fmt;
//   - converting a non-pointer-shaped value to an interface (an
//     int64 boxed into an any parameter allocates; a pointer does
//     not);
//   - go statements, closures that capture variables, and ranging
//     over a map (the construct the issue calls the iteration-order
//     shim; its hiter setup is hot-path weight even when it stays off
//     the heap).
//
// The check is intentionally not transitive: it reads one body at a
// time, and the annotation marks exactly the frames the AllocsPerRun
// tests measure. Helpers a hot path calls should carry their own
// //sfa:noalloc. A construct the author can prove amortizes to zero
// (or runs only on a cold branch) takes a same-line or preceding-line
// waiver with a reason in the surrounding comment:
//
//	buf = append(buf, b) //sfa:allocok amortized by the reset in Close
package hotpathalloc

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint/analysis"
)

// New returns a fresh analyzer instance.
func New() *analysis.Analyzer {
	a := &analysis.Analyzer{
		Name: "hotpathalloc",
		Doc: "flag allocation-inducing constructs inside //sfa:noalloc functions " +
			"(waiver: //sfa:allocok on the offending line, with a reason)",
	}
	a.Run = func(pass *analysis.Pass) {
		for _, file := range pass.Files {
			waivers := analysis.FileLineDirectives(pass.Fset, file)
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				d, ok := analysis.FuncDirective(fn, "noalloc")
				if !ok {
					continue
				}
				checkFunc(pass, fn, d, waivers)
			}
		}
	}
	return a
}

type checker struct {
	pass    *analysis.Pass
	fn      *ast.FuncDecl
	waivers *analysis.LineDirectives
	params  map[types.Object]bool
}

func checkFunc(pass *analysis.Pass, fn *ast.FuncDecl, _ analysis.Directive, waivers *analysis.LineDirectives) {
	c := &checker{pass: pass, fn: fn, waivers: waivers, params: map[types.Object]bool{}}
	for _, f := range fn.Type.Params.List {
		for _, name := range f.Names {
			if obj := pass.Info.Defs[name]; obj != nil {
				c.params[obj] = true
			}
		}
	}
	analysis.WithStack([]*ast.File{wrapDecl(fn)}, c.visit)
}

// wrapDecl lets WithStack walk a single declaration.
func wrapDecl(fn *ast.FuncDecl) *ast.File {
	return &ast.File{Name: ast.NewIdent("_"), Decls: []ast.Decl{fn}}
}

// report applies the line waiver, then reports.
func (c *checker) report(pos token.Pos, format string, args ...any) {
	if c.waivers.WaivedAt(pos, "allocok") {
		return
	}
	args = append(args, c.fn.Name.Name)
	c.pass.Reportf(pos, format+" in //sfa:noalloc function %s", args...)
}

func (c *checker) visit(n ast.Node, stack []ast.Node) bool {
	switch x := n.(type) {
	case *ast.CallExpr:
		c.call(x, stack)
	case *ast.CompositeLit:
		c.composite(x, stack)
	case *ast.BinaryExpr:
		if x.Op == token.ADD && isString(c.pass.Info.Types[x].Type) {
			c.report(x.OpPos, "string concatenation allocates")
		}
	case *ast.GoStmt:
		c.report(x.Pos(), "go statement allocates a goroutine")
	case *ast.FuncLit:
		if ids := c.captures(x); len(ids) > 0 {
			c.report(x.Pos(), "closure captures %s by reference and allocates", ids[0])
		}
	case *ast.RangeStmt:
		if t := c.pass.Info.Types[x.X].Type; t != nil {
			if _, ok := t.Underlying().(*types.Map); ok {
				c.report(x.Range, "map range needs the runtime's randomized iterator")
			}
		}
	}
	return true
}

// call checks one call expression: builtins, fmt, conversions, and
// interface-boxing arguments.
func (c *checker) call(call *ast.CallExpr, stack []ast.Node) {
	info := c.pass.Info
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		switch info.Uses[fun].(type) {
		case *types.Builtin:
			switch fun.Name {
			case "make":
				c.report(call.Pos(), "make allocates")
				return
			case "new":
				c.report(call.Pos(), "new allocates")
				return
			case "append":
				if !c.reuseAppend(call, stack) {
					c.report(call.Pos(), "append may grow and allocate (reuse idiom is x = append(x, ...) or append into a returned caller buffer)")
				}
				return
			}
		}
	}
	// Conversions: T(x) where T is a type.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		to, from := tv.Type, info.Types[call.Args[0]].Type
		if convAllocates(to, from) && !c.elidedConversion(call, stack) {
			c.report(call.Pos(), "conversion %s → %s allocates", typeStr(from), typeStr(to))
		}
		return
	}
	if f := analysis.CalleeFunc(info, call); f != nil && f.Pkg() != nil && f.Pkg().Path() == "fmt" {
		c.report(call.Pos(), "fmt.%s allocates (formats through reflection)", f.Name())
	}
	// Interface boxing at the call boundary.
	c.boxedArgs(call)
}

// elidedConversion reports whether the conversion call sits in a context
// where gc does not materialize the result: as an operand of a
// comparison (`string(b) == s`) or as a map index key (`m[string(b)]`).
// Both are guaranteed allocation-free.
func (c *checker) elidedConversion(call *ast.CallExpr, stack []ast.Node) bool {
	switch p := nearestNonParen(stack).(type) {
	case *ast.BinaryExpr:
		switch p.Op {
		case token.EQL, token.NEQ, token.LSS, token.GTR, token.LEQ, token.GEQ:
			return true
		}
	case *ast.IndexExpr:
		if ast.Unparen(p.Index) != call {
			return false
		}
		if t := c.pass.Info.Types[p.X].Type; t != nil {
			_, isMap := t.Underlying().(*types.Map)
			return isMap
		}
	}
	return false
}

// reuseAppend recognizes the amortized-reuse shapes.
func (c *checker) reuseAppend(call *ast.CallExpr, stack []ast.Node) bool {
	if len(call.Args) == 0 {
		return false
	}
	// append(x[:0], ...) — the reset-reuse idiom: the destination is an
	// owned buffer resliced to zero length; growth stops once the buffer
	// reaches its working size, regardless of what the result is bound to.
	if sl, ok := ast.Unparen(call.Args[0]).(*ast.SliceExpr); ok && sl.Low == nil {
		if hi, ok := ast.Unparen(sl.High).(*ast.BasicLit); ok && hi.Value == "0" {
			return true
		}
	}
	dstRoot := analysis.RootIdent(call.Args[0])
	if dstRoot == nil {
		return false
	}
	parent := nearestNonParen(stack)
	switch p := parent.(type) {
	case *ast.AssignStmt:
		// x = append(x, ...) — match the root identifier of the LHS
		// whose position holds this call.
		for i, rhs := range p.Rhs {
			if ast.Unparen(rhs) != call || i >= len(p.Lhs) {
				continue
			}
			if l := analysis.RootIdent(p.Lhs[i]); l != nil &&
				c.pass.Info.ObjectOf(l) == c.pass.Info.ObjectOf(dstRoot) {
				return true
			}
		}
	case *ast.ReturnStmt:
		// return append(dst, ...) with dst a parameter: the canonical
		// caller-owned-buffer API (prefilter's AppendHits).
		return c.params[c.pass.Info.ObjectOf(dstRoot)]
	}
	return false
}

// composite flags heap-bound composite literals.
func (c *checker) composite(lit *ast.CompositeLit, stack []ast.Node) {
	t := c.pass.Info.Types[lit].Type
	if t == nil {
		return
	}
	switch t.Underlying().(type) {
	case *types.Slice:
		c.report(lit.Pos(), "slice literal allocates")
		return
	case *types.Map:
		c.report(lit.Pos(), "map literal allocates")
		return
	}
	if u, ok := nearestNonParen(stack).(*ast.UnaryExpr); ok && u.Op == token.AND {
		c.report(u.Pos(), "&composite literal escapes to the heap")
	}
}

// boxedArgs flags non-pointer-shaped values passed to interface
// parameters.
func (c *checker) boxedArgs(call *ast.CallExpr) {
	sig, ok := c.pass.Info.Types[call.Fun].Type.(*types.Signature)
	if !ok {
		return
	}
	np := sig.Params().Len()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= np-1:
			if call.Ellipsis != token.NoPos {
				continue // passing a slice through, no boxing
			}
			pt = sig.Params().At(np - 1).Type().(*types.Slice).Elem()
		case i < np:
			pt = sig.Params().At(i).Type()
		default:
			continue
		}
		at := c.pass.Info.Types[arg].Type
		if at == nil || !types.IsInterface(pt) || types.IsInterface(at) {
			continue
		}
		if b, ok := at.(*types.Basic); ok && b.Kind() == types.UntypedNil {
			continue
		}
		if !pointerShaped(at) {
			c.report(arg.Pos(), "%s boxed into interface argument allocates", typeStr(at))
		}
	}
}

// captures returns names of variables a function literal captures from
// its enclosing function.
func (c *checker) captures(lit *ast.FuncLit) []string {
	var out []string
	fnScope := c.pass.Info.Scopes[c.fn.Type]
	litScope := c.pass.Info.Scopes[lit.Type]
	if fnScope == nil || litScope == nil {
		return nil
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := c.pass.Info.Uses[id].(*types.Var)
		if !ok || obj.IsField() {
			return true
		}
		parent := obj.Parent()
		if parent == nil {
			return true
		}
		// Captured iff declared inside the enclosing function but
		// outside the literal.
		if scopeContains(fnScope, parent) && !scopeContains(litScope, parent) {
			out = append(out, id.Name)
			return true
		}
		return true
	})
	return out
}

func scopeContains(outer, s *types.Scope) bool {
	for ; s != nil; s = s.Parent() {
		if s == outer {
			return true
		}
	}
	return false
}

func nearestNonParen(stack []ast.Node) ast.Node {
	for i := len(stack) - 1; i >= 0; i-- {
		if _, ok := stack[i].(*ast.ParenExpr); ok {
			continue
		}
		return stack[i]
	}
	return nil
}

// convAllocates reports the conversions that copy their operand to the
// heap: string ↔ []byte and string → []rune in either direction.
func convAllocates(to, from types.Type) bool {
	if to == nil || from == nil {
		return false
	}
	return (isString(from) && isByteOrRuneSlice(to)) || (isByteOrRuneSlice(from) && isString(to))
}

func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
		b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// pointerShaped reports whether boxing a value of t into an interface
// stores the value directly in the interface word (no allocation).
func pointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		b := t.Underlying().(*types.Basic)
		return b.Kind() == types.UnsafePointer
	}
	return false
}

func typeStr(t types.Type) string {
	if t == nil {
		return "?"
	}
	return types.TypeString(t, func(p *types.Package) string { return p.Name() })
}
