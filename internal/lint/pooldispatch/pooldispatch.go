// Package pooldispatch enforces the ROADMAP standing caveat that
// everything dispatches through engine.Pool: inside the packages that
// make up the scan path, a raw `go` statement is a bug unless the
// enclosing function is explicitly marked as a spawner.
//
// The pool exists so that steady-state matching performs zero goroutine
// creation and so that nested dispatch (Pool.Map tasks running a parallel matcher)
// cannot deadlock; a stray `go` reintroduces per-call spawn cost at
// best and, at worst, work that the pool's helping protocol does not
// know about. The allowlist is explicit in the source:
//
//	//sfa:spawner — this function intentionally creates goroutines.
//
// Legitimate spawners are the pool internals themselves (NewPool's
// worker loop) and the deliberate spawn-mode engines that exist to
// measure thread-creation cost (the paper's Fig. 10). Test files are
// exempt wholesale: tests spawn goroutines to exercise concurrency.
package pooldispatch

import (
	"go/ast"
	"strings"

	"repro/internal/lint/analysis"
)

// DefaultPackages are the import-path prefixes the repo enforces: the
// packages a scan's control flow passes through.
var DefaultPackages = []string{
	"repro/internal/engine",
	"repro/internal/multi",
	"repro/internal/prefilter",
	"repro/internal/serve",
}

// New returns the analyzer restricted to packages whose import path
// starts with one of prefixes. An empty prefix list enforces
// everywhere (used by tests; the repo gate uses DefaultPackages).
func New(prefixes ...string) *analysis.Analyzer {
	a := &analysis.Analyzer{
		Name: "pooldispatch",
		Doc: "flag raw go statements in scan-path packages; all dispatch " +
			"belongs on engine.Pool unless the function is //sfa:spawner",
	}
	a.Run = func(pass *analysis.Pass) {
		if len(prefixes) > 0 && !matchAny(pass.PkgPath, prefixes) {
			return
		}
		analysis.WithStack(pass.Files, func(n ast.Node, stack []ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if pass.InTestFile(g.Pos()) {
				return true
			}
			fn := analysis.EnclosingFunc(stack)
			if fn != nil {
				if _, ok := analysis.FuncDirective(fn, "spawner"); ok {
					return true
				}
			}
			name := "function literal"
			if fn != nil {
				name = fn.Name.Name
			}
			pass.Reportf(g.Pos(),
				"raw go statement in %s: scan-path packages dispatch through engine.Pool "+
					"(annotate the function //sfa:spawner only for pool internals or deliberate spawn-mode paths)",
				name)
			return true
		})
	}
	return a
}

func matchAny(path string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(path, p) {
			return true
		}
	}
	return false
}
