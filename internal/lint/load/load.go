// Package load turns Go package patterns into type-checked analysis
// units without depending on golang.org/x/tools. It shells out to
// `go list -export -deps -test -json` once to learn the package graph
// and the compiler's export-data files, parses each in-module package's
// sources, and type-checks them with the standard library's gc importer
// reading imports from that export data. The result is exactly what the
// sfavet analyzers need: syntax trees plus full go/types information
// for every package (and test variant) in the module.
//
// Per package the go tool distinguishes the plain package, the
// augmented test variant ("p [p.test]", plain files + in-package
// _test.go files), and the external test package ("p_test [p.test]").
// Load returns the augmented variant where one exists and the plain
// package otherwise, plus any external test packages — so every
// declaration in the module is analyzed exactly once.
//
// Imports always resolve through export data (never through another
// unit's type-checked objects), so units are independent type
// universes; analyzers that correlate facts across packages key them by
// (package path, identifier) strings, not go/types object identity.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	Dir         string
	ImportPath  string
	ForTest     string // set on test variants: the package under test
	Export      string // export-data file (from -export)
	GoFiles     []string
	CgoFiles    []string
	TestGoFiles []string
	ImportMap   map[string]string // source import path → resolved path
	Module      *struct{ Path, Dir string }
	Standard    bool
}

// Unit is one type-checked collection of files, ready for analysis.
type Unit struct {
	// PkgPath is the unit's import path. Test variants carry the go
	// tool's bracketed form ("p [p.test]", "p_test [p.test]").
	PkgPath string
	// Pkg is the type-checked package (path is the unbracketed form).
	Pkg *types.Package
	// Files are the parsed sources, in go list order.
	Files []*ast.File
	// Info holds full type information for Files.
	Info *types.Info
	// Fset resolves positions for Files (shared across one Load call).
	Fset *token.FileSet
	// Test reports whether the unit contains _test.go files.
	Test bool
	// TypeErrors collects type-checker complaints. They are recorded,
	// not fatal, so a unit that fails to check (e.g. a fixture under
	// construction) still surfaces with positions; callers decide how
	// loud to be.
	TypeErrors []error
}

// Load lists patterns (plus their test variants) and type-checks every
// in-module package, dependencies first.
func Load(dir string, patterns ...string) ([]*Unit, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}

	// Export-data index for the importer; paths keyed exactly as the
	// compiler will ask for them (test variants keep their brackets).
	exports := map[string]string{}
	for _, p := range pkgs {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}

	// Pick the analysis units: in-module, non-synthesized, and for
	// packages with in-package tests prefer the augmented variant over
	// the plain package (its GoFiles are a strict superset).
	augmented := map[string]bool{} // plain paths shadowed by a variant
	for _, p := range pkgs {
		if p.ForTest != "" && !strings.HasSuffix(trimVariant(p.ImportPath), "_test") {
			augmented[p.ForTest] = true
		}
	}
	fset := token.NewFileSet()
	shared := newExportImporter(fset, exports)
	var units []*Unit
	seen := map[string]bool{}
	for _, p := range pkgs {
		switch {
		case p.Standard || p.Module == nil,
			strings.HasSuffix(p.ImportPath, ".test"), // synthesized test main
			p.ForTest == "" && augmented[p.ImportPath],
			seen[p.ImportPath]:
			continue
		}
		seen[p.ImportPath] = true
		if len(p.CgoFiles) > 0 {
			continue // cgo sources cannot be type-checked from raw syntax
		}
		u, err := typecheckUnit(fset, p, shared)
		if err != nil {
			return nil, err
		}
		if u != nil {
			units = append(units, u)
		}
	}
	return units, nil
}

// typecheckUnit parses and checks one go list entry from source.
func typecheckUnit(fset *token.FileSet, p *listPkg, shared types.ImporterFrom) (*Unit, error) {
	if len(p.GoFiles) == 0 {
		return nil, nil
	}
	var asts []*ast.File
	for _, f := range p.GoFiles {
		if !filepath.IsAbs(f) {
			f = filepath.Join(p.Dir, f)
		}
		a, err := parser.ParseFile(fset, f, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("load: parse %s: %w", f, err)
		}
		asts = append(asts, a)
	}
	u := &Unit{
		PkgPath: p.ImportPath,
		Files:   asts,
		Fset:    fset,
		Test:    p.ForTest != "" || len(p.TestGoFiles) > 0,
		Info:    NewInfo(),
	}
	conf := types.Config{
		Importer: &mapImporter{importMap: p.ImportMap, next: shared},
		Error:    func(err error) { u.TypeErrors = append(u.TypeErrors, err) },
	}
	pkg, err := conf.Check(trimVariant(p.ImportPath), fset, asts, u.Info)
	if pkg == nil {
		return nil, fmt.Errorf("load: typecheck %s: %v", p.ImportPath, err)
	}
	u.Pkg = pkg
	return u, nil
}

// NewInfo returns a types.Info with every map the analyzers use
// allocated.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
}

// trimVariant strips the " [p.test]" suffix off a test-variant path.
func trimVariant(path string) string {
	if i := strings.IndexByte(path, ' '); i >= 0 {
		return path[:i]
	}
	return path
}

// mapImporter applies one unit's ImportMap (so a test unit importing
// the package under test resolves to the test-variant export data) and
// delegates to the shared export-data importer.
type mapImporter struct {
	importMap map[string]string
	next      types.ImporterFrom
}

func (m *mapImporter) Import(path string) (*types.Package, error) {
	return m.ImportFrom(path, "", 0)
}

func (m *mapImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if r, ok := m.importMap[path]; ok {
		path = r
	}
	return m.next.ImportFrom(path, dir, mode)
}

// newExportImporter returns the stdlib gc importer wired to read export
// data recorded by `go list -export`. It is shared across units of one
// Load call: the gc importer caches by resolved path, and recursive
// imports inside export data are already fully resolved, so sharing is
// safe and avoids re-reading the standard library per unit.
func newExportImporter(fset *token.FileSet, exports map[string]string) types.ImporterFrom {
	lookup := func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("load: no export data for %q", path)
		}
		return os.Open(f)
	}
	return importer.ForCompiler(fset, "gc", lookup).(types.ImporterFrom)
}

// ExportImporter runs `go list -export -deps` for the given import
// paths (typically the standard-library closure a fixture needs) and
// returns an importer over the resulting export data. It exists for the
// analysistest harness, whose fixture files live outside the module.
func ExportImporter(fset *token.FileSet, dir string, paths ...string) (types.ImporterFrom, error) {
	pkgs, err := goList(dir, append([]string{"--"}, paths...))
	if err != nil {
		return nil, err
	}
	exports := map[string]string{}
	for _, p := range pkgs {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	return newExportImporter(fset, exports), nil
}

// goList runs the go command once and decodes its JSON stream.
func goList(dir string, patterns []string) ([]*listPkg, error) {
	args := []string{"list", "-e", "-export", "-deps", "-test", "-json"}
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("load: go list: %v\n%s", err, errb.String())
	}
	dec := json.NewDecoder(&out)
	var pkgs []*listPkg
	for {
		p := new(listPkg)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("load: decoding go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}
