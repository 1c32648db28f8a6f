package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestDeadCitations: a Go comment naming a markdown file that exists
// neither beside the file nor from the root fails the check; one that
// exists either way, a URL, and a string literal do not.
func TestDeadCitations(t *testing.T) {
	root := t.TempDir()
	write := func(rel, body string) {
		p := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("docs/guide.md", "# guide\n")
	write("pkg/README.md", "# pkg\n")
	write("pkg/a.go", `// Package pkg is described in README.md and docs/guide.md; see
// https://example.com/SPEC.md for the wire format, and DESIGN.md §5
// for why.
package pkg

var files = []string{"MISSING.md"}

/* The numbers are in docs/RESULTS.md. */
`)
	problems, err := check(root)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"pkg/a.go:2: cites DESIGN.md, which does not exist",
		"pkg/a.go:8: cites docs/RESULTS.md, which does not exist",
	}
	if strings.Join(problems, "\n") != strings.Join(want, "\n") {
		t.Fatalf("problems:\n%s\nwant:\n%s", strings.Join(problems, "\n"), strings.Join(want, "\n"))
	}
}

// TestOptionTableListsFrontDoor: every option package sfa declares
// outside its tests must be a row of README.md's option table. Naming it
// elsewhere in the README — in prose or in another table — does not
// count, and options of other packages and of test files need no row.
func TestOptionTableListsFrontDoor(t *testing.T) {
	root := t.TempDir()
	write := func(rel, body string) {
		p := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("sfa/api.go", "package sfa\n\nfunc WithListed() Option { return nil }\n\nfunc WithMentioned() Option { return nil }\n\nfunc WithoutRow() Option { return nil }\n")
	write("sfa/api_test.go", "package sfa\n\nfunc WithTestOnly() Option { return nil }\n")
	write("engine/knobs.go", "package engine\n\nfunc WithEngineKnob() Option { return nil }\n")
	write("README.md", `# api

| engine (`+"`WithMentioned`"+`) | when |
|---|---|

WithoutRow is described here in prose.

| option | effect |
|---|---|
| `+"`WithListed()`"+` | listed |
`)
	problems, err := check(root)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"README.md: the option table does not list WithMentioned, which package sfa exports",
		"README.md: the option table does not list WithoutRow, which package sfa exports",
	}
	if strings.Join(problems, "\n") != strings.Join(want, "\n") {
		t.Fatalf("problems:\n%s\nwant:\n%s", strings.Join(problems, "\n"), strings.Join(want, "\n"))
	}
}

// TestRepoPassesDocscheck runs every gate over this repository, so a
// dead citation or a broken doc link fails the test suite too, not only
// make docs-check.
func TestRepoPassesDocscheck(t *testing.T) {
	problems, err := check(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}
