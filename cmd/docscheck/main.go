// Command docscheck keeps the prose honest. It runs three gates over the
// repo's hand-written markdown (README.md, ROADMAP.md, docs/, and the
// per-package READMEs), and one over the Go source's comments:
//
//  1. link check — every relative markdown link target must exist on
//     disk (external http(s) links are not fetched);
//  2. stale-option check — every `With...` option name the docs mention
//     must be declared as a function somewhere in the Go source, so a
//     renamed or removed sfa.With* / engine.With* option fails CI
//     instead of rotting in the README;
//  3. stale-annotation check — every `//sfa:<name>` analyzer annotation
//     the docs mention (see docs/static-analysis.md) must occur in some
//     .go file (analyzer fixtures count), so the documented grammar
//     cannot drift from what sfavet actually recognizes;
//  4. citation check — every *.md file a Go comment names must exist,
//     beside the citing file or from the repo root, so source comments
//     cannot send a reader to a document that was never written or has
//     since gone.
//
// Run from the repo root (make docs-check does): docscheck [-root dir].
// Exits 1 listing every violation.
package main

import (
	"flag"
	"fmt"
	"go/scanner"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// docFiles are the hand-maintained markdown surfaces. Generated or
// retrieval-produced files (PAPERS.md, SNIPPETS.md, BENCH notes) are
// exempt — their links point at sources this checkout never contains.
var docFiles = []string{
	"README.md",
	"ROADMAP.md",
	"docs",
	"internal/engine/README.md",
	"internal/snapshot/README.md",
}

var (
	// linkRe captures inline markdown link targets: [text](target).
	linkRe = regexp.MustCompile(`\]\(([^)\s]+)\)`)
	// optionRe matches documented option names: WithSearch, WithoutPrefilter.
	optionRe = regexp.MustCompile(`\bWith(?:out)?[A-Z]\w*`)
	// declRe matches option constructors in Go source.
	declRe = regexp.MustCompile(`(?m)^func (With(?:out)?[A-Z]\w*)\(`)
	// directiveRe matches sfavet annotations in docs and Go source.
	directiveRe = regexp.MustCompile(`//sfa:[a-z]+`)
	// citeRe matches markdown file names cited in Go comments, URLs
	// included so they can be told apart.
	citeRe = regexp.MustCompile(`(?:https?://)?[\w./-]*\w\.md\b`)
)

func main() {
	root := flag.String("root", ".", "repository root")
	flag.Parse()

	problems, err := check(*root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "docscheck: %v\n", err)
		os.Exit(1)
	}
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, "docscheck:", p)
		}
		os.Exit(1)
	}
	fmt.Println("docscheck: ok")
}

// check runs every gate over the tree at root and returns the violations.
func check(root string) ([]string, error) {
	declared, annotations, problems, err := scanSource(root)
	if err != nil {
		return nil, err
	}
	for _, md := range collectDocs(root) {
		data, err := os.ReadFile(md)
		if err != nil {
			problems = append(problems, fmt.Sprintf("%s: %v", md, err))
			continue
		}
		text := string(data)
		rel, _ := filepath.Rel(root, md)

		for _, m := range linkRe.FindAllStringSubmatch(text, -1) {
			target := m[1]
			if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") ||
				strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
				continue
			}
			target, _, _ = strings.Cut(target, "#")
			if target == "" {
				continue
			}
			p := filepath.Join(filepath.Dir(md), filepath.FromSlash(target))
			if _, err := os.Stat(p); err != nil {
				problems = append(problems, fmt.Sprintf("%s: broken link %q", rel, m[1]))
			}
		}

		for _, opt := range optionRe.FindAllString(text, -1) {
			if !declared[opt] {
				problems = append(problems, fmt.Sprintf("%s: documents option %s, which no Go source declares", rel, opt))
			}
		}

		for _, ann := range directiveRe.FindAllString(text, -1) {
			if !annotations[ann] {
				problems = append(problems, fmt.Sprintf("%s: documents annotation %s, which no Go source uses", rel, ann))
			}
		}
	}
	return problems, nil
}

// collectDocs expands docFiles: plain files as-is, directories
// recursively for .md entries. Missing entries are skipped (a doc
// removed on purpose should not wedge the checker).
func collectDocs(root string) []string {
	var out []string
	for _, f := range docFiles {
		p := filepath.Join(root, f)
		st, err := os.Stat(p)
		if err != nil {
			continue
		}
		if !st.IsDir() {
			out = append(out, p)
			continue
		}
		filepath.WalkDir(p, func(path string, d os.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(path, ".md") {
				out = append(out, path)
			}
			return nil
		})
	}
	return out
}

// scanSource scans the Go tree for (a) top-level With* constructors in
// non-test files, in any package — docs legitimately reference both
// sfa.With* and engine.With* options — (b) //sfa: analyzer annotations
// anywhere, analyzer fixtures included (the fixtures are the
// specification of each annotation's behaviour, so an annotation that
// exists only there is still real), and (c) comments citing a markdown
// file that does not exist, returned as problems. Hidden directories
// (.git, build output) are skipped.
func scanSource(root string) (decls, annotations map[string]bool, problems []string, err error) {
	decls, annotations = map[string]bool{}, map[string]bool{}
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		text := string(data)
		for _, ann := range directiveRe.FindAllString(text, -1) {
			annotations[ann] = true
		}
		problems = append(problems, deadCitations(root, path, data)...)
		if strings.HasSuffix(path, "_test.go") {
			return nil
		}
		for _, m := range declRe.FindAllStringSubmatch(text, -1) {
			decls[m[1]] = true
		}
		return nil
	})
	return decls, annotations, problems, err
}

// deadCitations reports every markdown file a comment of the Go file at
// path names that exists neither beside the file nor from the repo root.
// Only comments count: a string literal naming a file is data.
func deadCitations(root, path string, src []byte) []string {
	var out []string
	fset := token.NewFileSet()
	file := fset.AddFile(path, -1, len(src))
	var s scanner.Scanner
	s.Init(file, src, nil, scanner.ScanComments)
	rel, _ := filepath.Rel(root, path)
	for {
		pos, tok, lit := s.Scan()
		if tok == token.EOF {
			return out
		}
		if tok != token.COMMENT {
			continue
		}
		for _, cite := range citeRe.FindAllString(lit, -1) {
			if strings.Contains(cite, "://") {
				continue
			}
			name := filepath.FromSlash(cite)
			if exists(filepath.Join(filepath.Dir(path), name)) || exists(filepath.Join(root, name)) {
				continue
			}
			out = append(out, fmt.Sprintf("%s:%d: cites %s, which does not exist", rel, fset.Position(pos).Line, cite))
		}
	}
}

func exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}
