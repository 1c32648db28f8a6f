// Command sfavet is the repo's first-party static-analysis gate: a
// multichecker that runs the internal/lint analyzers over Go package
// patterns and fails when any invariant the codebase is built on is
// violated in source.
//
// The four analyzers and the prose invariants they mechanize:
//
//	atomicfield   — the atomic-access discipline of internal/obs and
//	                the engine attribution counters: a field accessed
//	                through sync/atomic anywhere must be accessed
//	                through sync/atomic everywhere.
//	hotpathalloc  — the zero-allocation contract of the streaming scan
//	                path (the AllocsPerRun tests, made lexical):
//	                //sfa:noalloc functions must not contain
//	                allocation-inducing constructs.
//	pooldispatch  — the ROADMAP standing caveat: scan-path packages
//	                dispatch through engine.Pool; raw go statements
//	                need an //sfa:spawner annotation.
//	borrowedtable — the owned-vs-borrowed table regime of
//	                docs/memory-model.md: //sfa:borrowed parameters
//	                are read-only and unretained unless //sfa:adopts.
//
// Usage:
//
//	sfavet [-json] [-only=a,b] [packages]
//
// Packages default to ./... resolved from the current directory, so
// both `go run ./cmd/sfavet ./...` at the repo root and `sfavet ./...`
// from an embedding module's root work; editors can wire it as a
// save hook the same way. Exit status is 1 when any diagnostic is
// reported, 2 on operational failure.
//
// The annotation grammar is documented in docs/static-analysis.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/lint/analysis"
	"repro/internal/lint/atomicfield"
	"repro/internal/lint/borrowedtable"
	"repro/internal/lint/hotpathalloc"
	"repro/internal/lint/load"
	"repro/internal/lint/pooldispatch"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("sfavet", flag.ExitOnError)
	jsonOut := fs.Bool("json", false, "emit diagnostics as a JSON array on stdout")
	only := fs.String("only", "", "comma-separated analyzer names to run (default: all)")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: sfavet [-json] [-only=a,b] [packages]\n\nanalyzers:\n")
		for _, a := range analyzers() {
			fmt.Fprintf(fs.Output(), "  %-14s %s\n", a.Name, a.Doc)
		}
	}
	fs.Parse(args)

	selected, err := selectAnalyzers(*only)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sfavet:", err)
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	units, err := load.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sfavet:", err)
		return 2
	}
	broken := false
	for _, u := range units {
		for _, terr := range u.TypeErrors {
			fmt.Fprintf(os.Stderr, "sfavet: %s: %v\n", u.PkgPath, terr)
			broken = true
		}
	}
	if broken {
		return 2
	}
	diags := analysis.Run(units, selected)
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []analysis.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintln(os.Stderr, "sfavet:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// analyzers returns fresh instances of the full suite.
func analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		atomicfield.New(),
		borrowedtable.New(),
		hotpathalloc.New(),
		pooldispatch.New(pooldispatch.DefaultPackages...),
	}
}

// selectAnalyzers filters the suite by the -only flag.
func selectAnalyzers(only string) ([]*analysis.Analyzer, error) {
	all := analyzers()
	if only == "" {
		return all, nil
	}
	byName := map[string]*analysis.Analyzer{}
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*analysis.Analyzer
	for _, name := range strings.Split(only, ",") {
		a, ok := byName[strings.TrimSpace(name)]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q (have: atomicfield, borrowedtable, hotpathalloc, pooldispatch)", name)
		}
		out = append(out, a)
	}
	return out, nil
}
