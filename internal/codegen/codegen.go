// Package codegen emits a self-contained Go source file holding a
// compiled D-SFA and specialized match functions — the ahead-of-time
// analogue of the paper's Regen "JIT-compiler" (the reference
// implementation compiled its automata to native code; Go's toolchain
// takes that role here). The generated file depends only on the standard
// library ("sync"), so it can be dropped into any project without
// importing this module.
package codegen

import (
	"fmt"
	"go/format"
	"io"
	"strings"

	"repro/internal/core"
)

// Options configures generation.
type Options struct {
	// Package is the package name of the generated file (default "match").
	Package string
	// Prefix prefixes all exported identifiers (default "SFA"), so
	// several matchers can coexist in one package.
	Prefix string
	// Pattern is echoed into the documentation of the generated API.
	Pattern string
}

func (o Options) defaults() Options {
	if o.Package == "" {
		o.Package = "match"
	}
	if o.Prefix == "" {
		o.Prefix = "SFA"
	}
	return o
}

// Generate writes gofmt-formatted Go source implementing the D-SFA as
// data plus two functions:
//
//	func <P>Match(text []byte) bool              // sequential SFA walk
//	func <P>MatchParallel(text []byte, p int) bool  // Algorithm 5
//
// Generation cost and binary size are linear in the SFA's table
// (256 entries/state plus |D| mapping entries/state); it is intended for
// the small automata of hot paths, not for 10⁶-state monsters.
func Generate(w io.Writer, s *core.DSFA, opts Options) error {
	opts = opts.defaults()
	var sb strings.Builder

	p := opts.Prefix
	fmt.Fprintf(&sb, "// Code generated by repro/internal/codegen. DO NOT EDIT.\n")
	fmt.Fprintf(&sb, "// Pattern: %s\n", opts.Pattern)
	fmt.Fprintf(&sb, "// D-SFA: %d states over a %d-state DFA.\n\n", s.NumStates, s.D.NumStates)
	fmt.Fprintf(&sb, "package %s\n\n", opts.Package)
	fmt.Fprintf(&sb, "import \"sync\"\n\n")

	// Transition table, 256-wide.
	tab := core.DSFATable256[int32](s)
	fmt.Fprintf(&sb, "// %sNext is the SFA transition table, 256 entries per state.\n", strings.ToLower(p))
	fmt.Fprintf(&sb, "var %sNext = [...]int32{", lower(p))
	for i, v := range tab {
		if i%16 == 0 {
			sb.WriteString("\n\t")
		}
		fmt.Fprintf(&sb, "%d, ", v)
	}
	fmt.Fprintf(&sb, "\n}\n\n")

	// Mapping vectors for the reduction.
	fmt.Fprintf(&sb, "// %sMaps holds each SFA state's transformation vector (length %d).\n", lower(p), s.D.NumStates)
	fmt.Fprintf(&sb, "var %sMaps = [...]int16{", lower(p))
	for id := int32(0); id < int32(s.NumStates); id++ {
		sb.WriteString("\n\t")
		for _, x := range s.Map(id) {
			fmt.Fprintf(&sb, "%d, ", x)
		}
	}
	fmt.Fprintf(&sb, "\n}\n\n")

	// Acceptance of DFA states (for the sequential reduction) and of SFA
	// states (for the plain walk).
	fmt.Fprintf(&sb, "var %sDFAAccept = [...]bool{", lower(p))
	for _, a := range s.D.Accept {
		fmt.Fprintf(&sb, "%v, ", a)
	}
	fmt.Fprintf(&sb, "}\n\n")
	fmt.Fprintf(&sb, "var %sAccept = [...]bool{", lower(p))
	for _, a := range s.Accept {
		fmt.Fprintf(&sb, "%v, ", a)
	}
	fmt.Fprintf(&sb, "}\n\n")

	fmt.Fprintf(&sb, "const (\n")
	fmt.Fprintf(&sb, "\t%sStart     = %d // identity mapping\n", lower(p), s.Start)
	fmt.Fprintf(&sb, "\t%sDFAStart  = %d\n", lower(p), s.D.Start)
	fmt.Fprintf(&sb, "\t%sDFAStates = %d\n", lower(p), s.D.NumStates)
	fmt.Fprintf(&sb, ")\n\n")

	// Sequential matcher.
	fmt.Fprintf(&sb, `// %sMatch reports whether the whole input matches %q.
func %sMatch(text []byte) bool {
	q := int32(%sStart)
	for _, b := range text {
		q = %sNext[int(q)<<8|int(b)]
	}
	return %sAccept[q]
}

`, p, opts.Pattern, p, lower(p), lower(p), lower(p))

	// Parallel matcher (Algorithm 5, sequential reduction).
	fmt.Fprintf(&sb, `// %sMatchParallel matches with p goroutines (Algorithm 5 of the SFA
// paper): each scans a chunk from the identity state; results reduce in
// O(p) through the transformation vectors.
func %sMatchParallel(text []byte, p int) bool {
	if p < 2 || len(text) < p {
		return %sMatch(text)
	}
	locals := make([]int32, p)
	var wg sync.WaitGroup
	size := len(text) / p
	for i := 0; i < p; i++ {
		lo, hi := i*size, (i+1)*size
		if i == p-1 {
			hi = len(text)
		}
		wg.Add(1)
		go func(i, lo, hi int) {
			defer wg.Done()
			q := int32(%sStart)
			for _, b := range text[lo:hi] {
				q = %sNext[int(q)<<8|int(b)]
			}
			locals[i] = q
		}(i, lo, hi)
	}
	wg.Wait()
	q := int32(%sDFAStart)
	for _, f := range locals {
		q = int32(%sMaps[int(f)*%sDFAStates+int(q)])
	}
	return %sDFAAccept[q]
}
`, p, p, p, lower(p), lower(p), lower(p), lower(p), lower(p), lower(p))

	src, err := format.Source([]byte(sb.String()))
	if err != nil {
		return fmt.Errorf("codegen: generated source does not format: %w", err)
	}
	_, err = w.Write(src)
	return err
}

func lower(prefix string) string {
	if prefix == "" {
		return "sfa"
	}
	return strings.ToLower(prefix[:1]) + prefix[1:]
}
