// Command sfagrep matches a pattern against a file (or stdin) with any of
// the engines, reporting the verdict and throughput. By default it uses
// substring-search semantics like grep; -whole switches to the paper's
// whole-input acceptance.
//
// Input is scanned in streamed chunks through the SFA's carried-mapping
// protocol (sfa.Stream / sfa.RuleStream), so arbitrarily large files and
// unbounded stdin pipes match in constant memory; only the non-streaming
// engines (-engine lazy|dfa|spec|nfa) fall back to buffering the input.
//
// With -f the pattern argument is replaced by a rules file — one rule
// per line, `name pattern` or bare `pattern`, # comments — compiled into
// a combined multi-pattern D-SFA (sharded on state-budget blow-up) and
// scanned in one pooled pass per shard; matching rule names are printed.
// Patterns written /…/i, /…/s, or /…/is carry per-rule flags (the SNORT
// pcre convention, shared with sfaserve's tenant endpoints); a *literal*
// pattern of that exact shape must be written as (?:/…/s) to suppress
// the flag reading.
//
// Usage:
//
//	sfagrep [-engine sfa|lazy|dfa|spec|nfa] [-p N] [-whole] pattern [file]
//	sfagrep -f rules [-isolated] [-shards K] [-cache dir] [file]
//
// -cache points the combined compiler at a content-addressed shard
// cache directory: the first run stores every compiled shard, repeated
// runs over the same rules load them instead of rebuilding (-stats shows
// the build time collapse).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/serve"
	"repro/sfa"
)

// chunkSize is the streaming read granularity: large enough to engage
// the engines' parallel chunk path, small enough to keep memory flat.
const chunkSize = 256 << 10

// streamInto copies r into the stream in chunkSize chunks. The src is
// wrapped to hide *os.File's WriterTo, which io.CopyBuffer would
// otherwise prefer — streaming at its own smaller granularity and never
// touching the tuned buffer.
func streamInto(w io.Writer, r io.Reader) (int64, error) {
	return io.CopyBuffer(w, struct{ io.Reader }{r}, make([]byte, chunkSize))
}

func main() {
	engine := flag.String("engine", "sfa", "engine: sfa, lazy, dfa, spec, nfa")
	threads := flag.Int("p", 0, "threads (0 = GOMAXPROCS)")
	whole := flag.Bool("whole", false, "whole-input acceptance instead of substring search")
	fold := flag.Bool("i", false, "case-insensitive")
	dotall := flag.Bool("s", false, "dot matches newline")
	stats := flag.Bool("stats", false, "print automata sizes and throughput")
	rulesFile := flag.String("f", "", "rules file: one `name pattern` (or bare pattern) per line")
	isolated := flag.Bool("isolated", false, "with -f: one engine per rule instead of the combined automaton")
	shards := flag.Int("shards", 0, "with -f: force K combined shards (0 = automatic)")
	cacheDir := flag.String("cache", "", "with -f: content-addressed shard cache directory (repeated runs skip construction)")
	noPrefilter := flag.Bool("no-prefilter", false, "with -f: disable the literal prefilter cascade (A/B baseline)")
	flag.Parse()

	wantArgs := 1
	if *rulesFile != "" {
		wantArgs = 0
	}
	if flag.NArg() < wantArgs || flag.NArg() > wantArgs+1 {
		fmt.Fprintln(os.Stderr, "usage: sfagrep [flags] pattern [file]  |  sfagrep -f rules [file]")
		os.Exit(2)
	}

	input := io.Reader(os.Stdin)
	if flag.NArg() == wantArgs+1 {
		f, err := os.Open(flag.Arg(wantArgs))
		if err != nil {
			fmt.Fprintf(os.Stderr, "sfagrep: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		input = f
	}

	opts := []sfa.Option{sfa.WithThreads(*threads)}
	var flags sfa.Flag
	if *fold {
		flags |= sfa.FoldCase
	}
	if *dotall {
		flags |= sfa.DotAll
	}
	opts = append(opts, sfa.WithFlags(flags))
	if !*whole {
		opts = append(opts, sfa.WithSearch())
	}
	eng, err := parseEngine(*engine)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sfagrep: %v\n", err)
		os.Exit(2)
	}
	// A non-SFA engine makes RuleSet fall back to per-rule engines — the
	// right call for e.g. `-engine lazy -f rules` on blow-up-prone rules.
	opts = append(opts, sfa.WithEngine(eng))

	if *rulesFile != "" {
		if *cacheDir != "" {
			opts = append(opts, sfa.WithShardCache(*cacheDir))
		}
		if *noPrefilter {
			opts = append(opts, sfa.WithoutPrefilter())
		}
		scanRules(*rulesFile, input, opts, *isolated, *shards, *stats)
		return
	}
	pattern := flag.Arg(0)

	re, err := sfa.Compile(pattern, opts...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sfagrep: %v\n", err)
		os.Exit(1)
	}

	var matched bool
	var n int64
	start := time.Now()
	if st, serr := re.NewStream(); serr == nil {
		// The default path: chunked streaming, constant memory.
		if n, err = streamInto(st, input); err != nil {
			fmt.Fprintf(os.Stderr, "sfagrep: %v\n", err)
			os.Exit(1)
		}
		matched = st.Accepted()
	} else {
		// Engines without a carried-mapping protocol buffer the input.
		data, rerr := io.ReadAll(input)
		if rerr != nil {
			fmt.Fprintf(os.Stderr, "sfagrep: %v\n", rerr)
			os.Exit(1)
		}
		n = int64(len(data))
		matched = re.Match(data)
	}
	elapsed := time.Since(start)

	if *stats {
		s := re.Sizes()
		fmt.Printf("engine=%s |N|=%d |D|=%d |Sd|=%d classes=%d\n",
			re.EngineName(), s.NFAStates, s.DFALive, s.SFALive, s.Classes)
		fmt.Printf("%d bytes in %v (%.3f GB/s)\n",
			n, elapsed, float64(n)/elapsed.Seconds()/1e9)
	}
	if matched {
		fmt.Println("match")
		return
	}
	fmt.Println("no match")
	os.Exit(1)
}

// parseEngine maps the -engine flag to an engine.
func parseEngine(name string) (sfa.Engine, error) {
	switch name {
	case "sfa":
		return sfa.EngineSFA, nil
	case "lazy":
		return sfa.EngineLazySFA, nil
	case "dfa":
		return sfa.EngineDFA, nil
	case "spec":
		return sfa.EngineSpecDFA, nil
	case "nfa":
		return sfa.EngineNFA, nil
	}
	return 0, fmt.Errorf("unknown engine %q", name)
}

// scanRules is the -f mode: compile the rules file into a RuleSet and
// report every matching rule, consuming the input in streamed chunks.
// opts carries the shared flags, including the engine choice (non-SFA
// engines select per-rule matching and buffer the input instead).
func scanRules(path string, input io.Reader, opts []sfa.Option, isolated bool, shards int, stats bool) {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sfagrep: %v\n", err)
		os.Exit(1)
	}
	defs, err := serve.ParseRules(f)
	f.Close()
	if err != nil {
		fmt.Fprintf(os.Stderr, "sfagrep: %v\n", err)
		os.Exit(1)
	}

	if isolated {
		opts = append(opts, sfa.WithIsolatedRules())
	}
	if shards > 0 {
		opts = append(opts, sfa.WithShards(shards))
	}

	buildStart := time.Now()
	rs, err := sfa.NewRuleSetFromDefs(defs, opts...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sfagrep: %v\n", err)
		os.Exit(1)
	}
	build := time.Since(buildStart)

	var hits []string
	var n int64
	start := time.Now()
	if st, serr := rs.NewStream(); serr == nil {
		if n, err = streamInto(st, input); err != nil {
			fmt.Fprintf(os.Stderr, "sfagrep: %v\n", err)
			os.Exit(1)
		}
		hits = st.Matches()
	} else {
		data, rerr := io.ReadAll(input)
		if rerr != nil {
			fmt.Fprintf(os.Stderr, "sfagrep: %v\n", rerr)
			os.Exit(1)
		}
		n = int64(len(data))
		hits = rs.Scan(data, 0)
	}
	elapsed := time.Since(start)

	if stats {
		fmt.Printf("%d rules in %d shard(s), built in %v\n", rs.Len(), rs.NumShards(), build.Round(time.Millisecond))
		for i, sh := range rs.Shards() {
			fmt.Printf("  shard %d: |D|=%-6d |Sd|=%-7d layout=%-5s table %6d KiB  prefilter=%-6s %d rule(s)\n",
				i, sh.DFAStates, sh.SFAStates, sh.Layout, sh.TableBytes>>10, sh.Prefilter, len(sh.Rules))
		}
		if pf := rs.PrefilterStats(); pf.Enabled {
			fmt.Printf("prefilter: stage=%s literals=%d covered=%d/%d chunks skipped=%d scanned=%d",
				pf.Stage, pf.Literals, pf.RulesCovered, pf.RulesCovered+pf.RulesUncovered,
				pf.ChunksSkipped, pf.ChunksScanned)
			if pf.TotalBytes > 0 {
				fmt.Printf(" candidate bytes %d/%d (%.1f%%)",
					pf.CandidateBytes, pf.TotalBytes, 100*float64(pf.CandidateBytes)/float64(pf.TotalBytes))
			}
			if pf.BypassedBlocks > 0 {
				fmt.Printf(" bypassed %d bytes in %d blocks (cascade %d vs whole %d ns/KiB)",
					pf.BypassedBytes, pf.BypassedBlocks, pf.CascadeNsPerKiB, pf.WholeNsPerKiB)
			}
			fmt.Println()
		}
		fmt.Printf("%d bytes in %v (%.3f GB/s)\n",
			n, elapsed, float64(n)/elapsed.Seconds()/1e9)
	}
	for _, name := range hits {
		fmt.Println(name)
	}
	if len(hits) == 0 {
		os.Exit(1)
	}
}
