// Quickstart: compile the paper's r5 benchmark pattern, inspect the
// automata the pipeline builds, and match a large input in parallel.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"strings"
	"time"

	"repro/sfa"
)

func main() {
	// r5 = ([0-4]{5}[5-9]{5})*: the pattern of the paper's Fig. 6.
	re, err := sfa.Compile("([0-4]{5}[5-9]{5})*")
	if err != nil {
		log.Fatal(err)
	}

	sizes := re.Sizes()
	fmt.Printf("pattern      %s\n", re)
	fmt.Printf("engine       %s\n", re.EngineName())
	fmt.Printf("NFA states   %d (Glushkov)\n", sizes.NFAStates)
	fmt.Printf("DFA states   %d live (paper: 10)\n", sizes.DFALive)
	fmt.Printf("SFA states   %d live (paper: 109)\n", sizes.SFALive)
	fmt.Printf("byte classes %d\n\n", sizes.Classes)

	// Small checks, each against the verdict the pattern defines.
	probes := []struct {
		in   string
		want bool
	}{{"", true}, {"0123456789", true}, {"0123456789012", false}, {"5012345678", false}}
	for _, p := range probes {
		got := re.MatchString(p.in)
		fmt.Printf("Match(%-15q) = %v\n", p.in, got)
		if got != p.want {
			log.Fatalf("Match(%q) = %v, want %v", p.in, got, p.want)
		}
	}

	// A 64 MiB accepted input, matched in parallel: the input is split at
	// arbitrary byte positions (Theorem 3), each chunk runs on its own
	// goroutine with one table lookup per byte, and the chunk results are
	// folded in O(p).
	text := []byte(strings.Repeat("0123455678", 64<<20/10))
	start := time.Now()
	ok := re.Match(text)
	elapsed := time.Since(start)
	fmt.Printf("\nparallel match of %d MiB: %v in %v (%.2f GB/s)\n",
		len(text)>>20, ok, elapsed, float64(len(text))/elapsed.Seconds()/1e9)
	if !ok {
		log.Fatal("the parallel match rejected an accepted input")
	}

	// The same input through the sequential DFA baseline (Algorithm 2).
	seq, err := sfa.Compile("([0-4]{5}[5-9]{5})*", sfa.WithEngine(sfa.EngineDFA))
	if err != nil {
		log.Fatal(err)
	}
	start = time.Now()
	seqOK := seq.Match(text)
	elapsed = time.Since(start)
	fmt.Printf("sequential DFA baseline:       %v (%.2f GB/s)\n",
		elapsed, float64(len(text))/elapsed.Seconds()/1e9)
	if seqOK != ok {
		log.Fatalf("sequential DFA %v, parallel SFA %v", seqOK, ok)
	}
}
