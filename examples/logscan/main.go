// Log-format validation: check that a large machine-generated record file
// conforms to its format grammar, comparing every engine of the paper —
// this is the whole-input acceptance use case the paper benchmarks, on a
// realistic task (a malformed byte anywhere must flip the verdict).
//
//	go run ./examples/logscan
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/textgen"
	"repro/sfa"
)

func main() {
	// Records of ten digits alternating even/odd — the paper's Fig. 10
	// pattern, acting as a checksum-like format grammar.
	const pattern = "(([02468][13579]){5})*"
	data := textgen.EvenOddText(64<<20, 7)
	fmt.Printf("validating %d MiB against %s\n\n", len(data)>>20, pattern)

	engines := []struct {
		label string
		opts  []sfa.Option
	}{
		{"nfa-sim (oracle)", []sfa.Option{sfa.WithEngine(sfa.EngineNFA)}},
		{"dfa sequential (Alg.2)", []sfa.Option{sfa.WithEngine(sfa.EngineDFA)}},
		{"dfa speculative p=2 (Alg.3)", []sfa.Option{sfa.WithEngine(sfa.EngineSpecDFA), sfa.WithThreads(2)}},
		{"sfa parallel p=2 (Alg.5)", []sfa.Option{sfa.WithEngine(sfa.EngineSFA), sfa.WithThreads(2)}},
		{"sfa lazy p=2", []sfa.Option{sfa.WithEngine(sfa.EngineLazySFA), sfa.WithThreads(2)}},
	}

	// The O(|N|·n) oracle gets a smaller slice, cut at a record boundary
	// so it stays in the language.
	nfaLen := (4 << 20) - (4<<20)%10
	nfaBytes := data[:nfaLen]
	for _, e := range engines {
		re, err := sfa.Compile(pattern, e.opts...)
		if err != nil {
			log.Fatal(err)
		}
		input := data
		if e.label == "nfa-sim (oracle)" {
			input = nfaBytes
		}
		start := time.Now()
		ok := re.Match(input)
		elapsed := time.Since(start)
		fmt.Printf("%-28s %5v  %10v  %7.3f GB/s (%d MiB)\n",
			e.label, ok, elapsed.Round(time.Microsecond),
			float64(len(input))/elapsed.Seconds()/1e9, len(input)>>20)
		if !ok {
			log.Fatalf("%s rejected a file that conforms", e.label)
		}
	}

	// Corrupt one byte in the middle: the verdict must flip.
	data[len(data)/2] = 'x'
	re := sfa.MustCompile(pattern, sfa.WithThreads(2))
	ok := re.Match(data)
	fmt.Printf("\nafter corrupting byte %d: Match = %v (must be false)\n", len(data)/2, ok)
	if ok {
		log.Fatal("the corrupted file was accepted")
	}
}
