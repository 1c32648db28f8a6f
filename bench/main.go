// Command bench is the repository's benchmark: eight named workloads, the
// end-to-end metrics every one of them reports, and a traced run that
// yields one row per layer. BENCHMARK.json at the repository root names
// it; README.md in this directory explains the workloads and metrics.
//
//	bash bench/run.sh -seed 1                 # every workload, tracing off
//	bash bench/run.sh -seed 1 -trace 1        # every workload's traced run
//	bash bench/run.sh -workload scan_dense    # one workload; last line is the driver's JSON
//	bash bench/run.sh -selfcheck 2            # do repeated runs agree within the bounds?
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

func main() {
	os.Exit(realMain())
}

func realMain() (code int) {
	workload := flag.String("workload", "", "run this one workload and print the driver's JSON as the last line (default: every workload)")
	seed := flag.Int64("seed", 1, "seed of every generated input")
	secs := flag.Float64("seconds", 10, "length of one run's timed windows, in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: the traced run, which prints the per-layer metrics and writes the span file")
	selfcheck := flag.Int("selfcheck", 0, "N >= 2: run the untraced suite N times in alternating order and check that the runs agree within the bounds")
	out := flag.String("out", "", "directory for trace and result files (default: bench/out in the repository)")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		return 2
	}
	if *secs <= 0 || (*trace != 0 && *trace != 1) || *selfcheck == 1 || *selfcheck < 0 {
		fmt.Fprintln(os.Stderr, "bench: want -seconds > 0, -trace 0 or 1, -selfcheck 0 or >= 2")
		return 2
	}
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	root, err := repoRootFrom(wd)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if *out == "" {
		*out = filepath.Join(root, "bench", "out")
	}

	// A spawned server must not outlive the benchmark, whichever way it
	// ends: normal return, error, signal, or a panic on this goroutine
	// (deferred calls run while a panic unwinds; callers' panics are
	// turned into errors in runWindows).
	defer killChildren()
	sig := make(chan os.Signal, 1) // one pending signal is all that matters
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killChildren()
		os.Exit(130)
	}()

	rc := &runCfg{seed: *seed, seconds: *secs, setups: coldSetups, traced: *trace == 1, repoRoot: root, outDir: *out}
	switch {
	case *selfcheck >= 2:
		return selfCheck(rc, *selfcheck)
	case *workload != "":
		sc := findScenario(*workload)
		if sc == nil {
			fmt.Fprintf(os.Stderr, "bench: no workload %q; have %v\n", *workload, scenarioNames())
			return 2
		}
		return runAndPrint(sc, rc, true)
	default:
		for _, sc := range scenarios {
			if c := runAndPrint(sc, rc, false); c != 0 {
				code = c
			}
		}
		return code
	}
}

func scenarioNames() []string {
	names := make([]string, len(scenarios))
	for i, s := range scenarios {
		names[i] = s.name
	}
	return names
}

// runAndPrint runs one workload, prints its report, stores the full
// result under the out directory and, for the driver, ends standard
// output with the one-line JSON object.
func runAndPrint(sc *scenario, rc *runCfg, driver bool) int {
	res, err := runWorkload(sc, rc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	res.print(os.Stdout)
	if err := saveResult(rc.outDir, res); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if driver {
		line, err := json.Marshal(res.line())
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Printf("%s\n", line)
	}
	// A failed op at the reference seed is a broken benchmark or a broken
	// program, not a measurement.
	if res.Failed > 0 && rc.seed == 1 {
		fmt.Fprintf(os.Stderr, "bench: %s: %d of %d ops failed at seed 1\n", sc.name, res.Failed, res.Attempted)
		return 1
	}
	return 0
}

func saveResult(dir string, res *result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	kind := "result"
	if res.Traced {
		kind = "layers"
	}
	b, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, kind+"."+res.Workload+".json"), append(b, '\n'), 0o644)
}

// repoRootFrom finds the checkout root — the directory whose go.mod
// declares module repro — at or above dir.
func repoRootFrom(dir string) (string, error) {
	for d := dir; ; d = filepath.Dir(d) {
		if b, err := os.ReadFile(filepath.Join(d, "go.mod")); err == nil && bytes.HasPrefix(b, []byte("module repro\n")) {
			return d, nil
		}
		if d == filepath.Dir(d) {
			return "", fmt.Errorf("no go.mod of module repro at or above %s: run the benchmark from inside the repository", dir)
		}
	}
}
