package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"slices"
	"strconv"
)

// selfCheck answers "do two sets of runs of the same code agree within
// the benchmark's own bounds?". It runs the untraced suite n times the
// way the driver does — one fresh process per workload, the result read
// from the last line of its output — alternating the workload order, and
// compares each metric × workload across the runs.
func selfCheck(rc *runCfg, n int) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	vals := map[string]map[string][]float64{} // workload → metric → one value per run
	for run := 0; run < n; run++ {
		order := slices.Clone(scenarios)
		if run%2 == 1 {
			slices.Reverse(order)
		}
		for _, sc := range order {
			fmt.Printf("selfcheck: run %d/%d, %s\n", run+1, n, sc.name)
			line, err := runChild(exe, rc, sc.name)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: selfcheck: %s: %v\n", sc.name, err)
				return 1
			}
			if !line.Correct {
				fmt.Fprintf(os.Stderr, "bench: selfcheck: %s: %d of %d ops failed\n", sc.name, line.Failed, line.Attempted)
				return 1
			}
			if vals[sc.name] == nil {
				vals[sc.name] = map[string][]float64{}
			}
			for name, v := range line.Metrics {
				vals[sc.name][name] = append(vals[sc.name][name], v.Value)
			}
		}
	}

	fmt.Printf("\n%-15s %-14s %-40s %9s %7s  %s\n", "workload", "metric", "runs", "spread", "bound", "")
	code := 0
	worst := map[string]float64{}
	for _, sc := range scenarios {
		for _, d := range endToEnd {
			xs := vals[sc.name][d.Name]
			spread := (slices.Max(xs) - slices.Min(xs)) / math.Abs(median(xs))
			verdict := "ok"
			if spread > d.Bound {
				verdict = "EXCEEDS ITS BOUND"
				code = 1
			}
			worst[d.Name] = max(worst[d.Name], spread, 2*relIQR(xs))
			fmt.Printf("%-15s %-14s %-40s %8.2f%% %6.1f%%  %s\n", sc.name, d.Name, fmtRuns(xs), spread*100, d.Bound*100, verdict)
		}
	}
	// The measured bounds: what BENCHMARK.json could state from this
	// evidence alone. A metric is never bound tighter than its floor in
	// metrics.go; one that does not hold 10 % is pointed out, with the evidence
	// in the table above.
	fmt.Printf("\nmeasured bounds (max over workloads of run-to-run spread and 2 × IQR across runs; floor = the bound in metrics.go):\n")
	for _, d := range endToEnd {
		note := ""
		if d.Name != "setup_s" && worst[d.Name] > 0.10 {
			note = "  <- did not hold 10 % in this check"
		}
		fmt.Printf("  %-14s measured %6.2f%%  floor %5.1f%%  -> bound %5.1f%%%s\n",
			d.Name, worst[d.Name]*100, d.Bound*100, max(worst[d.Name], d.Bound)*100, note)
	}
	if code != 0 {
		fmt.Println("\nselfcheck: FAILED — at least one metric moved by more than its bound between runs of the same code")
	} else {
		fmt.Println("\nselfcheck: ok — every metric × workload agreed within its bound")
	}
	return code
}

func fmtRuns(xs []float64) string {
	var b bytes.Buffer
	for i, x := range xs {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(strconv.FormatFloat(x, 'g', 6, 64))
	}
	return b.String()
}

// runChild runs one workload in a fresh process and decodes the last
// line of its standard output.
func runChild(exe string, rc *runCfg, workload string) (driverLine, error) {
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(rc.seed, 10),
		"-seconds", strconv.FormatFloat(rc.seconds, 'g', -1, 64), "-trace", "0", "-out", rc.outDir)
	cmd.Dir = rc.repoRoot
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return driverLine{}, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var line driverLine
	if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
		return driverLine{}, fmt.Errorf("last output line is not the driver's JSON: %w", err)
	}
	return line, nil
}
