package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// benchmarkDoc is BENCHMARK.json, with exactly the keys the driver's
// contract names.
type benchmarkDoc struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []docWorkload `json:"workloads"`
	EndToEnd   []docBounded  `json:"end_to_end"`
	PerLayer   []docMetric   `json:"per_layer"`
}

type docWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type docMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

type docBounded struct {
	docMetric
	Bound float64 `json:"bound"`
}

// wantBenchmarkDoc renders the Go tables as BENCHMARK.json.
func wantBenchmarkDoc() benchmarkDoc {
	doc := benchmarkDoc{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: 10}
	for _, sc := range scenarios {
		doc.Workloads = append(doc.Workloads, docWorkload{sc.name, sc.why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, docBounded{docMetric{d.Name, d.Unit, d.Better}, d.Bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, docMetric{d.Name, d.Unit, d.Better})
	}
	return doc
}

// TestBenchmarkJSON keeps BENCHMARK.json and the tables in metrics.go and
// workloads.go saying the same thing. Run with BENCH_UPDATE=1 to rewrite
// the file from the tables.
func TestBenchmarkJSON(t *testing.T) {
	want, err := json.MarshalIndent(wantBenchmarkDoc(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	path := filepath.Join("..", "BENCHMARK.json")
	if os.Getenv("BENCH_UPDATE") == "1" {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from the tables in metrics.go and workloads.go; BENCH_UPDATE=1 go test -run TestBenchmarkJSON rewrites it")
	}
	if len(got) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, the driver refuses more than 64 KiB", len(got))
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSchema holds the tables to the limits of the driver's contract.
func TestSchema(t *testing.T) {
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q: want [A-Za-z0-9_.-], at most 64, starting with a letter or digit", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(scenarios); n < 2 || n > 8 {
		t.Errorf("%d workloads, the driver takes 2 to 8", n)
	}
	for _, sc := range scenarios {
		name(sc.name)
		if sc.why == "" || len(sc.why) > 200 || strings.ContainsAny(sc.why, "\n\r") {
			t.Errorf("%s: the recorded reason must be one line of at most 200 characters, has %d", sc.name, len(sc.why))
		}
		if sc.prepare == nil {
			t.Errorf("%s: incomplete scenario", sc.name)
		}
	}
	metric := func(d metricDef) {
		t.Helper()
		name(d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
		if d.Better != "higher" && d.Better != "lower" {
			t.Errorf("%s: direction %q", d.Name, d.Better)
		}
		if d.Doc == "" {
			t.Errorf("%s: no definition", d.Name)
		}
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, the driver takes 1 to 16", n)
	}
	for _, d := range endToEnd {
		metric(d)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g, want (0, 0.25]", d.Name, d.Bound)
		}
	}
	if d, ok := findMetric(endToEnd, "setup_s"); !ok || d.Unit != "s" || d.Better != "lower" {
		t.Error("setup_s (s, lower) must be an end-to-end metric")
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, the driver takes 1 to 128", n)
	}
	for _, d := range perLayer {
		metric(d)
		if !strings.Contains(d.Name, ".") || d.Moves == "" {
			t.Errorf("%s: a per-layer metric is <module>.<metric> and says which end-to-end metric it should move", d.Name)
		}
		if d.Bound != 0 {
			t.Errorf("%s: per-layer metrics have no bound", d.Name)
		}
	}
}

// TestDriverLine checks the shape of the last output line: exactly the
// four keys, and every metric as {value, unit}.
func TestDriverLine(t *testing.T) {
	res := &result{Attempted: 10, Failed: 1, Metrics: map[string]value{"mbps": {1.5, "MB/s"}}}
	raw, err := json.Marshal(res.line())
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := doc[k]; !ok {
			t.Errorf("key %q missing from %s", k, raw)
		}
	}
	if len(doc) != 4 {
		t.Errorf("want exactly four keys, got %s", raw)
	}
	if string(doc["correct"]) != "false" {
		t.Errorf("a failed op must read correct=false: %s", raw)
	}
	if want := `{"mbps":{"value":1.5,"unit":"MB/s"}}`; string(doc["metrics"]) != want {
		t.Errorf("metrics = %s, want %s", doc["metrics"], want)
	}
}
