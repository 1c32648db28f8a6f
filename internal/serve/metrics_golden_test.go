package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/sfa"
)

// Golden tests for both /metrics encodings. One scenario exercises
// every family the hub can emit — a state dir (restore and shard-cache
// counters), a lazy tenant under a table budget with fills, an eager
// tenant with scans, a reload and rule heat, and a deleted tenant whose
// history stays — then the exposition and the JSON document are
// compared, after masking, with testdata/metrics.{prom,json}.golden.
//
// Masked are the values that depend on time, scheduling or the Go
// runtime: every family whose unit is nanoseconds or seconds (its value,
// or for a histogram its finite buckets and _sum — the +Inf bucket and
// _count are observation counts and stay exact), the pool and sfa_go_*
// families, and the build-info labels. Everything else — the family
// order, HELP and TYPE lines, label sets and the remaining values — is
// pinned. Scans go through the handler with in-memory bodies under 4 KiB
// at one thread, so every body is one stream write, the prefilter's arm
// choice never measures, and the counts are the same on every run.

// goldenHub drives the golden scenario and returns the handler that
// serves its /metrics.
func goldenHub(t *testing.T) http.Handler {
	t.Helper()
	st, err := OpenState(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	hub := NewHub(sfa.WithSearch(), sfa.WithThreads(1), sfa.WithLazyCompile(), sfa.WithShardStateBudget(256))
	hub.SetState(st)
	hub.SetTableBudget(sfa.NewTableBudget(8<<20), 1<<20)
	h := NewHandler(hub)
	do := func(method, path, body string, want int) {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		if rec.Code != want {
			t.Fatalf("%s %s: %d, want %d: %s", method, path, rec.Code, want, rec.Body)
		}
	}
	do("PUT", "/v1/tenants/web", rulesText(t, promTestDefs()), http.StatusCreated)
	// gapopen is unbounded, so it gates rather than windows: a payload
	// that holds its literal walks its shard whole through the lazy
	// tuple, which fills under the tenant's budget.
	gaps := append(lazyGapDefs(6), sfa.RuleDef{Name: "gapopen", Pattern: "q00.{0,8}z00 +/etc"})
	do("PUT", "/v1/tenants/gaps", rulesText(t, gaps), http.StatusCreated)
	do("PUT", "/v1/tenants/gone", rulesText(t, stateDefs()), http.StatusCreated)
	payload := strings.Repeat("innocent traffic ", 200) + "evil42payload beacon-host q00aaaaz00 /etc/passwd"
	for i := 0; i < 3; i++ {
		for _, name := range []string{"web", "gaps", "gone"} {
			do("POST", "/v1/tenants/"+name+"/scan", payload, http.StatusOK)
		}
	}
	// Any is a scan behind the prefilter that stops at the first block
	// with a match: the windowed gap rules are verified one at a time and
	// match in the payload's one block, so the gate shard is not walked.
	b, _ := hub.Tenant("gaps")
	if !b.RuleSet().Any([]byte(payload)) {
		t.Fatal("lazy tenant matched nothing")
	}
	do("PUT", "/v1/tenants/web", rulesText(t, append(promTestDefs(), sfa.RuleDef{Name: "extra", Pattern: "extra[0-9]"})), http.StatusOK)
	do("POST", "/v1/tenants/web/scan", payload, http.StatusOK)
	do("DELETE", "/v1/tenants/gone", "", http.StatusOK)
	return h
}

func getMetrics(t *testing.T, h http.Handler, query string) string {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics"+query, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics%s: %d", query, rec.Code)
	}
	return rec.Body.String()
}

// volatileFamily reports whether a family's values depend on time,
// scheduling or the runtime.
func volatileFamily(name string) bool {
	for _, suf := range []string{"_ns", "_ns_total", "_ns_per_kib", "_seconds"} {
		if strings.HasSuffix(name, suf) {
			return true
		}
	}
	return strings.HasPrefix(name, "sfa_pool_") || strings.HasPrefix(name, "sfa_go_")
}

var buildInfoLabels = regexp.MustCompile(`(commit|go_version)="[^"]*"`)

// maskProm masks the volatile parts of an exposition document.
func maskProm(text string) string {
	var out []string
	types := map[string]string{}
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			if f := strings.Fields(line); len(f) == 4 && f[1] == "TYPE" {
				types[f[2]] = f[3]
			}
			out = append(out, line)
			continue
		}
		series, _, _ := strings.Cut(line, " ")
		name, _, _ := strings.Cut(series, "{")
		base, suffix := name, ""
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if b := strings.TrimSuffix(name, suf); b != name && types[b] == "histogram" {
				base, suffix = b, suf
			}
		}
		if base == "sfa_build_info" {
			line = buildInfoLabels.ReplaceAllString(line, `$1="X"`)
		}
		if volatileFamily(base) {
			switch {
			case suffix == "_bucket" && !strings.Contains(series, `le="+Inf"`):
				continue // how many finite buckets show depends on the values
			case suffix == "" || suffix == "_sum":
				line = series + " X"
			}
		}
		out = append(out, line)
	}
	return strings.Join(out, "\n") + "\n"
}

// volatileJSON names the JSON keys whose values are times.
var volatileJSON = map[string]bool{
	"uptime_s": true, "compose_ns": true, "prep_ns": true, "build_ns": true,
	"total_ns": true, "failed_ns": true, "shard_build_ns": true, "stall_ns": true,
	"cascade_ns_per_kib": true, "whole_ns_per_kib": true,
}

// maskJSON indents a JSON document (json.Indent keeps the field order
// the encoder chose) and replaces every volatile key's value, however
// many lines it spans, with "X".
func maskJSON(t *testing.T, raw string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Indent(&buf, []byte(raw), "", "  "); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var out []string
	for i := 0; i < len(lines); i++ {
		line := lines[i]
		trimmed := strings.TrimLeft(line, " ")
		indent := line[:len(line)-len(trimmed)]
		key, val, ok := strings.Cut(trimmed, `": `)
		if ok && strings.HasPrefix(key, `"`) && volatileJSON[key[1:]] {
			if val == "{" || val == "[" {
				for i++; !strings.HasPrefix(lines[i], indent+"}") && !strings.HasPrefix(lines[i], indent+"]"); i++ {
				}
				val = lines[i][len(indent):]
			}
			line = indent + key + `": "X"`
			if strings.HasSuffix(val, ",") {
				line += ","
			}
		}
		out = append(out, line)
	}
	return strings.Join(out, "\n") + "\n"
}

// checkGolden compares got with the named file under testdata and
// reports the first line that differs.
func checkGolden(t *testing.T, file, got string) {
	t.Helper()
	path := filepath.Join("testdata", file)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := string(raw)
	if got == want {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	i := 0
	for i < len(g) && i < len(w) && g[i] == w[i] {
		i++
	}
	line := func(l []string) string {
		if i < len(l) {
			return l[i]
		}
		return "<end of document>"
	}
	t.Fatalf("%s differs at line %d (%d lines, golden %d):\n got: %s\nwant: %s",
		path, i+1, len(g), len(w), line(g), line(w))
}

func TestMetricsPromGolden(t *testing.T) {
	h := goldenHub(t)
	checkGolden(t, "metrics.prom.golden", maskProm(getMetrics(t, h, "?format=prometheus")))
}

func TestMetricsJSONGolden(t *testing.T) {
	h := goldenHub(t)
	checkGolden(t, "metrics.json.golden", maskJSON(t, getMetrics(t, h, "")))
}
