package serve

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/sfa"
)

// syncBuffer is a mutex-guarded buffer for capturing handler logs from
// concurrent requests.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func newTestJSONLogger(w io.Writer) *slog.Logger {
	return slog.New(slog.NewJSONHandler(w, nil))
}

// promDoc is a parsed exposition document: every sample series (name
// plus rendered label set) mapped to its value, plus the declared TYPE
// per metric name.
type promDoc struct {
	samples map[string]float64
	types   map[string]string
}

// parseProm parses (and structurally validates) Prometheus text
// exposition format 0.0.4: every sample line must carry a value, every
// sample's metric must have a TYPE header, and all samples of one
// metric must be contiguous.
func parseProm(t *testing.T, text string) promDoc {
	t.Helper()
	doc := promDoc{samples: map[string]float64{}, types: map[string]string{}}
	closed := map[string]bool{} // metrics whose sample block has ended
	prevBase := ""
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			if _, dup := doc.types[f[2]]; dup {
				t.Fatalf("line %d: duplicate TYPE for %s", ln+1, f[2])
			}
			doc.types[f[2]] = f[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("line %d: no value: %q", ln+1, line)
		}
		series, vals := line[:sp], line[sp+1:]
		v, err := strconv.ParseFloat(vals, 64)
		if err != nil {
			t.Fatalf("line %d: bad value %q: %v", ln+1, vals, err)
		}
		name := series
		if i := strings.IndexByte(series, '{'); i >= 0 {
			name = series[:i]
			if !strings.HasSuffix(series, "}") {
				t.Fatalf("line %d: unterminated labels: %q", ln+1, line)
			}
		}
		base := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			trimmed := strings.TrimSuffix(name, suf)
			if trimmed != name && doc.types[trimmed] == "histogram" {
				base = trimmed
				break
			}
		}
		if _, ok := doc.types[base]; !ok {
			t.Fatalf("line %d: sample %s before its TYPE header", ln+1, series)
		}
		if base != prevBase {
			if closed[base] {
				t.Fatalf("line %d: samples of %s are not contiguous", ln+1, base)
			}
			if prevBase != "" {
				closed[prevBase] = true
			}
			prevBase = base
		}
		if _, dup := doc.samples[series]; dup {
			t.Fatalf("line %d: duplicate series %s", ln+1, series)
		}
		doc.samples[series] = v
	}
	return doc
}

// get returns a series value, failing the test when absent.
func (d promDoc) get(t *testing.T, series string) float64 {
	t.Helper()
	v, ok := d.samples[series]
	if !ok {
		t.Fatalf("series %s missing from exposition", series)
	}
	return v
}

func promTestDefs() []sfa.RuleDef {
	return []sfa.RuleDef{
		{Name: "evil", Pattern: "evil[0-9]+payload"},
		{Name: "beacon", Pattern: "beacon(ing)?-host"},
	}
}

func scrapeProm(t *testing.T, client *http.Client, url string) promDoc {
	t.Helper()
	req, err := http.NewRequest("GET", url+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/plain")
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("Content-Type %q lacks exposition version", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return parseProm(t, string(raw))
}

// TestMetricsContentNegotiation: JSON stays the default document;
// Prometheus text is opt-in by Accept header or ?format=.
func TestMetricsContentNegotiation(t *testing.T) {
	hub := NewHub()
	srv := httptest.NewServer(NewHandler(hub))
	defer srv.Close()

	// Default (curl, browsers sending */*): JSON.
	doJSON[MetricsReply](t, srv.Client(), "GET", srv.URL+"/metrics", nil, http.StatusOK)

	for _, tc := range []struct {
		accept, format string
		wantProm       bool
	}{
		{"", "", false},
		{"application/json", "", false},
		{"text/plain", "", true},
		{"application/openmetrics-text; version=1.0.0, text/plain;version=0.0.4", "", true},
		{"application/json, text/plain", "", false}, // json preferred first
		{"text/plain", "json", false},               // explicit format wins
		{"", "prometheus", true},
	} {
		req, _ := http.NewRequest("GET", srv.URL+"/metrics", nil)
		if tc.accept != "" {
			req.Header.Set("Accept", tc.accept)
		}
		if tc.format != "" {
			q := req.URL.Query()
			q.Set("format", tc.format)
			req.URL.RawQuery = q.Encode()
		}
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		ct := resp.Header.Get("Content-Type")
		resp.Body.Close()
		isProm := strings.Contains(ct, "version=0.0.4")
		if isProm != tc.wantProm {
			t.Errorf("accept=%q format=%q: got Content-Type %q, wantProm=%v", tc.accept, tc.format, ct, tc.wantProm)
		}
	}
}

// TestMetricsPromExposition drives one tenant through scans and asserts
// the core series the ops story depends on: traffic counters, hot-path
// scan histograms (with internally consistent cumulative buckets),
// build-report series, pool scheduling, and runtime series.
func TestMetricsPromExposition(t *testing.T) {
	hub := NewHub()
	srv := httptest.NewServer(NewHandler(hub))
	defer srv.Close()

	if _, _, _, err := hub.SetRules("web", promTestDefs()); err != nil {
		t.Fatal(err)
	}
	payload := strings.Repeat("innocent traffic ", 4096) + "evil42payload"
	for i := 0; i < 3; i++ {
		doJSON[ScanReply](t, srv.Client(), "POST", srv.URL+"/v1/tenants/web/scan",
			strings.NewReader(payload), http.StatusOK)
	}

	doc := scrapeProm(t, srv.Client(), srv.URL)

	if got := doc.get(t, `sfa_tenant_scans_total{tenant="web"}`); got != 3 {
		t.Errorf("scans_total = %v, want 3", got)
	}
	if got := doc.get(t, `sfa_tenant_scan_bytes_total{tenant="web"}`); got != float64(3*len(payload)) {
		t.Errorf("scan_bytes_total = %v, want %d", got, 3*len(payload))
	}
	if doc.get(t, `sfa_tenant_resident{tenant="web"}`) != 1 {
		t.Error("tenant not marked resident")
	}
	if doc.get(t, `sfa_tenant_rules{tenant="web"}`) != 2 {
		t.Error("rules gauge wrong")
	}

	// Hot-path scan histograms: count matches chunks, buckets are
	// cumulative and end at the count.
	chunks := doc.get(t, `sfa_scan_chunks_total{tenant="web"}`)
	if chunks < 3 {
		t.Errorf("scan chunks = %v, want >= 3", chunks)
	}
	if got := doc.get(t, `sfa_scan_compose_ns_count{tenant="web"}`); got != chunks {
		t.Errorf("compose_ns count %v != chunks %v", got, chunks)
	}
	if got := doc.get(t, `sfa_scan_compose_ns_bucket{tenant="web",le="+Inf"}`); got != chunks {
		t.Errorf("compose_ns +Inf bucket %v != chunks %v", got, chunks)
	}
	var prev float64
	for series, v := range doc.samples {
		if strings.HasPrefix(series, `sfa_scan_compose_ns_bucket{tenant="web"`) && v < prev {
			// Map order is random; just verify every bucket <= +Inf count.
			if v > chunks {
				t.Errorf("bucket %s = %v exceeds count %v", series, v, chunks)
			}
		}
	}
	if doc.get(t, `sfa_scan_read_ns_count{tenant="web"}`) != 3 {
		t.Error("read_ns histogram did not record one observation per request")
	}
	if doc.get(t, `sfa_scan_match_ns_count{tenant="web"}`) != 3 {
		t.Error("match_ns histogram did not record one observation per request")
	}

	// Build report series for the resident generation.
	if doc.get(t, `sfa_build_total_ns{tenant="web"}`) <= 0 {
		t.Error("build_total_ns not positive")
	}
	if doc.get(t, `sfa_build_built_shards{tenant="web"}`) <= 0 {
		t.Error("build_built_shards not positive")
	}
	if doc.get(t, `sfa_build_failed_ns{tenant="web"}`) < 0 {
		t.Error("build_failed_ns negative")
	}

	// Pool scheduling series for both pools.
	if doc.get(t, `sfa_pool_workers{pool="match"}`) <= 0 {
		t.Error("match pool has no workers")
	}
	if _, ok := doc.samples[`sfa_pool_submitted_total{pool="build"}`]; !ok {
		t.Error("build pool series missing")
	}

	// Runtime series.
	if doc.get(t, "sfa_go_sched_goroutines") <= 0 {
		t.Error("goroutine gauge missing or zero")
	}
	if _, ok := doc.samples[`sfa_go_gc_pauses_ns{q="0.99"}`]; !ok {
		t.Error("GC pause quantile series missing")
	}
	if doc.types["sfa_scan_compose_ns"] != "histogram" {
		t.Errorf("compose_ns TYPE = %q, want histogram", doc.types["sfa_scan_compose_ns"])
	}
}

// TestPromAttributionSeries drives traffic through one tenant and
// asserts the attribution surface: build identity, per-shard cost
// counters, per-rule match heat, and the boundary top-k coverage gauges
// (with their k-monotonicity invariant).
func TestPromAttributionSeries(t *testing.T) {
	hub := NewHub(sfa.WithSearch())
	srv := httptest.NewServer(NewHandler(hub))
	defer srv.Close()

	if _, _, _, err := hub.SetRules("web", promTestDefs()); err != nil {
		t.Fatal(err)
	}
	payload := strings.Repeat("innocent traffic ", 4096) + "evil42payload"
	for i := 0; i < 3; i++ {
		doJSON[ScanReply](t, srv.Client(), "POST", srv.URL+"/v1/tenants/web/scan",
			strings.NewReader(payload), http.StatusOK)
	}

	doc := scrapeProm(t, srv.Client(), srv.URL)

	// Build identity: one constant-1 info series with both labels, and a
	// plausible start time.
	infos := 0
	for series, v := range doc.samples {
		if strings.HasPrefix(series, "sfa_build_info{") {
			infos++
			if v != 1 {
				t.Errorf("%s = %v, want 1", series, v)
			}
			if !strings.Contains(series, `commit="`) || !strings.Contains(series, `go_version="go`) {
				t.Errorf("build info labels incomplete: %s", series)
			}
		}
	}
	if infos != 1 {
		t.Errorf("want exactly one sfa_build_info series, got %d", infos)
	}
	if doc.get(t, "sfa_process_start_time_seconds") <= 0 {
		t.Error("process start time missing or zero")
	}

	// Per-shard cost: the scanned bytes must be attributed somewhere.
	var shardBytes, shardChunks float64
	for series, v := range doc.samples {
		if strings.HasPrefix(series, `sfa_shard_scan_bytes_total{tenant="web"`) {
			shardBytes += v
		}
		if strings.HasPrefix(series, `sfa_shard_scan_chunks_total{tenant="web"`) {
			shardChunks += v
		}
	}
	if shardBytes <= 0 || shardChunks <= 0 {
		t.Errorf("shard attribution empty: bytes=%v chunks=%v", shardBytes, shardChunks)
	}

	// Rule heat: three scans hit "evil" three times; "beacon" never
	// matched, so it must not emit a series at all.
	if got := doc.get(t, `sfa_rule_matches_total{tenant="web",rule="evil"}`); got != 3 {
		t.Errorf("rule heat for evil = %v, want 3", got)
	}
	if _, ok := doc.samples[`sfa_rule_matches_total{tenant="web",rule="beacon"}`]; ok {
		t.Error("zero-match rule emitted a heat series")
	}

	// Boundary top-k coverage: present for at least one eager shard, in
	// (0, 1], and monotone in k per shard.
	cov := map[string]map[int]float64{} // shard -> k -> coverage
	for series, v := range doc.samples {
		if !strings.HasPrefix(series, `sfa_shard_boundary_topk_coverage{tenant="web"`) {
			continue
		}
		var shard, k string
		for _, part := range strings.Split(series[strings.IndexByte(series, '{')+1:len(series)-1], ",") {
			if s, ok := strings.CutPrefix(part, `shard="`); ok {
				shard = strings.TrimSuffix(s, `"`)
			}
			if s, ok := strings.CutPrefix(part, `k="`); ok {
				k = strings.TrimSuffix(s, `"`)
			}
		}
		ki, err := strconv.Atoi(k)
		if err != nil || shard == "" {
			t.Fatalf("bad coverage labels: %s", series)
		}
		if v <= 0 || v > 1 {
			t.Errorf("%s = %v, want in (0, 1]", series, v)
		}
		if cov[shard] == nil {
			cov[shard] = map[int]float64{}
		}
		cov[shard][ki] = v
	}
	if len(cov) == 0 {
		t.Fatal("no boundary coverage gauges for the streamed tenant")
	}
	for shard, ks := range cov {
		if len(ks) != 3 {
			t.Errorf("shard %s has %d coverage points, want k in {1,4,8}", shard, len(ks))
		}
		if ks[1] > ks[4] || ks[4] > ks[8] {
			t.Errorf("shard %s coverage not monotone in k: %v", shard, ks)
		}
	}

	// The block-arm choice: the first body read of 4 KiB or more measures
	// the cascade, the next tries the whole arm, and both show. (How a
	// body is cut into reads is the network's business, so keep scanning
	// until two such reads have happened.)
	measured := func() bool {
		return doc.get(t, `sfa_prefilter_arm_cost_ns_per_kib{tenant="web",arm="cascade"}`) > 0 &&
			doc.get(t, `sfa_prefilter_arm_cost_ns_per_kib{tenant="web",arm="whole"}`) > 0
	}
	for i := 0; i < 20 && !measured(); i++ {
		doJSON[ScanReply](t, srv.Client(), "POST", srv.URL+"/v1/tenants/web/scan",
			strings.NewReader(payload), http.StatusOK)
		doc = scrapeProm(t, srv.Client(), srv.URL)
	}
	if !measured() {
		t.Error("arm costs not measured after 23 scans of 68 KiB")
	}
	if blocks, bytes := doc.get(t, `sfa_prefilter_bypass_blocks_total{tenant="web"}`), doc.get(t, `sfa_prefilter_bypass_bytes_total{tenant="web"}`); blocks < 1 || bytes < blocks {
		t.Errorf("bypass counters: %v blocks, %v bytes", blocks, bytes)
	}
}

// TestPromMonotonicUnderConcurrentScansAndReloads scrapes the endpoint
// while scans and hot reloads hammer the hub, asserting the persistent
// counters never go backwards between scrapes. Run under -race this is
// also the data-race check for the whole exposition path.
func TestPromMonotonicUnderConcurrentScansAndReloads(t *testing.T) {
	hub := NewHub()
	srv := httptest.NewServer(NewHandler(hub))
	defer srv.Close()

	defs := promTestDefs()
	if _, _, _, err := hub.SetRules("web", defs); err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	// Runs after srv.Close's defer is registered, so the load goroutines
	// always stop before the server goes away even on an early Fatal.
	defer func() { stop.Store(true); wg.Wait() }()
	payload := strings.Repeat("filler bytes here ", 512) + "beacon-host"
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				doJSON[ScanReply](t, srv.Client(), "POST", srv.URL+"/v1/tenants/web/scan",
					strings.NewReader(payload), http.StatusOK)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			// Alternate between two rule lists so every reload changes
			// membership and really rebuilds.
			d := append([]sfa.RuleDef(nil), defs...)
			if i%2 == 0 {
				d = append(d, sfa.RuleDef{Name: "extra", Pattern: fmt.Sprintf("x%dtra", i%7)})
			}
			if _, _, _, err := hub.SetRules("web", d); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	monotone := []string{
		`sfa_tenant_scans_total{tenant="web"}`,
		`sfa_tenant_scan_bytes_total{tenant="web"}`,
		`sfa_tenant_reloads_total{tenant="web"}`,
		`sfa_scan_chunks_total{tenant="web"}`,
		`sfa_scan_chunk_bytes_total{tenant="web"}`,
		`sfa_scan_compose_ns_count{tenant="web"}`,
		`sfa_pool_submitted_total{pool="match"}`,
	}
	last := map[string]float64{}
	rounds := 25
	if raceEnabled {
		rounds = 12
	}
	for i := 0; i < rounds; i++ {
		doc := scrapeProm(t, srv.Client(), srv.URL)
		for _, s := range monotone {
			v := doc.get(t, s)
			if v < last[s] {
				t.Errorf("scrape %d: %s went backwards: %v -> %v", i, s, last[s], v)
			}
			last[s] = v
		}
	}
	stop.Store(true)
	wg.Wait()
	if last[`sfa_tenant_scans_total{tenant="web"}`] == 0 {
		t.Error("no scans observed during the run")
	}
	if last[`sfa_tenant_reloads_total{tenant="web"}`] == 0 {
		t.Error("no reloads observed during the run")
	}
}

// TestPromTenantRowsSurviveDeleteAndReadd: a deleted tenant keeps its
// traffic history in the exposition (resident drops to 0, counters
// stay), and re-adding it resumes the same counters rather than
// starting over.
func TestPromTenantRowsSurviveDeleteAndReadd(t *testing.T) {
	hub := NewHub()
	srv := httptest.NewServer(NewHandler(hub))
	defer srv.Close()

	if _, _, _, err := hub.SetRules("web", promTestDefs()); err != nil {
		t.Fatal(err)
	}
	payload := strings.Repeat("traffic ", 1024) + "evil7payload"
	doJSON[ScanReply](t, srv.Client(), "POST", srv.URL+"/v1/tenants/web/scan",
		strings.NewReader(payload), http.StatusOK)

	before := scrapeProm(t, srv.Client(), srv.URL)
	scans := before.get(t, `sfa_tenant_scans_total{tenant="web"}`)
	chunks := before.get(t, `sfa_scan_chunks_total{tenant="web"}`)
	if scans != 1 || chunks < 1 {
		t.Fatalf("unexpected baseline: scans=%v chunks=%v", scans, chunks)
	}

	if !hub.Delete("web") {
		t.Fatal("delete failed")
	}
	gone := scrapeProm(t, srv.Client(), srv.URL)
	if gone.get(t, `sfa_tenant_resident{tenant="web"}`) != 0 {
		t.Error("deleted tenant still resident")
	}
	if got := gone.get(t, `sfa_tenant_scans_total{tenant="web"}`); got != scans {
		t.Errorf("scan history lost on delete: %v -> %v", scans, got)
	}
	if got := gone.get(t, `sfa_scan_chunks_total{tenant="web"}`); got != chunks {
		t.Errorf("chunk history lost on delete: %v -> %v", chunks, got)
	}

	if _, _, _, err := hub.SetRules("web", promTestDefs()); err != nil {
		t.Fatal(err)
	}
	doJSON[ScanReply](t, srv.Client(), "POST", srv.URL+"/v1/tenants/web/scan",
		strings.NewReader(payload), http.StatusOK)
	after := scrapeProm(t, srv.Client(), srv.URL)
	if got := after.get(t, `sfa_tenant_scans_total{tenant="web"}`); got != scans+1 {
		t.Errorf("re-added tenant restarted counters: got %v, want %v", got, scans+1)
	}
	if got := after.get(t, `sfa_scan_chunks_total{tenant="web"}`); got <= chunks {
		t.Errorf("re-added tenant's chunk counter did not continue: %v <= %v", got, chunks)
	}
	if after.get(t, `sfa_tenant_resident{tenant="web"}`) != 1 {
		t.Error("re-added tenant not resident")
	}
}

// TestSlowScanLogging: with a zero threshold every scan logs one
// structured record carrying the per-stage breakdown.
func TestSlowScanLogging(t *testing.T) {
	hub := NewHub()
	var buf syncBuffer
	logger := newTestJSONLogger(&buf)
	srv := httptest.NewServer(NewHandler(hub, WithSlowScanLog(logger, 0)))
	defer srv.Close()

	if _, _, _, err := hub.SetRules("web", promTestDefs()); err != nil {
		t.Fatal(err)
	}
	payload := strings.Repeat("x", 256<<10)
	doJSON[ScanReply](t, srv.Client(), "POST", srv.URL+"/v1/tenants/web/scan",
		strings.NewReader(payload), http.StatusOK)

	out := buf.String()
	if !strings.Contains(out, `"msg":"slow scan"`) {
		t.Fatalf("no slow-scan record in %q", out)
	}
	for _, field := range []string{`"tenant":"web"`, `"read_ns"`, `"match_ns"`, `"total_ns"`, `"chunks"`, `"generation"`} {
		if !strings.Contains(out, field) {
			t.Errorf("slow-scan record lacks %s: %q", field, out)
		}
	}
	doc := scrapeProm(t, srv.Client(), srv.URL)
	if doc.get(t, `sfa_tenant_slow_scans_total{tenant="web"}`) != 1 {
		t.Error("slow_scans counter not incremented")
	}
}
