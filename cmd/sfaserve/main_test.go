package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptrace"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/sfa"
)

// TestServeSmoke boots the real server binary's serve loop on a free
// port, preloads a tenant from a rules file, scans, hot-reloads under a
// concurrent scan, and deletes — the `make serve-smoke` CI gate.
func TestServeSmoke(t *testing.T) {
	dir := t.TempDir()
	rules := filepath.Join(dir, "rules.txt")
	if err := os.WriteFile(rules, []byte("passwd /etc/passwd\ncmd (cmd|command)\\.exe\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	ready := make(chan string, 1)
	errc := make(chan error, 1)
	go func() {
		cfg := serverConfig{
			addr:     "127.0.0.1:0",
			preloads: []string{"ids=" + rules},
			opts:     []sfa.Option{sfa.WithSearch(), sfa.WithThreads(2)},
		}
		errc <- run(cfg, ready, nil)
	}()
	var base string
	select {
	case addr := <-ready:
		base = "http://" + addr
	case err := <-errc:
		t.Fatalf("server exited early: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("server never became ready")
	}

	get := func(path string, want int) string {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body := readAll(t, resp)
		if resp.StatusCode != want {
			t.Fatalf("GET %s: %d (want %d): %s", path, resp.StatusCode, want, body)
		}
		return body
	}

	get("/healthz", http.StatusOK)

	// Preloaded tenant answers scans.
	scan := func(tenant, body string) []string {
		t.Helper()
		resp, err := http.Post(base+"/v1/tenants/"+tenant+"/scan", "application/octet-stream", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("scan status %d", resp.StatusCode)
		}
		var reply struct {
			Matches []string `json:"matches"`
		}
		if err := json.Unmarshal([]byte(readAll(t, resp)), &reply); err != nil {
			t.Fatal(err)
		}
		return reply.Matches
	}
	if got := scan("ids", "GET /etc/passwd HTTP/1.1"); len(got) != 1 || got[0] != "passwd" {
		t.Fatalf("scan verdict %v", got)
	}

	// Hot reload over HTTP while a scan loop runs.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			scan("ids", "nothing here")
		}
	}()
	req, err := http.NewRequest(http.MethodPut, base+"/v1/tenants/ids",
		strings.NewReader("passwd /etc/passwd\ncmd (cmd|command)\\.exe\nnew xp_cmdshell\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload status %d: %s", resp.StatusCode, readAll(t, resp))
	}
	resp.Body.Close()
	<-done
	if got := scan("ids", "EXEC xp_cmdshell 'dir'"); len(got) != 1 || got[0] != "new" {
		t.Fatalf("post-reload verdict %v", got)
	}

	// Lifecycle.
	req, _ = http.NewRequest(http.MethodDelete, base+"/v1/tenants/ids", nil)
	if resp, err := http.DefaultClient.Do(req); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: %v / %v", err, resp)
	}
	get("/v1/tenants/ids", http.StatusNotFound)
}

// TestServePromScrapeSmoke is the `make serve-smoke` Prometheus half:
// boot the real serve loop, scan once, scrape /metrics in Prometheus
// text format, and validate the exposition is parseable and carries the
// core series a scrape pipeline would alert on.
func TestServePromScrapeSmoke(t *testing.T) {
	dir := t.TempDir()
	rules := filepath.Join(dir, "rules.txt")
	if err := os.WriteFile(rules, []byte("passwd /etc/passwd\ncmd (cmd|command)\\.exe\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	ready := make(chan string, 1)
	errc := make(chan error, 1)
	shutdown := make(chan struct{})
	go func() {
		cfg := serverConfig{
			addr:     "127.0.0.1:0",
			preloads: []string{"ids=" + rules},
			opts:     []sfa.Option{sfa.WithSearch(), sfa.WithThreads(2)},
		}
		errc <- run(cfg, ready, shutdown)
	}()
	defer close(shutdown)
	var base string
	select {
	case addr := <-ready:
		base = "http://" + addr
	case err := <-errc:
		t.Fatalf("server exited early: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("server never became ready")
	}

	resp, err := http.Post(base+"/v1/tenants/ids/scan", "application/octet-stream",
		strings.NewReader("GET /etc/passwd HTTP/1.1"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scan status %d", resp.StatusCode)
	}

	resp, err = http.Get(base + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("Content-Type = %q, want Prometheus text 0.0.4", ct)
	}
	body := readAll(t, resp)

	// Every line must be a comment or `name{labels} value` with a
	// numeric value — a scraper would reject anything else.
	samples := map[string]string{}
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, val, ok := strings.Cut(line, " ")
		if !ok || val == "" {
			t.Fatalf("unparseable exposition line %q", line)
		}
		if _, err := strconv.ParseFloat(val, 64); err != nil {
			t.Fatalf("non-numeric sample %q: %v", line, err)
		}
		samples[key] = val
	}

	for _, series := range []string{
		`sfa_uptime_seconds`,
		`sfa_tenant_scans_total{tenant="ids"}`,
		`sfa_tenant_rules{tenant="ids"}`,
		`sfa_scan_chunks_total{tenant="ids"}`,
		`sfa_scan_compose_ns_count{tenant="ids"}`,
		`sfa_scan_match_ns_count{tenant="ids"}`,
		`sfa_build_total_ns{tenant="ids"}`,
		`sfa_pool_workers{pool="match"}`,
		`sfa_go_sched_goroutines`,
	} {
		if _, ok := samples[series]; !ok {
			t.Errorf("core series %s missing from scrape", series)
		}
	}
	if v := samples[`sfa_tenant_scans_total{tenant="ids"}`]; v != "1" {
		t.Errorf(`sfa_tenant_scans_total{tenant="ids"} = %s, want 1`, v)
	}
}

// TestServeFlightSmoke is the `make serve-smoke` flight-recorder half:
// boot the real serve loop with a non-default -flight-records size,
// scan, and round-trip /debug/scans and /debug/attribution.
func TestServeFlightSmoke(t *testing.T) {
	dir := t.TempDir()
	rules := filepath.Join(dir, "rules.txt")
	if err := os.WriteFile(rules, []byte("passwd /etc/passwd\ncmd (cmd|command)\\.exe\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	ready := make(chan string, 1)
	errc := make(chan error, 1)
	shutdown := make(chan struct{})
	go func() {
		cfg := serverConfig{
			addr:          "127.0.0.1:0",
			preloads:      []string{"ids=" + rules},
			opts:          []sfa.Option{sfa.WithSearch(), sfa.WithThreads(2)},
			flightRecords: 100, // rounds up to 128
		}
		errc <- run(cfg, ready, shutdown)
	}()
	defer close(shutdown)
	var base string
	select {
	case addr := <-ready:
		base = "http://" + addr
	case err := <-errc:
		t.Fatalf("server exited early: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("server never became ready")
	}

	payload := "GET /etc/passwd HTTP/1.1"
	for i := 0; i < 3; i++ {
		resp, err := http.Post(base+"/v1/tenants/ids/scan", "application/octet-stream",
			strings.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("scan status %d", resp.StatusCode)
		}
	}

	// Flight recorder: capacity reflects the flag, records carry the
	// scans just made, newest first.
	resp, err := http.Get(base + "/debug/scans?n=8")
	if err != nil {
		t.Fatal(err)
	}
	var flight struct {
		Capacity int `json:"capacity"`
		Records  []struct {
			Seq     uint64 `json:"seq"`
			Tenant  string `json:"tenant"`
			Bytes   int64  `json:"bytes"`
			Matches int64  `json:"matches"`
		} `json:"records"`
	}
	raw := readAll(t, resp)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/scans status %d: %s", resp.StatusCode, raw)
	}
	if err := json.Unmarshal([]byte(raw), &flight); err != nil {
		t.Fatalf("bad /debug/scans JSON %q: %v", raw, err)
	}
	if flight.Capacity != 128 {
		t.Errorf("flight capacity %d, want 128 (100 rounded up)", flight.Capacity)
	}
	if len(flight.Records) != 3 {
		t.Fatalf("flight has %d records, want 3: %s", len(flight.Records), raw)
	}
	for i, rec := range flight.Records {
		if rec.Tenant != "ids" || rec.Bytes != int64(len(payload)) || rec.Matches != 1 {
			t.Errorf("record %d: %+v", i, rec)
		}
		if i > 0 && flight.Records[i-1].Seq <= rec.Seq {
			t.Errorf("records not newest-first: %+v", flight.Records)
		}
	}

	// Attribution: the tenant's shard account and rule heat reflect the
	// same traffic.
	resp, err = http.Get(base + "/debug/attribution")
	if err != nil {
		t.Fatal(err)
	}
	var attr struct {
		Tenants map[string]struct {
			Shards []struct {
				ScanBytes int64 `json:"scan_bytes"`
			} `json:"shards"`
			RuleHeat []struct {
				Name    string `json:"name"`
				Matches int64  `json:"matches"`
			} `json:"rule_heat"`
		} `json:"tenants"`
	}
	raw = readAll(t, resp)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/attribution status %d: %s", resp.StatusCode, raw)
	}
	if err := json.Unmarshal([]byte(raw), &attr); err != nil {
		t.Fatalf("bad /debug/attribution JSON %q: %v", raw, err)
	}
	ta, ok := attr.Tenants["ids"]
	if !ok || len(ta.Shards) == 0 {
		t.Fatalf("attribution reply lacks the ids tenant: %s", raw)
	}
	var bytes int64
	for _, sh := range ta.Shards {
		bytes += sh.ScanBytes
	}
	if bytes == 0 {
		t.Errorf("no bytes attributed to any shard: %s", raw)
	}
	heat := map[string]int64{}
	for _, rh := range ta.RuleHeat {
		heat[rh.Name] = rh.Matches
	}
	if heat["passwd"] != 3 {
		t.Errorf("rule heat %v, want passwd=3", heat)
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// shardStat mirrors the tenant-status JSON the warm-restart test reads.
type shardStat struct {
	BuildID uint64 `json:"build_id"`
}

// bootState starts a server over stateDir and returns its base URL plus
// a clean shutdown function that waits for graceful exit.
func bootState(t *testing.T, stateDir string, preloads ...string) (string, func()) {
	t.Helper()
	ready := make(chan string, 1)
	errc := make(chan error, 1)
	shutdown := make(chan struct{})
	go func() {
		cfg := serverConfig{
			addr:     "127.0.0.1:0",
			stateDir: stateDir,
			preloads: preloads,
			opts:     []sfa.Option{sfa.WithSearch(), sfa.WithThreads(2)},
		}
		errc <- run(cfg, ready, shutdown)
	}()
	var base string
	select {
	case addr := <-ready:
		base = "http://" + addr
	case err := <-errc:
		t.Fatalf("server exited early: %v", err)
	case <-time.After(60 * time.Second):
		t.Fatal("server never became ready")
	}
	return base, func() {
		close(shutdown)
		select {
		case err := <-errc:
			if err != nil {
				t.Fatalf("graceful shutdown returned %v", err)
			}
		case <-time.After(60 * time.Second):
			t.Fatal("server never shut down")
		}
	}
}

// tenantBuildIDs fetches a tenant's shard BuildIDs.
func tenantBuildIDs(t *testing.T, base, tenant string) []uint64 {
	t.Helper()
	resp, err := http.Get(base + "/v1/tenants/" + tenant)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tenant status %d: %s", resp.StatusCode, body)
	}
	var status struct {
		Shards []shardStat `json:"shards"`
	}
	if err := json.Unmarshal([]byte(body), &status); err != nil {
		t.Fatal(err)
	}
	ids := make([]uint64, len(status.Shards))
	for i, s := range status.Shards {
		ids[i] = s.BuildID
	}
	return ids
}

// TestWarmRestartSmoke is the `make snapshot-smoke` server half: boot
// with -state-dir, load rules, shut down gracefully, boot again — the
// restarted server must serve its first scan from restored (not
// recompiled) automata, observable through stable top-bit BuildIDs that
// survive a third boot unchanged.
func TestWarmRestartSmoke(t *testing.T) {
	dir := t.TempDir()
	stateDir := filepath.Join(dir, "state")
	rules := filepath.Join(dir, "rules.txt")
	if err := os.WriteFile(rules, []byte("passwd /etc/passwd\ncmd (cmd|command)\\.exe\nnum [0-9]{6,}\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	scan := func(base, tenant, body string) []string {
		t.Helper()
		resp, err := http.Post(base+"/v1/tenants/"+tenant+"/scan", "application/octet-stream", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw := readAll(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("scan status %d: %s", resp.StatusCode, raw)
		}
		var reply struct {
			Matches []string `json:"matches"`
		}
		if err := json.Unmarshal([]byte(raw), &reply); err != nil {
			t.Fatal(err)
		}
		return reply.Matches
	}

	// Boot 1: cold build from the preload, persisted via the state dir.
	base, stop := bootState(t, stateDir, "ids="+rules)
	if got := scan(base, "ids", "GET /etc/passwd HTTP/1.1"); len(got) != 1 || got[0] != "passwd" {
		t.Fatalf("boot1 verdict %v", got)
	}
	stop()

	// Boot 2: no preloads — the tenant must come back from the state
	// dir, warm, and answer its first scan identically.
	base, stop = bootState(t, stateDir)
	if got := scan(base, "ids", "GET /etc/passwd HTTP/1.1"); len(got) != 1 || got[0] != "passwd" {
		t.Fatalf("boot2 first scan verdict %v", got)
	}
	ids2 := tenantBuildIDs(t, base, "ids")
	if len(ids2) == 0 {
		t.Fatal("boot2: no shards reported")
	}
	for i, id := range ids2 {
		if id&(1<<63) == 0 {
			t.Fatalf("boot2 shard %d has sequential build id %d — it was recompiled, not restored", i, id)
		}
	}
	// /metrics must report the warm restore.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metricsBody := readAll(t, resp)
	resp.Body.Close()
	var metrics struct {
		Snapshot struct {
			WarmLoads int64 `json:"warm_loads"`
		} `json:"snapshot"`
	}
	if err := json.Unmarshal([]byte(metricsBody), &metrics); err != nil {
		t.Fatal(err)
	}
	if metrics.Snapshot.WarmLoads != 1 {
		t.Fatalf("boot2 warm_loads = %d, want 1 (%s)", metrics.Snapshot.WarmLoads, metricsBody)
	}
	stop()

	// Boot 3: the persisted ids are content-derived, so an unchanged
	// tenant reports the identical BuildIDs again.
	base, stop = bootState(t, stateDir)
	defer stop()
	ids3 := tenantBuildIDs(t, base, "ids")
	if len(ids3) != len(ids2) {
		t.Fatalf("boot3 has %d shards, boot2 had %d", len(ids3), len(ids2))
	}
	for i := range ids3 {
		if ids3[i] != ids2[i] {
			t.Fatalf("boot3 shard %d build id %d != boot2's %d", i, ids3[i], ids2[i])
		}
	}
}

// TestServeTimeouts drives the serve loop with its header and idle
// timeouts shortened: a connection that sends half a request line is
// closed once the header timeout passes; a keep-alive connection that
// waits longer than the header timeout (but less than the idle timeout)
// between two scans still serves the second one; and a connection left
// idle after a scan is closed once the idle timeout passes.
func TestServeTimeouts(t *testing.T) {
	oldHeader, oldIdle := readHeaderTimeout, idleTimeout
	readHeaderTimeout, idleTimeout = 200*time.Millisecond, time.Second
	t.Cleanup(func() { readHeaderTimeout, idleTimeout = oldHeader, oldIdle })

	rules := filepath.Join(t.TempDir(), "rules.txt")
	if err := os.WriteFile(rules, []byte("passwd /etc/passwd\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	base, stop := bootState(t, t.TempDir(), "ids="+rules)
	defer stop()

	conn, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("POST /v1/tenants/ids/sc")); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	// The server may answer 400 before it closes; what matters is that
	// it closes.
	got, err := io.ReadAll(conn)
	if err != nil {
		t.Fatalf("half a request line: read %q, err %v; want the server to close the connection", got, err)
	}
	if len(got) > 0 && !strings.HasPrefix(string(got), "HTTP/1.1 400 ") {
		t.Fatalf("half a request line answered %q", got)
	}
	if waited := time.Since(start); waited < readHeaderTimeout/2 {
		t.Fatalf("connection closed after %v, before the %v header timeout", waited, readHeaderTimeout)
	}

	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
	defer client.CloseIdleConnections()
	var reused []bool
	for i := 0; i < 2; i++ {
		if i > 0 {
			time.Sleep(2 * readHeaderTimeout)
		}
		var info httptrace.GotConnInfo
		ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
			GotConn: func(ci httptrace.GotConnInfo) { info = ci },
		})
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/tenants/ids/scan", strings.NewReader("GET /etc/passwd"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatalf("scan %d: %v", i, err)
		}
		body := readAll(t, resp)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !strings.Contains(body, `"passwd"`) {
			t.Fatalf("scan %d: status %d body %s", i, resp.StatusCode, body)
		}
		reused = append(reused, info.Reused)
	}
	if !reused[1] {
		t.Fatal("the second scan did not reuse the keep-alive connection")
	}

	idle, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	req, _ := http.NewRequest(http.MethodPost, base+"/v1/tenants/ids/scan", strings.NewReader("GET /etc/passwd"))
	if err := req.Write(idle); err != nil {
		t.Fatal(err)
	}
	idle.SetReadDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(idle)
	resp, err := http.ReadResponse(br, req)
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, resp)
	start = time.Now()
	if rest, err := io.ReadAll(br); err != nil || len(rest) != 0 {
		t.Fatalf("idle connection: read %q, err %v; want the server to close it", rest, err)
	}
	if waited := time.Since(start); waited < idleTimeout/2 {
		t.Fatalf("idle connection closed after %v, before the %v idle timeout", waited, idleTimeout)
	}
}
