package serve

import (
	"encoding/json"
	"errors"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"

	"repro/sfa"
)

// TestFailedCreateLeavesNoMetrics: a create whose rules do not compile
// leaves no JSON row, no series and no budget node — a client cannot
// mint metrics rows by picking new names — and a later create of the
// same name works.
func TestFailedCreateLeavesNoMetrics(t *testing.T) {
	hub := NewHub(sfa.WithSearch(), sfa.WithThreads(1))
	hub.SetTableBudget(sfa.NewTableBudget(8<<20), 1<<20)
	h := NewHandler(hub)
	put := func(body string) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("PUT", "/v1/tenants/ghost", strings.NewReader(body)))
		return rec.Code
	}
	if code := put("r1 (unclosed\n"); code != http.StatusUnprocessableEntity {
		t.Fatalf("bad rules: %d, want 422", code)
	}
	if _, ok := metricsReply(hub).Tenants["ghost"]; ok {
		t.Error("failed create left a JSON row")
	}
	if prom := getMetrics(t, h, "?format=prometheus"); strings.Contains(prom, `"ghost"`) {
		t.Errorf("failed create left series:\n%s", grepLines(prom, `"ghost"`))
	}
	if hub.tenantBudgetIfAny("ghost") != nil {
		t.Error("failed create left a budget node")
	}

	if code := put("r1 ghost[0-9]\n"); code != http.StatusCreated {
		t.Fatalf("create after a failed one: %d, want 201", code)
	}
	tc, ok := metricsReply(hub).Tenants["ghost"]
	if !ok || !tc.Resident || tc.TableBudget == nil {
		t.Fatalf("created tenant's row: %+v (present %v)", tc, ok)
	}
	doc := parseProm(t, getMetrics(t, h, "?format=prometheus"))
	if doc.get(t, `sfa_tenant_resident{tenant="ghost"}`) != 1 || doc.get(t, `sfa_budget_limit_bytes{budget="ghost"}`) != 1<<20 {
		t.Error("created tenant's series wrong")
	}
}

// TestConcurrentCreatesAdoptOneRow: creators and deleters racing on one
// name end with the registered board recording into the registered
// metrics row — a create that loses to a create-and-delete rebuilds
// rather than keep a row nobody reads.
func TestConcurrentCreatesAdoptOneRow(t *testing.T) {
	hub := NewHub(sfa.WithSearch(), sfa.WithThreads(1))
	hub.SetTableBudget(sfa.NewTableBudget(8<<20), 1<<20)
	iters := 20
	if raceEnabled {
		iters = 8
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if _, _, _, err := hub.SetRules("c", promTestDefs()); err != nil {
					t.Error(err)
					return
				}
				hub.Delete("c")
			}
		}()
	}
	wg.Wait()
	_, b, _, err := hub.SetRules("c", promTestDefs())
	if err != nil {
		t.Fatal(err)
	}
	st, err := b.NewStream()
	if err != nil {
		t.Fatal(err)
	}
	st.Write([]byte("evil42payload"))
	st.Close()
	if got := hub.Metrics().Tenant("c").Scan.Snapshot().Chunks; got == 0 {
		t.Error("the registered board does not record into the registered metrics row")
	}
}

func grepLines(text, substr string) string {
	var out []string
	for _, l := range strings.Split(text, "\n") {
		if strings.Contains(l, substr) {
			out = append(out, l)
		}
	}
	return strings.Join(out, "\n")
}

type failingBody struct{}

func (failingBody) Read([]byte) (int, error) { return 0, errors.New("connection reset") }

// TestScanRejectedCounted: every scan answered with an error status
// counts once under its code, hub-wide, in both encodings — and a 404's
// client-chosen name leaves no tenant row.
func TestScanRejectedCounted(t *testing.T) {
	hub := NewHub(sfa.WithSearch(), sfa.WithThreads(1))
	h := NewHandler(hub, WithScanBodyLimit(1<<10))
	if _, _, _, err := hub.SetRules("web", promTestDefs()); err != nil {
		t.Fatal(err)
	}
	if _, ok := metricsReply(hub).Tenants["web"]; !ok {
		t.Fatal("no row for the created tenant")
	}
	if strings.Contains(getMetrics(t, h, ""), "scan_rejected") || strings.Contains(getMetrics(t, h, "?format=prometheus"), "sfa_scan_rejected_total") {
		t.Fatal("rejected-scan counts present before any rejection")
	}
	scan := func(tenant string, body io.Reader, want int) {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/tenants/"+tenant+"/scan", body))
		if rec.Code != want {
			t.Fatalf("scan %s: %d, want %d", tenant, rec.Code, want)
		}
	}
	scan("nobody", strings.NewReader("x"), http.StatusNotFound)
	scan("nobody2", strings.NewReader("x"), http.StatusNotFound)
	scan("web", strings.NewReader(strings.Repeat("x", 2<<10)), http.StatusRequestEntityTooLarge)
	scan("web", failingBody{}, http.StatusBadRequest)
	scan("web", strings.NewReader("evil42payload"), http.StatusOK)

	doc := parseProm(t, getMetrics(t, h, "?format=prometheus"))
	for series, want := range map[string]float64{
		`sfa_scan_rejected_total{code="400"}`:  1,
		`sfa_scan_rejected_total{code="404"}`:  2,
		`sfa_scan_rejected_total{code="413"}`:  1,
		`sfa_tenant_scans_total{tenant="web"}`: 1,
	} {
		if got := doc.get(t, series); got != want {
			t.Errorf("%s = %v, want %v", series, got, want)
		}
	}
	if doc.types["sfa_scan_rejected_total"] != "counter" {
		t.Errorf("sfa_scan_rejected_total TYPE %q", doc.types["sfa_scan_rejected_total"])
	}
	var reply MetricsReply
	if err := json.Unmarshal([]byte(getMetrics(t, h, "")), &reply); err != nil {
		t.Fatal(err)
	}
	if want := map[string]int64{"400": 1, "404": 2, "413": 1}; !maps.Equal(reply.ScanRejected, want) {
		t.Errorf("JSON scan_rejected = %v, want %v", reply.ScanRejected, want)
	}
	if len(reply.Tenants) != 1 {
		t.Errorf("tenant rows %v, want only web", reply.Tenants)
	}
	// Every scan, rejected or served, leaves a flight record, newest first.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/scans", nil))
	var fl FlightReply
	if err := json.Unmarshal(rec.Body.Bytes(), &fl); err != nil {
		t.Fatal(err)
	}
	want := []struct {
		tenant string
		status int
	}{{"web", 200}, {"web", 400}, {"web", 413}, {"nobody2", 404}, {"nobody", 404}}
	if len(fl.Records) != len(want) {
		t.Fatalf("%d flight records, want %d: %+v", len(fl.Records), len(want), fl.Records)
	}
	for i, r := range fl.Records {
		if r.Tenant != want[i].tenant || r.Status != want[i].status || r.UnixNano == 0 {
			t.Errorf("flight record %d = %+v, want tenant %q status %d", i, r, want[i].tenant, want[i].status)
		}
	}
}

// TestMetricCatalogue holds docs/observability.md's catalogue to the
// family table: every registered family — the runtime ones included,
// whose names are computed — is a backticked name in a catalogue row,
// and every sfa_ name a catalogue row cites is registered.
func TestMetricCatalogue(t *testing.T) {
	raw, err := os.ReadFile("../../docs/observability.md")
	if err != nil {
		t.Fatal(err)
	}
	registered := map[string]bool{}
	for _, f := range promFamilies {
		if registered[f.Name] {
			t.Errorf("family %s declared twice", f.Name)
		}
		registered[f.Name] = true
	}
	cited := map[string]bool{}
	name := regexp.MustCompile("`(sfa_[a-z0-9_]+)`")
	for _, line := range strings.Split(string(raw), "\n") {
		if !strings.HasPrefix(line, "|") {
			continue
		}
		for _, m := range name.FindAllStringSubmatch(line, -1) {
			cited[m[1]] = true
		}
	}
	for n := range registered {
		if !cited[n] {
			t.Errorf("family %s has no row in docs/observability.md", n)
		}
	}
	for n := range cited {
		if !registered[n] {
			t.Errorf("docs/observability.md cites %s, which no family declares", n)
		}
	}
}
