package serve

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/sfa"
)

// TestServeFlightAndAttribution round-trips the two debug endpoints:
// scans must land in the flight recorder with a coherent stage split,
// and /debug/attribution must carry per-shard cost, rule heat, and the
// speculation report for the same traffic.
func TestServeFlightAndAttribution(t *testing.T) {
	hub := NewHub(sfa.WithSearch())
	srv := httptest.NewServer(NewHandler(hub))
	defer srv.Close()
	client := srv.Client()

	doJSON[LoadReply](t, client, http.MethodPut, srv.URL+"/v1/tenants/web",
		strings.NewReader("attack attack[0-9]+\nprobe prob(e|ing)\nquiet neverfires\n"), http.StatusCreated)

	bodies := []string{
		"an attack123 in flight",
		"probing the perimeter, attack9 confirmed",
		"nothing to see here",
	}
	wantMatches := []int64{1, 2, 0}
	for _, b := range bodies {
		doJSON[ScanReply](t, client, http.MethodPost, srv.URL+"/v1/tenants/web/scan",
			strings.NewReader(b), http.StatusOK)
	}

	fl := doJSON[FlightReply](t, client, http.MethodGet, srv.URL+"/debug/scans?n=10", nil, http.StatusOK)
	if fl.Capacity != DefaultFlightRecords {
		t.Fatalf("capacity %d, want %d", fl.Capacity, DefaultFlightRecords)
	}
	if len(fl.Records) != len(bodies) {
		t.Fatalf("got %d records, want %d: %+v", len(fl.Records), len(bodies), fl.Records)
	}
	// Newest first: record i describes body len(bodies)-1-i.
	for i, rec := range fl.Records {
		j := len(bodies) - 1 - i
		if rec.Tenant != "web" {
			t.Errorf("record %d tenant %q", i, rec.Tenant)
		}
		if rec.Generation != 1 {
			t.Errorf("record %d generation %d", i, rec.Generation)
		}
		if rec.Bytes != int64(len(bodies[j])) {
			t.Errorf("record %d bytes %d, want %d", i, rec.Bytes, len(bodies[j]))
		}
		if rec.Matches != wantMatches[j] {
			t.Errorf("record %d matches %d, want %d", i, rec.Matches, wantMatches[j])
		}
		if rec.Chunks < 1 || rec.UnixNano == 0 || rec.Seq == 0 || rec.Status != http.StatusOK {
			t.Errorf("record %d missing fields: %+v", i, rec)
		}
		if rec.ReadNs < 0 || rec.PrefilterNs < 0 || rec.ComposeNs < 0 || rec.MatchNs < 0 {
			t.Errorf("record %d negative stage time: %+v", i, rec)
		}
		if i > 0 && fl.Records[i-1].Seq <= rec.Seq {
			t.Errorf("records not newest-first: seq[%d]=%d, seq[%d]=%d", i-1, fl.Records[i-1].Seq, i, rec.Seq)
		}
	}

	// ?n= is honoured and bad values are rejected.
	fl2 := doJSON[FlightReply](t, client, http.MethodGet, srv.URL+"/debug/scans?n=2", nil, http.StatusOK)
	if len(fl2.Records) != 2 || fl2.Records[0].Seq != fl.Records[0].Seq {
		t.Fatalf("n=2 snapshot %+v", fl2.Records)
	}
	doJSON[map[string]string](t, client, http.MethodGet, srv.URL+"/debug/scans?n=zero", nil, http.StatusBadRequest)

	attr := doJSON[AttributionReply](t, client, http.MethodGet, srv.URL+"/debug/attribution", nil, http.StatusOK)
	ta, ok := attr.Tenants["web"]
	if !ok {
		t.Fatalf("attribution has no web tenant: %+v", attr)
	}
	if ta.Generation != 1 || len(ta.Shards) == 0 {
		t.Fatalf("web attribution %+v", ta)
	}
	// With a window prefilter the automaton may walk only candidate
	// windows (ScanChunks stays 0), so the invariant is: some shard
	// accounted bytes, via chunks or windows.
	var chunks, bytes, windows int64
	for _, sh := range ta.Shards {
		chunks += sh.ScanChunks
		bytes += sh.ScanBytes
		windows += sh.CandWindows
	}
	if bytes == 0 || (chunks == 0 && windows == 0) {
		t.Fatalf("no shard cost recorded: %+v", ta.Shards)
	}
	heat := map[string]int64{}
	for _, rh := range ta.RuleHeat {
		heat[rh.Name] = rh.Matches
	}
	if heat["attack"] != 2 || heat["probe"] != 1 || heat["quiet"] != 0 {
		t.Fatalf("rule heat %+v", ta.RuleHeat)
	}
	if len(ta.RuleHeat) > 1 && ta.RuleHeat[0].Matches < ta.RuleHeat[1].Matches {
		t.Fatalf("rule heat not hottest-first: %+v", ta.RuleHeat)
	}
	// Three tiny scans cannot clear SpeculationMinSamples.
	if ta.Speculation.Measured || ta.Speculation.Viable {
		t.Fatalf("speculation measured on %d samples: %+v", chunks, ta.Speculation)
	}

	// ?top= caps the heat table and reports the cut.
	attr2 := doJSON[AttributionReply](t, client, http.MethodGet, srv.URL+"/debug/attribution?top=1", nil, http.StatusOK)
	ta2 := attr2.Tenants["web"]
	if len(ta2.RuleHeat) != 1 || ta2.RuleHeat[0].Name != "attack" || ta2.RuleHeatOmitted != 2 {
		t.Fatalf("top=1 heat %+v omitted %d", ta2.RuleHeat, ta2.RuleHeatOmitted)
	}
}

// TestServeFlightConcurrent hammers the flight recorder from the read
// side while scans and hot reloads run: every snapshot must be torn-free
// (valid tenant, plausible byte count), strictly newest-first, and
// capacity must stay stable. `make ci` runs it under -race.
func TestServeFlightConcurrent(t *testing.T) {
	hub := NewHub(sfa.WithSearch())
	srv := httptest.NewServer(NewHandler(hub))
	defer srv.Close()
	client := srv.Client()

	doJSON[LoadReply](t, client, http.MethodPut, srv.URL+"/v1/tenants/web",
		strings.NewReader("attack attack[0-9]+\n"), http.StatusCreated)
	doJSON[LoadReply](t, client, http.MethodPut, srv.URL+"/v1/tenants/payload",
		strings.NewReader("nop \\x90{4,}\n"), http.StatusCreated)

	bodies := map[string]string{
		"web":     "one attack7 and another attack8 here",
		"payload": "prefix \x90\x90\x90\x90\x90 suffix",
	}
	validLen := map[string]int64{
		"web":     int64(len(bodies["web"])),
		"payload": int64(len(bodies["payload"])),
	}

	iters := 200
	if raceEnabled {
		iters = 60
	}
	var stop atomic.Bool
	var writers, readers sync.WaitGroup
	errs := make(chan error, 16)

	// Scanners on both tenants.
	for w := 0; w < 3; w++ {
		writers.Add(1)
		go func(seed int64) {
			defer writers.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < iters; i++ {
				name := "web"
				if r.Intn(2) == 0 {
					name = "payload"
				}
				resp, err := client.Post(srv.URL+"/v1/tenants/"+name+"/scan",
					"application/octet-stream", strings.NewReader(bodies[name]))
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("scan %s: status %d", name, resp.StatusCode)
					return
				}
			}
		}(int64(w))
	}

	// Hot reloader on the web tenant: reused shards must keep their
	// attribution account and the recorder must keep accepting records.
	writers.Add(1)
	go func() {
		defer writers.Done()
		for i := 0; i < iters/10; i++ {
			rules := fmt.Sprintf("attack attack[0-9]+\nextra%d extra%dx\n", i, i)
			resp, err := client.Post(srv.URL+"/v1/tenants/web/scan", "application/octet-stream",
				strings.NewReader(bodies["web"]))
			if err == nil {
				resp.Body.Close()
			}
			req, err := http.NewRequest(http.MethodPut, srv.URL+"/v1/tenants/web", strings.NewReader(rules))
			if err != nil {
				errs <- err
				return
			}
			resp, err = client.Do(req)
			if err != nil {
				errs <- err
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("reload %d: status %d", i, resp.StatusCode)
				return
			}
		}
	}()

	// Reader: snapshots must never show a torn record. (No doJSON here:
	// t.Fatal is only legal on the test goroutine.)
	getJSON := func(url string, out any) error {
		resp, err := client.Get(url)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
		}
		return json.NewDecoder(resp.Body).Decode(out)
	}
	readers.Add(1)
	go func() {
		defer readers.Done()
		for !stop.Load() {
			var fl FlightReply
			if err := getJSON(srv.URL+"/debug/scans?n=64", &fl); err != nil {
				errs <- err
				return
			}
			if fl.Capacity != DefaultFlightRecords {
				errs <- fmt.Errorf("capacity moved: %d", fl.Capacity)
				return
			}
			var prev uint64
			for i, rec := range fl.Records {
				if i > 0 && rec.Seq >= prev {
					errs <- fmt.Errorf("snapshot not strictly newest-first: seq %d then %d", prev, rec.Seq)
					return
				}
				prev = rec.Seq
				want, ok := validLen[rec.Tenant]
				if !ok {
					errs <- fmt.Errorf("torn record: unknown tenant %q", rec.Tenant)
					return
				}
				if rec.Bytes != want {
					errs <- fmt.Errorf("torn record: tenant %s bytes %d, want %d", rec.Tenant, rec.Bytes, want)
					return
				}
			}
			var attr AttributionReply
			if err := getJSON(srv.URL+"/debug/attribution?top=5", &attr); err != nil {
				errs <- err
				return
			}
			if _, ok := attr.Tenants["payload"]; !ok {
				errs <- fmt.Errorf("attribution lost the payload tenant: %+v", attr)
				return
			}
		}
	}()

	writers.Wait()
	stop.Store(true)
	readers.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
