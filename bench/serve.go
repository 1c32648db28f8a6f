package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/serve"
	"repro/sfa"
)

const tenant = "ids"

// --- the spawned server ------------------------------------------------------

// children are the server processes currently alive; killChildren ends
// them from the exit path, the signal handler and the panic path alike.
var (
	childMu  sync.Mutex
	children = map[*server]bool{}
)

func killChildren() {
	childMu.Lock()
	live := make([]*server, 0, len(children))
	for s := range children {
		live = append(live, s)
	}
	childMu.Unlock()
	for _, s := range live {
		s.kill()
	}
}

// server is one spawned sfaserve process.
type server struct {
	cmd    *exec.Cmd
	url    string
	logs   chan struct{} // closed when the log reader has drained stderr
	once   sync.Once
	lastMu sync.Mutex
	last   []string // last log lines, for error reports
}

// buildServer compiles cmd/sfaserve into the checkout's build directory
// and returns the binary's path.
func buildServer(repoRoot string) (string, error) {
	bin := filepath.Join(repoRoot, ".bench_build", "sfaserve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/sfaserve")
	cmd.Dir = repoRoot
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building sfaserve: %w\n%s", err, out)
	}
	return bin, nil
}

// spawnServer starts sfaserve on an ephemeral port with default
// settings and waits for its JSON "listening" log line, which carries
// the bound address.
func spawnServer(bin string) (*server, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-log-format", "json")
	// "Default GOMAXPROCS" must mean the server's own default, whatever
	// the benchmark was started with.
	cmd.Env = slices.DeleteFunc(os.Environ(), func(kv string) bool { return strings.HasPrefix(kv, "GOMAXPROCS=") })
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting sfaserve: %w", err)
	}
	s := &server{cmd: cmd, logs: make(chan struct{})}
	childMu.Lock()
	children[s] = true
	childMu.Unlock()
	addr := make(chan string, 1) // one send: the listening line
	go func() {
		defer close(s.logs)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			s.lastMu.Lock()
			if s.last = append(s.last, line); len(s.last) > 8 {
				s.last = s.last[1:]
			}
			s.lastMu.Unlock()
			var rec struct{ Msg, Addr string }
			if json.Unmarshal([]byte(line), &rec) == nil && rec.Msg == "listening" {
				select {
				case addr <- rec.Addr:
				default:
				}
			}
		}
	}()
	select {
	case a := <-addr:
		s.url = "http://" + a
		return s, nil
	case <-s.logs:
		s.kill()
		return nil, fmt.Errorf("sfaserve exited before listening: %s", s.tail())
	case <-time.After(10 * time.Second):
		s.kill()
		return nil, fmt.Errorf("sfaserve did not report listening within 10 s: %s", s.tail())
	}
}

func (s *server) tail() string {
	s.lastMu.Lock()
	defer s.lastMu.Unlock()
	return strings.Join(s.last, " | ")
}

// kill ends the process and waits until it is gone and its log drained.
func (s *server) kill() {
	s.once.Do(func() {
		s.cmd.Process.Kill() // already exited: nothing to kill
		<-s.logs
		s.cmd.Wait() // exit status of a killed child carries no news
		childMu.Lock()
		delete(children, s)
		childMu.Unlock()
	})
}

// --- the load ----------------------------------------------------------------

type serveInputs struct {
	rules    []byte
	defs     []sfa.RuleDef
	bodies   []*corpus
	want     [][]string // expected matches of each body, in reply order
	bodySize int
	seed     int64
	bin      string
}

func prepareServe(rc *runCfg, bodySize, distinct int) (*prepared, error) {
	in := &serveInputs{rules: ruleFile("ids16"), defs: ruleDefs("ids16"), bodySize: bodySize, seed: rc.seed}
	o, err := newOracle(in.defs)
	if err != nil {
		return nil, err
	}
	in.bodies = genTraffic(corpusBytes, rc.seed).slices(distinct, bodySize, rc.seed+2)
	masks := map[string]bool{}
	for _, b := range in.bodies {
		m, err := o.expect(b)
		if err != nil {
			return nil, err
		}
		in.want = append(in.want, o.matches(m))
		masks[fmt.Sprint(m)] = true
	}
	if in.bin, err = buildServer(rc.repoRoot); err != nil {
		return nil, err
	}
	return &prepared{
		setup:       func() (*target, error) { return setupSpawned(in) },
		tracedSetup: func() (*target, error) { return setupReplica(in) },
		layers:      func(lc *layerCtx) error { return serveLayers(lc, in) },
		inputs: fmt.Sprintf("the sfaserve binary with default settings, tenant %s = ids16 (%d rules); %d distinct %d B bodies from traffic with %d distinct expected replies; one keep-alive connection per caller, closed loop, bodies drawn in a seeded order",
			tenant, len(in.defs), distinct, bodySize, len(masks)),
	}, nil
}

// newClient makes one caller's HTTP client: a single keep-alive
// connection, and the per-request timeout that turns a hung server into
// failed ops.
func newClient() *http.Client {
	return &http.Client{
		Timeout:   opTimeout,
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true},
	}
}

// spanHeader carries the client span's id and op id to the replica's
// timing middleware, so that the handler span names its cause.
const spanHeader = "X-Bench-Span"

// scanOp returns the closed-loop op against base: POST one body, read
// the reply fully, check status, byte count and matches.
func (in *serveInputs) scanOp(base string, callers int) func(caller, i int, tr *tracer, parent live) opResult {
	clients := make([]*http.Client, callers)
	orders := make([]*rand.Rand, callers)
	for c := range clients {
		clients[c] = newClient()
		orders[c] = rand.New(rand.NewSource(in.seed*1000 + int64(c)))
	}
	url := base + "/v1/tenants/" + tenant + "/scan"
	return func(c, _ int, tr *tracer, parent live) opResult {
		b := orders[c].Intn(len(in.bodies))
		req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(in.bodies[b].Data))
		if err != nil {
			return opResult{}
		}
		l := tr.begin("http.request", parent)
		if l.t != nil {
			req.Header.Set(spanHeader, strconv.FormatUint(l.id, 10)+":"+strconv.FormatUint(l.op, 10))
		}
		ok := in.roundTrip(clients[c], req, b)
		l.end()
		return opResult{bytes: in.bodySize, ok: ok}
	}
}

func (in *serveInputs) roundTrip(cl *http.Client, req *http.Request, body int) bool {
	resp, err := cl.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		return false
	}
	var reply serve.ScanReply
	if json.Unmarshal(raw, &reply) != nil {
		return false
	}
	return reply.Bytes == int64(in.bodySize) && slices.Equal(reply.Matches, in.want[body])
}

// putRules uploads the rule file and returns the round-trip time.
func (in *serveInputs) putRules(base string) (time.Duration, error) {
	req, err := http.NewRequest(http.MethodPut, base+"/v1/tenants/"+tenant, bytes.NewReader(in.rules))
	if err != nil {
		return 0, err
	}
	cl := &http.Client{Timeout: 60 * time.Second}
	defer cl.CloseIdleConnections()
	t0 := time.Now()
	resp, err := cl.Do(req)
	if err != nil {
		return 0, fmt.Errorf("PUT rules: %w", err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body) // only used for the error text
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("PUT rules: status %d: %s", resp.StatusCode, raw)
	}
	return time.Since(t0), nil
}

// setupSpawned is the serve workloads' cold set-up: spawn, wait for
// listening, PUT the rules, first verified 200 scan.
func setupSpawned(in *serveInputs) (*target, error) {
	srv, err := spawnServer(in.bin)
	if err != nil {
		return nil, err
	}
	if _, err := in.putRules(srv.url); err != nil {
		srv.kill()
		return nil, err
	}
	callers := serveCallers()
	op := in.scanOp(srv.url, callers)
	if res := op(0, 0, nil, live{}); !res.ok {
		srv.kill()
		return nil, fmt.Errorf("first scan request failed or gave a wrong reply; server log: %s", srv.tail())
	}
	return &target{op: op, close: srv.kill, pid: srv.cmd.Process.Pid, loadProcs: 1}, nil
}

// serveCallers is the serve workloads' caller count: one keep-alive
// connection per CPU, all from this one process.
func serveCallers() int { return runtime.NumCPU() }

// --- the in-process replica of the traced run --------------------------------

// replica is the same hub and handler the sfaserve binary assembles, run
// inside the benchmark on a loopback listener and wrapped in a timing
// middleware: the only way to put a span around the handler without
// editing the program.
type replica struct {
	hub     *serve.Hub
	handler http.Handler // the bare handler, for recorder-driven probes
	srv     *httptest.Server
	mu      sync.Mutex
	tr      *tracer
}

func newReplica(in *serveInputs) (*replica, error) {
	// The options sfaserve passes by default: -p 0, substring search.
	hub := serve.NewHub(sfa.WithThreads(0), sfa.WithSearch())
	if _, _, _, err := hub.SetRules(tenant, in.defs); err != nil {
		return nil, err
	}
	r := &replica{hub: hub, handler: serve.NewHandler(hub), tr: newTracer(1 << 10)}
	r.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		id, op, ok := strings.Cut(req.Header.Get(spanHeader), ":")
		if !ok {
			r.handler.ServeHTTP(w, req)
			return
		}
		start := time.Now()
		r.handler.ServeHTTP(w, req)
		end := time.Now()
		parent, _ := strconv.ParseUint(id, 10, 64) // the header is the benchmark's own
		opID, _ := strconv.ParseUint(op, 10, 64)
		r.mu.Lock()
		r.tr.n++
		r.tr.record(span{ID: r.tr.lane | r.tr.n, Parent: parent, Op: opID, Name: "serve.handler",
			Start: start.Sub(traceEpoch).Nanoseconds(), End: end.Sub(traceEpoch).Nanoseconds()})
		r.mu.Unlock()
	}))
	return r, nil
}

func setupReplica(in *serveInputs) (*target, error) {
	r, err := newReplica(in)
	if err != nil {
		return nil, err
	}
	op := in.scanOp(r.srv.URL, serveCallers())
	if res := op(0, 0, nil, live{}); !res.ok {
		r.srv.Close()
		return nil, fmt.Errorf("first scan request on the replica failed or gave a wrong reply")
	}
	return &target{op: op, close: r.srv.Close, lane: func() *tracer { return r.tr }}, nil
}

// flightMeans reads a /debug/scans reply and averages its records.
type flightMeans struct {
	n                                  int
	readUs, prefUs, composeUs, matchUs float64
}

func meansOf(reply serve.FlightReply) flightMeans {
	var m flightMeans
	for _, r := range reply.Records {
		m.n++
		m.readUs += float64(r.ReadNs) / 1e3
		m.prefUs += float64(r.PrefilterNs) / 1e3
		m.composeUs += float64(r.ComposeNs) / 1e3
		m.matchUs += float64(r.MatchNs) / 1e3
	}
	if m.n > 0 {
		n := float64(m.n)
		m.readUs, m.prefUs, m.composeUs, m.matchUs = m.readUs/n, m.prefUs/n, m.composeUs/n, m.matchUs/n
	}
	return m
}

func fetchFlight(base string) (flightMeans, error) {
	cl := &http.Client{Timeout: opTimeout}
	defer cl.CloseIdleConnections()
	resp, err := cl.Get(base + "/debug/scans?n=" + strconv.Itoa(serve.DefaultFlightRecords))
	if err != nil {
		return flightMeans{}, err
	}
	defer resp.Body.Close()
	var reply serve.FlightReply
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		return flightMeans{}, fmt.Errorf("decoding /debug/scans: %w", err)
	}
	return meansOf(reply), nil
}

// serveLayers fills the serve.* rows. The parts of one request are
// measured on the replica's bare handler with an httptest recorder — no
// socket — so that they and serve.handler_us describe the same calls;
// the spawned server contributes what only a real process has.
func serveLayers(lc *layerCtx, in *serveInputs) error {
	r, err := newReplica(in)
	if err != nil {
		return err
	}
	defer r.srv.Close()
	url := "/v1/tenants/" + tenant + "/scan"
	order := rand.New(rand.NewSource(in.seed))
	var bad int
	scan := func() {
		b := order.Intn(len(in.bodies))
		rec := httptest.NewRecorder()
		r.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, url, bytes.NewReader(in.bodies[b].Data)))
		if rec.Code != http.StatusOK {
			bad++
		}
	}
	lc.timeLoop(scan) // warm the handler's pools and the engine's contexts
	// handler_us and its parts must describe the same requests: exactly
	// as many as the flight recorder keeps, timed as one batch, and then
	// read back from the replica's own /debug/scans.
	t0 := time.Now()
	for i := 0; i < serve.DefaultFlightRecords; i++ {
		scan()
	}
	handlerNs := float64(time.Since(t0).Nanoseconds()) / serve.DefaultFlightRecords
	if bad > 0 {
		return fmt.Errorf("%d recorder-driven scans did not return 200", bad)
	}
	rec := httptest.NewRecorder()
	r.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/scans?n="+strconv.Itoa(serve.DefaultFlightRecords), nil))
	var reply serve.FlightReply
	if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
		return fmt.Errorf("decoding the replica's /debug/scans: %w", err)
	}
	if len(reply.Records) != serve.DefaultFlightRecords {
		return fmt.Errorf("the replica's /debug/scans returned %d records, want %d", len(reply.Records), serve.DefaultFlightRecords)
	}
	fm := meansOf(reply)

	board, _ := r.hub.Tenant(tenant)
	newstreamNs := lc.timeLoop(func() {
		st, err := board.NewStream()
		if err == nil {
			st.Close()
		}
	})
	st, err := board.NewStream()
	if err != nil {
		return err
	}
	defer st.Close()
	st.Write(in.bodies[0].Data)
	var names []string
	namesNs := lc.timeLoop(func() { names = st.Names() })
	encodeNs := lc.timeLoop(func() {
		rec := httptest.NewRecorder()
		rec.Header().Set("Content-Type", "application/json")
		rec.WriteHeader(http.StatusOK)
		json.NewEncoder(rec).Encode(serve.ScanReply{Tenant: tenant, Generation: 1, Bytes: int64(in.bodySize), Matches: names})
	})

	handlerUs := handlerNs / 1e3
	lc.set("serve.handler_us", handlerUs)
	lc.set("serve.newstream_us", newstreamNs/1e3)
	lc.set("serve.read_us", fm.readUs)
	lc.set("serve.match_us", fm.matchUs)
	lc.set("serve.prefilter_us", fm.prefUs)
	lc.set("serve.compose_us", fm.composeUs)
	lc.set("serve.names_us", namesNs/1e3)
	lc.set("serve.reply_encode_us", encodeNs/1e3)
	lc.set("serve.unaccounted_us", handlerUs-newstreamNs/1e3-fm.readUs-fm.matchUs-encodeNs/1e3)

	// serve.net_us: what a request costs beyond its handler, from the
	// traced windows' spans on the loopback replica.
	var reqNs, handNs int64
	var reqs int
	byID := map[uint64]int64{}
	for _, s := range lc.spans {
		if s.Name == "serve.handler" {
			byID[s.Parent] = s.End - s.Start
		}
	}
	for _, s := range lc.spans {
		if h, ok := byID[s.ID]; ok && s.Name == "http.request" {
			reqNs += s.End - s.Start
			handNs += h
			reqs++
		}
	}
	if reqs > 0 {
		lc.set("serve.net_us", float64(reqNs-handNs)/float64(reqs)/1e3)
	}

	return spawnedLayers(lc, in)
}

// spawnedLayers fills the rows only a real process has: rule upload
// time, its own flight records and p99 under socket load, and its peak
// memory.
func spawnedLayers(lc *layerCtx, in *serveInputs) error {
	srv, err := spawnServer(in.bin)
	if err != nil {
		return err
	}
	defer srv.kill()
	put, err := in.putRules(srv.url)
	if err != nil {
		return err
	}
	lc.set("serve.rule_put_ms", float64(put.Nanoseconds())/1e6)
	callers := serveCallers()
	tg := &target{op: in.scanOp(srv.url, callers), pid: srv.cmd.Process.Pid}
	run := runWindows(tg, callers, 0, lc.probeDur*4, lc.probeDur, false)
	if run.panicked != nil {
		return run.panicked
	}
	if _, failed, _ := run.totals(); failed > 0 {
		return fmt.Errorf("%d requests to the spawned server failed during the layer probe", failed)
	}
	sm, err := fetchFlight(srv.url)
	if err != nil {
		return err
	}
	lc.set("serve.spawned_match_us", sm.matchUs)
	var lat []float64
	for _, ws := range run.windows {
		for _, w := range ws {
			lat = append(lat, w.latUs...)
		}
	}
	lc.set("serve.req_p99_us", percentile(lat, 99))
	if kb, err := procStatusKB(srv.cmd.Process.Pid, "VmHWM"); err == nil {
		lc.set("serve.peak_rss_mb", float64(kb)/1024)
	}
	return nil
}
