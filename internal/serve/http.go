package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	rpprof "runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/snapshot"
	"repro/sfa"
)

// HTTP front end for a Hub. The API is deliberately small and
// curl-friendly:
//
//	GET    /healthz                   liveness
//	GET    /metrics                   JSON counters (scans, reloads, snapshots)
//	GET    /debug/scans               flight recorder: the last N scan records (?n=)
//	GET    /debug/attribution         per-shard cost + rule heat + speculation report
//	GET    /debug/pprof/*             Go profiling (only with WithProfiling)
//	GET    /v1/tenants                list tenants with stats
//	PUT    /v1/tenants/{name}         create or hot-reload (body: rules file)
//	GET    /v1/tenants/{name}         one tenant's stats
//	DELETE /v1/tenants/{name}         remove a tenant
//	POST   /v1/tenants/{name}/scan    scan the request body, streamed
//
// Scan reads the request body in fixed chunks straight into a pinned
// RuleStream — the body is never buffered whole, so arbitrarily large
// payloads scan in constant memory, and a hot reload issued mid-request
// does not disturb the scan.

// scanChunkSize is the body read granularity. 64 KiB is large enough for
// the engine's parallel chunk path and small enough to keep per-request
// memory trivial.
const scanChunkSize = 64 << 10

// Request-body ceilings. Every body read goes through
// http.MaxBytesReader so an oversized (or unbounded chunked) upload is
// cut off with 413 instead of being consumed forever. Rule uploads are
// parsed into memory, so their default is small; scan bodies stream in
// constant memory, so theirs is large — it exists to bound abuse, not
// legitimate payloads. Both are per-handler configurable.
const (
	// DefaultMaxRuleBytes caps PUT /v1/tenants/{name} bodies (rule
	// files). 8 MiB is orders of magnitude beyond real SNORT-style sets.
	DefaultMaxRuleBytes = 8 << 20
	// DefaultMaxScanBytes caps POST .../scan bodies. 4 GiB: scans are
	// O(1) memory per request, so this is an abuse bound only.
	DefaultMaxScanBytes = 4 << 30
)

// scanBufs recycles body-read buffers across requests — the streams
// underneath are zero-alloc per chunk, so the handler should not be the
// one generating 64 KiB of garbage per request.
var scanBufs = sync.Pool{New: func() any {
	b := make([]byte, scanChunkSize)
	return &b
}}

// TenantStatus is the stats document for one tenant.
type TenantStatus struct {
	Tenant     string      `json:"tenant"`
	Generation uint64      `json:"generation"`
	Rules      int         `json:"rules"`
	Shards     []ShardStat `json:"shards"`
}

// ShardStat mirrors sfa.ShardInfo for JSON.
type ShardStat struct {
	Rules      []string `json:"rules"`
	DFAStates  int      `json:"dfa_states"`
	SFAStates  int      `json:"sfa_states"`
	Layout     string   `json:"layout"`
	TableBytes int64    `json:"table_bytes"` // tables built so far (see docs/observability.md)
	BuildID    uint64   `json:"build_id"`
	Prefilter  string   `json:"prefilter"`
	// Lazy-shard cache counters (WithLazyCompile); zero on eager shards.
	Lazy          bool  `json:"lazy,omitempty"`
	ResidentBytes int64 `json:"resident_bytes,omitempty"`
	Fills         int64 `json:"fills,omitempty"`
	Evictions     int64 `json:"evictions,omitempty"`
	// Chunk-boundary state frequencies (eager shards scanned with
	// tenant scan stats attached); empty until the shard has streamed.
	HotStates []sfa.StateCount `json:"hot_states,omitempty"`
	HotOther  int64            `json:"hot_other,omitempty"`
	// Always-on cost attribution over the engine's lifetime (reused
	// shards keep their account across reloads).
	ComposeNs   int64 `json:"compose_ns"`
	ScanChunks  int64 `json:"scan_chunks"`
	ScanBytes   int64 `json:"scan_bytes"`
	CandWindows int64 `json:"cand_windows,omitempty"`
}

// FlightReply answers GET /debug/scans: the most recent scan records,
// newest first, straight from the hub's flight recorder.
type FlightReply struct {
	// Capacity is how many records the ring retains (0 = recording off).
	Capacity int `json:"capacity"`
	// Records holds up to ?n= records (default 64), newest first. Gaps
	// in the seq column mean records were overwritten between the write
	// and this read — never reordered or torn.
	Records []sfa.ScanRecord `json:"records"`
}

// AttributionReply answers GET /debug/attribution: per tenant, which
// shards cost and which rules fire, plus the speculation-viability
// report — the drill-down the aggregate /metrics series cannot give.
type AttributionReply struct {
	Tenants map[string]TenantAttribution `json:"tenants"`
}

// TenantAttribution is one tenant's attribution document.
type TenantAttribution struct {
	Generation uint64 `json:"generation"`
	// Shards carries the per-shard cost account. Engine counters
	// survive hot reloads (reused shards keep accumulating), so the
	// numbers span the engine's lifetime, not just this generation.
	Shards []ShardAttribution `json:"shards"`
	// RuleHeat is the hottest ?top= rules (default 20), descending by
	// match count; rules that never matched are included only while
	// they fit. RuleHeatOmitted counts the rows cut by the cap.
	RuleHeat        []sfa.RuleHeat `json:"rule_heat"`
	RuleHeatOmitted int            `json:"rule_heat_omitted,omitempty"`
	// Speculation is the boundary-state concentration report (see
	// sfa.SpeculationReport); empty when the tenant has not streamed.
	Speculation sfa.SpeculationReport `json:"speculation"`
}

// ShardAttribution is one shard's cost row.
type ShardAttribution struct {
	Shard int `json:"shard"`
	Rules int `json:"rules"`
	// Layout is the shard's table layout; for a lazy shard it says which
	// walk it is on: "lazy-rules" while candidate windows are verified on
	// single rules' DFAs and no combined automaton exists, "lazy" once
	// the tuple D-SFA has been built.
	Layout      string `json:"layout"`
	Prefilter   string `json:"prefilter"`
	Lazy        bool   `json:"lazy,omitempty"`
	ComposeNs   int64  `json:"compose_ns"`
	ScanChunks  int64  `json:"scan_chunks"`
	ScanBytes   int64  `json:"scan_bytes"`
	CandWindows int64  `json:"cand_windows,omitempty"`
}

// LoadReply answers PUT /v1/tenants/{name}.
type LoadReply struct {
	Tenant        string `json:"tenant"`
	Created       bool   `json:"created"`
	Generation    uint64 `json:"generation"`
	Rules         int    `json:"rules"`
	Shards        int    `json:"shards"`
	ShardsReused  int    `json:"shards_reused"`
	ShardsRebuilt int    `json:"shards_rebuilt"`
	RulesAdded    int    `json:"rules_added"`
	RulesRemoved  int    `json:"rules_removed"`
}

// ScanReply answers POST /v1/tenants/{name}/scan.
type ScanReply struct {
	Tenant     string   `json:"tenant"`
	Generation uint64   `json:"generation"`
	Bytes      int64    `json:"bytes"`
	Matches    []string `json:"matches"`
}

// MetricsReply is the /metrics document.
type MetricsReply struct {
	UptimeSeconds float64                 `json:"uptime_s"`
	Tenants       map[string]TenantCounts `json:"tenants"`
	Snapshot      SnapshotMetrics         `json:"snapshot"`
	// TableBudget is the hub-wide lazy-compilation budget (SetTableBudget);
	// absent when the hub has none.
	TableBudget *BudgetCounts `json:"table_budget,omitempty"`
}

// BudgetCounts reports one table-budget node: the byte bound, what lazy
// shards currently have resident under it, and the lifetime fill and
// eviction counters that reveal thrash (fills growing much faster than
// scans) versus a comfortable working set (evictions flat).
type BudgetCounts struct {
	LimitBytes    int64 `json:"limit_bytes"` // <= 0 = unlimited, metering only
	ResidentBytes int64 `json:"resident_bytes"`
	Fills         int64 `json:"fills"`
	Evictions     int64 `json:"evictions"`
	// StallNs is total scan wall time spent inside eviction under this
	// node — the budget-pressure signal (the full fill/evict latency
	// histograms are on the Prometheus endpoint).
	StallNs int64 `json:"stall_ns,omitempty"`
}

func budgetCounts(tb *sfa.TableBudget) *BudgetCounts {
	s := tb.Stats()
	return &BudgetCounts{
		LimitBytes:    s.LimitBytes,
		ResidentBytes: s.UsedBytes,
		Fills:         s.Fills,
		Evictions:     s.Evictions,
		StallNs:       s.StallNs,
	}
}

// TenantCounts is one tenant's /metrics entry. Resident is false for a
// deleted tenant whose traffic history is still reported.
type TenantCounts struct {
	Resident      bool   `json:"resident"`
	Generation    uint64 `json:"generation,omitempty"`
	Rules         int    `json:"rules,omitempty"`
	Shards        int    `json:"shards,omitempty"`
	Scans         int64  `json:"scans"`
	ScanBytes     int64  `json:"scan_bytes"`
	Reloads       int64  `json:"reloads"`
	ShardsReused  int64  `json:"shards_reused"`
	ShardsRebuilt int64  `json:"shards_rebuilt"`
	SlowScans     int64  `json:"slow_scans,omitempty"`
	// Scan is the tenant's streaming hot-path stats — chunks, bytes, and
	// log₂ latency/size histograms — accumulated across generations.
	Scan *sfa.ScanSnapshot `json:"scan,omitempty"`
	// Build reports how the resident generation was built (planner
	// decisions, cache traffic, phase timings). Absent for non-resident
	// tenants.
	Build *sfa.BuildReport `json:"build,omitempty"`
	// Prefilter is the resident generation's literal-cascade snapshot:
	// static shape plus the live skip/byte counters accumulated since the
	// generation was built. Absent for non-resident tenants.
	Prefilter *sfa.PrefilterStats `json:"prefilter,omitempty"`
	// TableBudget is the tenant's child of the hub-wide lazy-compilation
	// budget. Absent when the hub has no budget or the tenant never
	// compiled under it.
	TableBudget *BudgetCounts `json:"table_budget,omitempty"`
}

// SnapshotMetrics reports the persistence subsystem's counters: how
// tenants were restored at boot, state-write failures, and the shard
// store's hit/miss numbers.
type SnapshotMetrics struct {
	WarmLoads     int64           `json:"warm_loads"`
	RebuiltLoads  int64           `json:"rebuilt_loads"`
	ColdBuilds    int64           `json:"cold_builds"`
	PersistErrors int64           `json:"persist_errors"`
	Store         *snapshot.Stats `json:"store,omitempty"`
}

// metricsReply assembles the /metrics document from the hub's counters.
func metricsReply(h *Hub) MetricsReply {
	m := h.Metrics()
	reply := MetricsReply{
		UptimeSeconds: time.Since(m.start).Seconds(),
		Tenants:       map[string]TenantCounts{},
		Snapshot: SnapshotMetrics{
			WarmLoads:     m.warmLoads.Load(),
			RebuiltLoads:  m.rebuiltLoads.Load(),
			ColdBuilds:    m.coldBuilds.Load(),
			PersistErrors: m.persistErrors.Load(),
		},
	}
	if st := h.State(); st != nil {
		stats := st.Cache().Stats()
		reply.Snapshot.Store = &stats
	}
	if tb := h.TableBudget(); tb != nil {
		reply.TableBudget = budgetCounts(tb)
	}
	// Union of resident tenants and tenants with traffic history: a
	// just-created (or just-restored) tenant must appear before its
	// first scan, and a deleted one keeps its counters.
	names := map[string]bool{}
	for _, name := range h.Names() {
		names[name] = true
	}
	for _, name := range m.tenantNames() {
		names[name] = true
	}
	for name := range names {
		tm := m.Tenant(name)
		tc := TenantCounts{
			Scans:         tm.Scans.Load(),
			ScanBytes:     tm.ScanBytes.Load(),
			Reloads:       tm.Reloads.Load(),
			ShardsReused:  tm.ShardsReused.Load(),
			ShardsRebuilt: tm.ShardsRebuilt.Load(),
			SlowScans:     tm.SlowScans.Load(),
		}
		if sc := tm.Scan.Snapshot(); sc.Chunks > 0 {
			tc.Scan = &sc
		}
		if b, ok := h.Tenant(name); ok {
			rs, gen := b.Snapshot()
			tc.Resident = true
			tc.Generation = gen
			tc.Rules = rs.Len()
			tc.Shards = rs.NumShards()
			pf := rs.PrefilterStats()
			tc.Prefilter = &pf
			br := rs.BuildReport()
			tc.Build = &br
		}
		if tb := h.tenantBudgetIfAny(name); tb != nil {
			tc.TableBudget = budgetCounts(tb)
		}
		reply.Tenants[name] = tc
	}
	return reply
}

// HandlerOption configures NewHandler.
type HandlerOption func(*handlerConfig)

type handlerConfig struct {
	profiling    bool
	maxRuleBytes int64
	maxScanBytes int64
	slowLog      *slog.Logger
	slowScan     time.Duration
}

// WithRuleBodyLimit caps the size of rule-upload request bodies
// (PUT /v1/tenants/{name}); larger uploads get 413. n <= 0 keeps
// DefaultMaxRuleBytes.
func WithRuleBodyLimit(n int64) HandlerOption {
	return func(c *handlerConfig) {
		if n > 0 {
			c.maxRuleBytes = n
		}
	}
}

// WithScanBodyLimit caps the size of scan request bodies
// (POST /v1/tenants/{name}/scan); larger payloads get 413 after the
// allowed prefix has streamed through. n <= 0 keeps
// DefaultMaxScanBytes.
func WithScanBodyLimit(n int64) HandlerOption {
	return func(c *handlerConfig) {
		if n > 0 {
			c.maxScanBytes = n
		}
	}
}

// WithSlowScanLog makes the scan handler log one structured record for
// every request whose total wall time reaches threshold: the tenant,
// generation, size, and a per-stage breakdown (body read vs matching,
// chunk count, engine compose time, prefilter skip counts) — enough to
// tell a slow client from a slow rule set from budget thrash without a
// profiler. threshold <= 0 logs every scan; a nil logger disables.
func WithSlowScanLog(logger *slog.Logger, threshold time.Duration) HandlerOption {
	return func(c *handlerConfig) {
		c.slowLog = logger
		c.slowScan = threshold
	}
}

// WithProfiling mounts the Go /debug/pprof/* endpoints on the handler.
// Off by default: profiles can burn CPU on demand and heap dumps expose
// resident tenant rules and payload fragments, so on a multi-tenant
// server they belong behind an operator flag (sfaserve -pprof) or a
// separate private listener, never on the public scan API unasked.
func WithProfiling() HandlerOption {
	return func(c *handlerConfig) { c.profiling = true }
}

// NewHandler builds the HTTP API over a hub.
func NewHandler(h *Hub, opts ...HandlerOption) http.Handler {
	cfg := handlerConfig{
		maxRuleBytes: DefaultMaxRuleBytes,
		maxScanBytes: DefaultMaxScanBytes,
	}
	for _, o := range opts {
		o(&cfg)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		if wantsProm(r) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			writeProm(w, h)
			return
		}
		writeJSON(w, http.StatusOK, metricsReply(h))
	})
	mux.HandleFunc("GET /debug/scans", func(w http.ResponseWriter, r *http.Request) {
		n := 64
		if q := r.URL.Query().Get("n"); q != "" {
			v, err := strconv.Atoi(q)
			if err != nil || v <= 0 {
				httpError(w, http.StatusBadRequest, fmt.Errorf("bad n %q", q))
				return
			}
			n = v
		}
		fl := h.Flight()
		recs := fl.Snapshot(n)
		if recs == nil {
			recs = []sfa.ScanRecord{}
		}
		writeJSON(w, http.StatusOK, FlightReply{Capacity: fl.Cap(), Records: recs})
	})
	mux.HandleFunc("GET /debug/attribution", func(w http.ResponseWriter, r *http.Request) {
		top := 20
		if q := r.URL.Query().Get("top"); q != "" {
			v, err := strconv.Atoi(q)
			if err != nil || v < 0 {
				httpError(w, http.StatusBadRequest, fmt.Errorf("bad top %q", q))
				return
			}
			top = v
		}
		reply := AttributionReply{Tenants: map[string]TenantAttribution{}}
		for _, name := range h.Names() {
			b, ok := h.Tenant(name)
			if !ok {
				continue
			}
			rs, gen := b.Snapshot()
			ta := TenantAttribution{Generation: gen, Speculation: rs.SpeculationReport()}
			for i, sh := range rs.Shards() {
				ta.Shards = append(ta.Shards, ShardAttribution{
					Shard:       i,
					Rules:       len(sh.Rules),
					Layout:      sh.Layout,
					Prefilter:   sh.Prefilter,
					Lazy:        sh.Lazy,
					ComposeNs:   sh.ComposeNs,
					ScanChunks:  sh.ScanChunks,
					ScanBytes:   sh.ScanBytes,
					CandWindows: sh.CandWindows,
				})
			}
			heat := rs.RuleHeat()
			if len(heat) > top {
				ta.RuleHeatOmitted = len(heat) - top
				heat = heat[:top]
			}
			if heat == nil {
				heat = []sfa.RuleHeat{}
			}
			ta.RuleHeat = heat
			reply.Tenants[name] = ta
		}
		writeJSON(w, http.StatusOK, reply)
	})
	if cfg.profiling {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	mux.HandleFunc("GET /v1/tenants", func(w http.ResponseWriter, r *http.Request) {
		names := h.Names()
		out := make([]TenantStatus, 0, len(names))
		for _, name := range names {
			if b, ok := h.Tenant(name); ok {
				out = append(out, status(name, b))
			}
		}
		writeJSON(w, http.StatusOK, out)
	})
	mux.HandleFunc("PUT /v1/tenants/{tenant}", func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("tenant")
		// Rule files are parsed into memory, so an unbounded body is a
		// trivial memory DoS; MaxBytesReader cuts the read off and the
		// parse error below is reported as 413, not 400.
		defs, err := ParseRules(http.MaxBytesReader(w, r.Body, cfg.maxRuleBytes))
		if err != nil {
			code := http.StatusBadRequest
			var mbe *http.MaxBytesError
			if errors.As(err, &mbe) {
				code = http.StatusRequestEntityTooLarge
			}
			httpError(w, code, err)
			return
		}
		created, _, res, err := h.SetRules(name, defs)
		if err != nil {
			httpError(w, http.StatusUnprocessableEntity, err)
			return
		}
		code := http.StatusOK
		if created {
			code = http.StatusCreated
		}
		// Everything in the reply comes from the one ReloadResult, so a
		// racing reload or delete cannot tear it.
		writeJSON(w, code, LoadReply{
			Tenant:        name,
			Created:       created,
			Generation:    res.Generation,
			Rules:         len(defs),
			Shards:        res.Shards,
			ShardsReused:  res.ShardsReused,
			ShardsRebuilt: res.ShardsRebuilt,
			RulesAdded:    res.RulesAdded,
			RulesRemoved:  res.RulesRemoved,
		})
	})
	mux.HandleFunc("GET /v1/tenants/{tenant}", func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("tenant")
		b, ok := h.Tenant(name)
		if !ok {
			httpError(w, http.StatusNotFound, fmt.Errorf("no tenant %q", name))
			return
		}
		writeJSON(w, http.StatusOK, status(name, b))
	})
	mux.HandleFunc("DELETE /v1/tenants/{tenant}", func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("tenant")
		if !h.Delete(name) {
			httpError(w, http.StatusNotFound, fmt.Errorf("no tenant %q", name))
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"deleted": name})
	})
	mux.HandleFunc("POST /v1/tenants/{tenant}/scan", func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("tenant")
		b, ok := h.Tenant(name)
		if !ok {
			httpError(w, http.StatusNotFound, fmt.Errorf("no tenant %q", name))
			return
		}
		st, err := b.NewStream()
		if err != nil {
			httpError(w, http.StatusUnprocessableEntity, err)
			return
		}
		defer st.Close()
		body := http.MaxBytesReader(w, r.Body, cfg.maxScanBytes)
		bufp := scanBufs.Get().(*[]byte)
		defer scanBufs.Put(bufp)
		buf := *bufp
		// Stage timing: readNs is time blocked on the client's body,
		// matchNs is time inside the engine — the split that tells a slow
		// uploader from a slow rule set. The pprof label makes on-CPU
		// samples of this request attributable to the tenant in profiles.
		start := time.Now()
		var readNs, matchNs int64
		var matches []string
		var bad bool
		rpprof.Do(r.Context(), rpprof.Labels("sfa_tenant", name), func(context.Context) {
			for {
				t0 := time.Now()
				n, err := body.Read(buf)
				readNs += time.Since(t0).Nanoseconds()
				if n > 0 {
					t1 := time.Now()
					st.Write(buf[:n])
					matchNs += time.Since(t1).Nanoseconds()
				}
				if err != nil {
					if errors.Is(err, io.EOF) {
						break
					}
					var mbe *http.MaxBytesError
					if errors.As(err, &mbe) {
						httpError(w, http.StatusRequestEntityTooLarge, err)
					} else {
						httpError(w, http.StatusBadRequest, fmt.Errorf("reading body: %w", err))
					}
					bad = true
					return
				}
			}
			t1 := time.Now()
			matches = st.Names()
			matchNs += time.Since(t1).Nanoseconds()
		})
		if bad {
			return
		}
		if matches == nil {
			matches = []string{}
		}
		tm := h.Metrics().Tenant(name)
		tm.Scans.Add(1)
		tm.ScanBytes.Add(st.Bytes())
		tm.ReadNs.Observe(readNs)
		tm.MatchNs.Observe(matchNs)
		ss := st.Stats()
		// Flight recorder: one record per scan, unconditionally — unlike
		// the threshold-gated slow-scan log below, the last N scans are
		// always reconstructible from /debug/scans. Record is wait-free
		// and allocation-free. The stream's ComposeNs measures the whole
		// Write advance; the prefilter share is split out so the record's
		// prefilter/compose columns partition the streaming work.
		h.Flight().Record(sfa.ScanRecord{
			UnixNano:           start.UnixNano(),
			Tenant:             name,
			Generation:         int64(st.Generation()),
			Bytes:              st.Bytes(),
			Chunks:             ss.Chunks,
			ReadNs:             readNs,
			PrefilterNs:        ss.PrefilterNs,
			ComposeNs:          ss.ComposeNs - ss.PrefilterNs,
			MatchNs:            matchNs,
			ShardChunksScanned: ss.ShardChunksScanned,
			ShardChunksSkipped: ss.ShardChunksSkipped,
			Matches:            int64(len(matches)),
		})
		if total := time.Since(start); cfg.slowLog != nil && total >= cfg.slowScan {
			tm.SlowScans.Add(1)
			cfg.slowLog.LogAttrs(r.Context(), slog.LevelWarn, "slow scan",
				slog.String("tenant", name),
				slog.Uint64("generation", st.Generation()),
				slog.Int64("bytes", st.Bytes()),
				slog.Int64("total_ns", total.Nanoseconds()),
				slog.Int64("read_ns", readNs),
				slog.Int64("match_ns", matchNs),
				slog.Int64("chunks", ss.Chunks),
				slog.Int64("compose_ns", ss.ComposeNs),
				slog.Int64("prefilter_ns", ss.PrefilterNs),
				slog.Int64("shard_chunks_scanned", ss.ShardChunksScanned),
				slog.Int64("shard_chunks_skipped", ss.ShardChunksSkipped),
				slog.Int("matches", len(matches)),
			)
		}
		writeJSON(w, http.StatusOK, ScanReply{
			Tenant:     name,
			Generation: st.Generation(),
			Bytes:      st.Bytes(),
			Matches:    matches,
		})
	})
	return mux
}

func status(name string, b *Ruleboard) TenantStatus {
	rs, gen := b.Snapshot() // one load, so stats and generation agree
	infos := rs.Shards()
	shards := make([]ShardStat, len(infos))
	for i, s := range infos {
		shards[i] = ShardStat(s)
	}
	return TenantStatus{
		Tenant:     name,
		Generation: gen,
		Rules:      rs.Len(),
		Shards:     shards,
	}
}

// wantsProm decides the /metrics representation. JSON stays the default
// (the endpoint predates the exposition format and scripts parse it);
// Prometheus is opt-in via ?format=prometheus or an Accept header that
// asks for text/plain or OpenMetrics — which is what a Prometheus
// scraper sends — without naming application/json first.
func wantsProm(r *http.Request) bool {
	switch r.URL.Query().Get("format") {
	case "prometheus", "openmetrics", "text":
		return true
	case "json":
		return false
	}
	accept := r.Header.Get("Accept")
	jsonAt := strings.Index(accept, "application/json")
	for _, marker := range []string{"text/plain", "openmetrics"} {
		if at := strings.Index(accept, marker); at >= 0 && (jsonAt < 0 || at < jsonAt) {
			return true
		}
	}
	return false
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
