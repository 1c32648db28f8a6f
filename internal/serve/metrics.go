package serve

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/multi"
	"repro/internal/obs"
	"repro/internal/snapshot"
	"repro/sfa"
)

// Metrics is the hub's observability state, served by the /metrics
// endpoint: per-tenant traffic and reload counters, the snapshot
// subsystem's warm/cold restore numbers, and the rejected-scan counts.
// Counters are monotonic since process start; per-tenant entries persist
// across tenant deletion (traffic history outlives the rules).
type Metrics struct {
	start time.Time

	mu       sync.Mutex
	tenants  map[string]*TenantMetrics
	rejected map[int]int64 // scans answered with an error status, by code

	warmLoads     atomic.Int64 // tenants restored whole from snapshot
	rebuiltLoads  atomic.Int64 // restored via Rebuild (rule text drifted)
	coldBuilds    atomic.Int64 // restored by compiling rule text
	persistErrors atomic.Int64 // failed state-directory writes
}

// TenantMetrics is one tenant's counters.
type TenantMetrics struct {
	Scans         atomic.Int64
	ScanBytes     atomic.Int64
	Reloads       atomic.Int64
	ShardsReused  atomic.Int64
	ShardsRebuilt atomic.Int64

	// Scan is the tenant's streaming-scan hot-path stats. Every
	// generation of the tenant's rule sets is compiled with
	// WithScanStats pointing here (Hub.tenantOpts), so — like the
	// counters above — the history accumulates across hot reloads and
	// survives delete/re-add.
	Scan obs.ScanStats

	// Per-request scan-handler stage latencies: wall time spent reading
	// the request body versus matching it (Write + mask resolution).
	ReadNs  obs.Histogram
	MatchNs obs.Histogram
	// SlowScans counts requests over the slow-scan threshold
	// (WithSlowScanLog); zero when no threshold is configured.
	SlowScans atomic.Int64
}

func newMetrics() *Metrics {
	return &Metrics{start: time.Now(), tenants: make(map[string]*TenantMetrics), rejected: make(map[int]int64)}
}

// Tenant returns (creating if needed) the named tenant's counters.
func (m *Metrics) Tenant(name string) *TenantMetrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	tm := m.tenants[name]
	if tm == nil {
		tm = &TenantMetrics{}
		m.tenants[name] = tm
	}
	return tm
}

// peek returns the named tenant's counters without registering any:
// the existing ones, or fresh ones for adopt.
func (m *Metrics) peek(name string) *TenantMetrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	if tm := m.tenants[name]; tm != nil {
		return tm
	}
	return &TenantMetrics{}
}

// adopt registers tm as the named tenant's counters unless it has some
// already, and reports whether its counters are tm.
func (m *Metrics) adopt(name string, tm *TenantMetrics) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if cur := m.tenants[name]; cur != nil {
		return cur == tm
	}
	m.tenants[name] = tm
	return true
}

// rejectScan counts one scan request answered with status code.
func (m *Metrics) rejectScan(code int) {
	m.mu.Lock()
	m.rejected[code]++
	m.mu.Unlock()
}

// metricsSnap is the hub's metric state, collected once per /metrics
// request. Both encodings — the JSON document and the Prometheus
// families — read it and nothing else.
type metricsSnap struct {
	start  time.Time
	uptime float64

	warmLoads, rebuiltLoads, coldBuilds, persistErrors int64

	store    *snapshot.Stats  // the shard cache's; nil without a state dir
	budget   *sfa.BudgetStats // the hub-wide table budget's; nil without one
	rejected []codeCount      // by code, ascending
	tenants  []tenantSnap     // by name
	pools    []poolSnap
}

type codeCount struct {
	code int
	n    int64
}

// tenantSnap is one tenant's collected state. Every tenant with
// counters has one — a resident tenant always does (its board registers
// them), and a deleted one keeps its history. The generation fields are
// zero unless resident.
type tenantSnap struct {
	name string

	scans, scanBytes, reloads, shardsReused, shardsRebuilt, slowScans int64

	scan            obs.ScanSnapshot
	readNs, matchNs obs.HistogramSnapshot

	resident      bool
	gen           uint64
	rules, shards int
	tableBytes    int64
	pf            sfa.PrefilterStats
	build         sfa.BuildReport
	lazy          lazyTotals
	infos         []sfa.ShardInfo
	heat          []sfa.RuleHeat // hottest first

	budget *sfa.BudgetStats // the tenant's child table budget; nil when it has none
}

// lazyTotals sums the lazy-shard cache counters across a set's shards.
type lazyTotals struct {
	shards    int
	resident  int64
	fills     int64
	evictions int64
}

// poolSnap pairs one engine pool's label with its stats.
type poolSnap struct {
	label string
	st    engine.PoolStats
}

// collect snapshots the hub's metric state.
func collect(h *Hub) *metricsSnap {
	m := h.Metrics()
	s := &metricsSnap{
		start:         m.start,
		uptime:        time.Since(m.start).Seconds(),
		warmLoads:     m.warmLoads.Load(),
		rebuiltLoads:  m.rebuiltLoads.Load(),
		coldBuilds:    m.coldBuilds.Load(),
		persistErrors: m.persistErrors.Load(),
		pools:         []poolSnap{{"match", engine.DefaultPool().Stats()}, {"build", multi.BuildPoolStats()}},
	}
	if st := h.State(); st != nil {
		cs := st.Cache().Stats()
		s.store = &cs
	}
	if tb := h.TableBudget(); tb != nil {
		bs := tb.Stats()
		s.budget = &bs
	}
	tms := map[string]*TenantMetrics{}
	m.mu.Lock()
	for code, n := range m.rejected {
		s.rejected = append(s.rejected, codeCount{code, n})
	}
	for name, tm := range m.tenants {
		tms[name] = tm
		s.tenants = append(s.tenants, tenantSnap{name: name})
	}
	m.mu.Unlock()
	sort.Slice(s.rejected, func(i, j int) bool { return s.rejected[i].code < s.rejected[j].code })
	sort.Slice(s.tenants, func(i, j int) bool { return s.tenants[i].name < s.tenants[j].name })
	for i := range s.tenants {
		t := &s.tenants[i]
		tm := tms[t.name]
		t.scans, t.scanBytes, t.reloads = tm.Scans.Load(), tm.ScanBytes.Load(), tm.Reloads.Load()
		t.shardsReused, t.shardsRebuilt, t.slowScans = tm.ShardsReused.Load(), tm.ShardsRebuilt.Load(), tm.SlowScans.Load()
		t.scan, t.readNs, t.matchNs = tm.Scan.Snapshot(), tm.ReadNs.Snapshot(), tm.MatchNs.Snapshot()
		if b, ok := h.Tenant(t.name); ok {
			rs, gen := b.Snapshot()
			t.resident, t.gen = true, gen
			t.rules, t.shards = rs.Len(), rs.NumShards()
			t.pf, t.build = rs.PrefilterStats(), rs.BuildReport()
			t.infos, t.heat = rs.Shards(), rs.RuleHeat()
			for _, sh := range t.infos {
				t.tableBytes += sh.TableBytes
				if sh.Lazy {
					t.lazy.shards++
					t.lazy.resident += sh.ResidentBytes
					t.lazy.fills += sh.Fills
					t.lazy.evictions += sh.Evictions
				}
			}
		}
		if tb := h.tenantBudgetIfAny(t.name); tb != nil {
			bs := tb.Stats()
			t.budget = &bs
		}
	}
	return s
}
