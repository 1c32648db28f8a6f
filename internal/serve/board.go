package serve

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/sfa"
)

// generation is one immutable compiled rule set plus the accounting that
// lets a reload retire it safely: streams pin the generation they were
// opened against and release it when closed; once a generation is both
// retired (no longer current) and unpinned, its Drained channel closes.
type generation struct {
	seq       uint64
	defs      []sfa.RuleDef
	rs        *sfa.RuleSet
	inflight  atomic.Int64
	retired   atomic.Bool
	drainDone sync.Once
	drained   chan struct{}
}

func newGeneration(seq uint64, defs []sfa.RuleDef, rs *sfa.RuleSet) *generation {
	return &generation{seq: seq, defs: defs, rs: rs, drained: make(chan struct{})}
}

func (g *generation) maybeDrained() {
	if g.retired.Load() && g.inflight.Load() == 0 {
		g.drainDone.Do(func() { close(g.drained) })
	}
}

func (g *generation) release() {
	g.inflight.Add(-1)
	g.maybeDrained()
}

func (g *generation) retire() {
	g.retired.Store(true)
	g.maybeDrained()
}

// Ruleboard serves one tenant's rule set across hot reloads. All methods
// are safe for concurrent use; reloads are serialized among themselves
// but never block scans — readers always see either the old or the new
// generation, atomically.
type Ruleboard struct {
	mu   sync.Mutex // serializes Reload/initial Load
	gens atomic.Uint64
	cur  atomic.Pointer[generation]
}

// NewRuleboard compiles the initial rule set. opts are fixed for the
// board's lifetime — reuse across generations is only sound when every
// generation is compiled identically.
func NewRuleboard(defs []sfa.RuleDef, opts ...sfa.Option) (*Ruleboard, error) {
	rs, err := sfa.NewRuleSetFromDefs(defs, opts...)
	if err != nil {
		return nil, err
	}
	b := &Ruleboard{}
	b.gens.Store(1)
	b.cur.Store(newGeneration(1, append([]sfa.RuleDef(nil), defs...), rs))
	return b, nil
}

// NewRuleboardFromSet wraps an already-compiled rule set — typically one
// reconstructed from a snapshot by sfa.LoadRuleSet — as generation 1 of
// a fresh board: the warm-restart path pays no compilation at all.
func NewRuleboardFromSet(rs *sfa.RuleSet) *Ruleboard {
	b := &Ruleboard{}
	b.gens.Store(1)
	b.cur.Store(newGeneration(1, rs.Defs(), rs))
	return b
}

// current returns the current generation's definitions and rule set from
// one atomic load (persistence must not pair one generation's defs with
// another's automata).
func (b *Ruleboard) current() ([]sfa.RuleDef, *sfa.RuleSet) {
	g := b.cur.Load()
	return g.defs, g.rs
}

// DrainCurrent marks the current generation retired without replacing
// it and returns its drained channel, which closes once every stream
// and scan in flight against it has finished. Shutdown-only: scans that
// start afterwards still serve correctly, but are no longer counted
// toward the returned channel.
func (b *Ruleboard) DrainCurrent() <-chan struct{} {
	g := b.cur.Load()
	g.retire()
	return g.drained
}

// ReloadResult reports what a Reload did. Drained closes once every
// stream and scan that was in flight against the replaced generation has
// finished — observability for shutdown and for the drain tests; nothing
// waits on it internally. When there was no previous generation (tenant
// creation), Drained is already closed.
type ReloadResult struct {
	sfa.ReloadStats
	Generation uint64
	Shards     int // shard count of the generation this result describes
	Drained    <-chan struct{}
}

// drainedNow is the pre-closed channel creation-path results carry.
var drainedNow = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// Reload atomically replaces the rule set with one compiled from defs,
// rebuilding only the combined shards whose rule membership changed. A
// failed build leaves the current generation serving untouched. Scans
// that started before the swap drain against their own generation; scans
// that start after it see the new rules.
func (b *Ruleboard) Reload(defs []sfa.RuleDef) (ReloadResult, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	old := b.cur.Load()
	rs, stats, err := old.rs.Rebuild(defs)
	if err != nil {
		return ReloadResult{}, err
	}
	seq := b.gens.Add(1)
	b.cur.Store(newGeneration(seq, append([]sfa.RuleDef(nil), defs...), rs))
	old.retire()
	return ReloadResult{
		ReloadStats: stats,
		Generation:  seq,
		Shards:      rs.NumShards(),
		Drained:     old.drained,
	}, nil
}

// Generation returns the current generation number (1 = initial load).
func (b *Ruleboard) Generation() uint64 { return b.cur.Load().seq }

// RuleSet returns the current generation's compiled set — for stats
// reporting only; scans should go through Scan/NewStream so they pin a
// generation.
func (b *Ruleboard) RuleSet() *sfa.RuleSet { return b.cur.Load().rs }

// Snapshot returns the current rule set together with its generation
// number from one atomic load, so callers reporting both cannot pair one
// generation's stats with another's number across a concurrent reload.
func (b *Ruleboard) Snapshot() (*sfa.RuleSet, uint64) {
	g := b.cur.Load()
	return g.rs, g.seq
}

// Defs returns a copy of the current generation's rule definitions.
func (b *Ruleboard) Defs() []sfa.RuleDef {
	g := b.cur.Load()
	return append([]sfa.RuleDef(nil), g.defs...)
}

// pin loads the current generation and marks one scan in flight on it,
// retrying across a concurrent swap so the drain accounting never misses
// a pinned scan: after the increment, either the generation is still
// current (a later retire will wait for the release), or it was swapped
// out in between and the pin is retried on the new one.
func (b *Ruleboard) pin() *generation {
	for {
		g := b.cur.Load()
		g.inflight.Add(1)
		if b.cur.Load() == g {
			return g
		}
		g.release()
	}
}

// Scan matches data against the current generation one-shot and returns
// the matching rule names.
func (b *Ruleboard) Scan(data []byte) []string {
	g := b.pin()
	defer g.release()
	return g.rs.Scan(data, 0)
}

// Stream is a RuleStream pinned to the generation it was opened against:
// a hot reload mid-scan neither drops nor corrupts it — the stream keeps
// matching the rules it started with, and the old generation counts it
// until Close.
type Stream struct {
	*sfa.RuleStream
	gen   *generation
	close sync.Once
}

// Generation returns the generation this stream is pinned to.
func (s *Stream) Generation() uint64 { return s.gen.seq }

// Names resolves the stream's current mask against its own generation's
// rule names (the pinned set, not whatever is current now).
func (s *Stream) Names() []string { return s.Matches() }

// Close releases the stream's pin on its generation. It is safe to call
// more than once; the stream must not be written after Close.
func (s *Stream) Close() {
	s.close.Do(s.gen.release)
}

// NewStream opens a streaming scan against the current generation. The
// caller must Close it (a deferred Close is the usual shape) so retired
// generations can report drained.
func (b *Ruleboard) NewStream() (*Stream, error) {
	g := b.pin()
	st, err := g.rs.NewStream()
	if err != nil {
		g.release()
		return nil, err
	}
	return &Stream{RuleStream: st, gen: g}, nil
}

// Hub hosts many named tenants, each an independently reloadable
// Ruleboard. Every tenant's engines dispatch through the process-wide
// engine worker pool, so resident tenants share one set of workers.
type Hub struct {
	opts    []sfa.Option
	metrics *Metrics
	state   *State // nil = no persistence
	mu      sync.RWMutex
	tenants map[string]*Ruleboard

	// budget is the hub-wide table budget lazily compiled tenants charge
	// (nil = default process budget); each tenant gets a Child bounded by
	// tenantLimit, created on first use and kept across reloads so warm
	// lazy state survives a rules update.
	budget      *sfa.TableBudget
	tenantLimit int64
	bmu         sync.Mutex
	budgets     map[string]*sfa.TableBudget

	// flight is the always-on scan flight recorder: the scan handler
	// records one ScanRecord per request, /debug/scans reads the last N.
	// Recording is wait-free and allocation-free, so it stays on at any
	// scan rate; SetFlightRecords resizes or disables it.
	flight *sfa.FlightRecorder
}

// DefaultFlightRecords is the number of scan records the hub's flight
// recorder retains unless SetFlightRecords overrides it. 256 records ×
// ~150 bytes is a fixed ~40 KiB — cheap enough to keep always on.
const DefaultFlightRecords = 256

// NewHub creates an empty hub; opts apply to every tenant's rule sets.
func NewHub(opts ...sfa.Option) *Hub {
	return &Hub{
		opts:    opts,
		metrics: newMetrics(),
		tenants: make(map[string]*Ruleboard),
		flight:  sfa.NewFlightRecorder(DefaultFlightRecords),
	}
}

// SetFlightRecords resizes the scan flight recorder to retain the last
// n records (rounded up to a power of two); n <= 0 disables recording.
// Call before serving, like SetState — the ring is swapped whole, not
// migrated, so earlier records are dropped.
func (h *Hub) SetFlightRecords(n int) {
	h.flight = sfa.NewFlightRecorder(n)
}

// Flight returns the hub's scan flight recorder. It is nil when
// recording is disabled — which the recorder's own methods tolerate, so
// callers may use the result unconditionally.
func (h *Hub) Flight() *sfa.FlightRecorder { return h.flight }

// SetTableBudget routes every tenant's lazy shards (WithLazyCompile)
// through per-tenant children of b: a tenant may charge at most
// perTenantLimit bytes (<= 0 = only the hub-wide limit binds), and all
// tenants together at most b's limit. Call before any tenant exists,
// like SetState — boards compiled earlier keep charging the budget the
// compile saw.
func (h *Hub) SetTableBudget(b *sfa.TableBudget, perTenantLimit int64) {
	h.budget = b
	h.tenantLimit = perTenantLimit
	h.budgets = make(map[string]*sfa.TableBudget)
}

// TableBudget returns the hub-wide budget, nil when none was set.
func (h *Hub) TableBudget() *sfa.TableBudget { return h.budget }

// tenantOpts returns the compile options for a new board of name: the
// hub options plus the tenant's scan-stats sink (so every generation
// records into the same per-tenant history) and, under SetTableBudget,
// the tenant's child budget — the ones a deleted tenant of that name
// left, or fresh ones. Nothing is registered until adopt, which the
// caller runs under h.mu as it registers the built board, so a failed
// create leaves no metrics row and no budget node behind. adopt reports
// false when a concurrent create registered other ones first (the name
// was created and deleted again meanwhile); the board is then built
// again.
func (h *Hub) tenantOpts(name string) (opts []sfa.Option, adopt func() bool) {
	tm := h.metrics.peek(name)
	opts = make([]sfa.Option, 0, len(h.opts)+2)
	opts = append(opts, h.opts...)
	opts = append(opts, sfa.WithScanStats(&tm.Scan))
	tb := h.tenantBudgetIfAny(name)
	if h.budget != nil && tb == nil {
		tb = h.budget.Child(h.tenantLimit)
	}
	if tb != nil {
		opts = append(opts, sfa.WithTableBudget(tb))
	}
	return opts, func() bool {
		if !h.metrics.adopt(name, tm) {
			return false
		}
		if tb == nil {
			return true
		}
		// The child survives tenant deletion — like the tenant's metrics
		// entry, and so a recreated tenant cannot escape its bound by
		// cycling.
		h.bmu.Lock()
		defer h.bmu.Unlock()
		if cur := h.budgets[name]; cur != nil {
			return cur == tb
		}
		h.budgets[name] = tb
		return true
	}
}

// tenantBudgetIfAny returns the named tenant's child budget, nil when
// the hub has no budget or the tenant never had a board.
func (h *Hub) tenantBudgetIfAny(name string) *sfa.TableBudget {
	h.bmu.Lock()
	defer h.bmu.Unlock()
	return h.budgets[name]
}

// Metrics returns the hub's counters (the /metrics endpoint's source).
func (h *Hub) Metrics() *Metrics { return h.metrics }

// State returns the hub's persistence root, nil when none is set.
func (h *Hub) State() *State { return h.state }

// SetState wires a persistence directory into the hub: every successful
// SetRules/Delete is mirrored there, and the state's shard cache is
// appended to the compile options so even rebuilt shards warm from disk.
// Call before any tenant exists (boards compiled without the cache
// option could not be reused across a Reload with it).
func (h *Hub) SetState(st *State) {
	h.state = st
	h.opts = append(h.opts, sfa.WithShardCache(st.Cache().Dir()))
}

// persistTenant mirrors a board's current generation to the state
// directory, best-effort: serving stays up even if the disk does not.
//
// Persistence runs outside h.mu (builds and disk writes must not stall
// other tenants' lookups), so it re-verifies under the state lock that
// b is still the registered board: a SetRules whose persist raced a
// Delete (or a replacing creator) must not resurrect files the winner
// removed — whoever owns the registration owns the files. Delete's file
// removal re-checks symmetrically, so every file operation reflects the
// registration map as of its own critical section.
func (h *Hub) persistTenant(name string, b *Ruleboard) {
	st := h.state
	if st == nil {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	h.mu.RLock()
	cur := h.tenants[name]
	h.mu.RUnlock()
	if cur != b {
		return
	}
	defs, rs := b.current()
	if err := st.saveTenantLocked(name, defs, rs); err != nil {
		h.metrics.persistErrors.Add(1)
	}
}

// PersistAll re-mirrors every resident tenant (the shutdown path's final
// sync; each SetRules already persisted on its way in).
func (h *Hub) PersistAll() {
	h.mu.RLock()
	boards := make(map[string]*Ruleboard, len(h.tenants))
	for name, b := range h.tenants {
		boards[name] = b
	}
	h.mu.RUnlock()
	for name, b := range boards {
		h.persistTenant(name, b)
	}
}

// Restore loads every tenant persisted in the hub's state directory,
// preferring the snapshot (warm: no compilation), falling back to a
// Rebuild from the snapshot when the rules file was edited offline
// (partial warm: shard reuse + shard cache), and to a cold compile of
// the rules text when no snapshot survives. Call once, before serving.
func (h *Hub) Restore() (RestoreStats, error) {
	var stats RestoreStats
	if h.state == nil {
		return stats, nil
	}
	names, err := h.state.Tenants()
	if err != nil {
		return stats, err
	}
	for _, name := range names {
		fileDefs, snap := h.state.LoadTenant(name)
		opts, adopt := h.tenantOpts(name)
		board := h.restoreBoard(opts, fileDefs, snap, &stats)
		if board == nil {
			stats.Failed = append(stats.Failed, name)
			continue
		}
		h.mu.Lock()
		if h.tenants[name] == nil && adopt() {
			h.tenants[name] = board
			stats.Tenants++
		}
		h.mu.Unlock()
	}
	return stats, nil
}

// restoreBoard materializes one tenant from its persisted artifacts.
func (h *Hub) restoreBoard(opts []sfa.Option, fileDefs []sfa.RuleDef, snap []byte, stats *RestoreStats) *Ruleboard {
	if snap != nil {
		rs, err := sfa.LoadRuleSet(bytes.NewReader(snap), opts...)
		if err == nil {
			if fileDefs == nil || defsEqual(fileDefs, rs.Defs()) {
				h.metrics.warmLoads.Add(1)
				stats.Warm++
				return NewRuleboardFromSet(rs)
			}
			// Rules text edited while the server was down: treat it as a
			// hot reload against the snapshot generation.
			if next, _, err := rs.Rebuild(fileDefs); err == nil {
				h.metrics.rebuiltLoads.Add(1)
				stats.Rebuilt++
				return NewRuleboardFromSet(next)
			}
		}
	}
	if fileDefs != nil {
		if b, err := NewRuleboard(fileDefs, opts...); err == nil {
			h.metrics.coldBuilds.Add(1)
			stats.Cold++
			return b
		}
	}
	return nil
}

// RestoreStats reports what Restore did.
type RestoreStats struct {
	Tenants int      // boards registered
	Warm    int      // restored whole from snapshot, zero compilation
	Rebuilt int      // snapshot + Rebuild (rules file drifted)
	Cold    int      // compiled from rules text
	Failed  []string // tenants with no usable artifacts
}

// Drain retires every tenant's current generation and waits (bounded by
// ctx) until all in-flight streamed scans against them have finished —
// the generation-pinning half of graceful shutdown; stop the listener
// first so no new scans arrive.
func (h *Hub) Drain(ctx context.Context) error {
	h.mu.RLock()
	boards := make([]*Ruleboard, 0, len(h.tenants))
	for _, b := range h.tenants {
		boards = append(boards, b)
	}
	h.mu.RUnlock()
	for _, b := range boards {
		select {
		case <-b.DrainCurrent():
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// SetRules creates the named tenant or hot-reloads an existing one.
// created reports which happened; for a reload, res carries the reuse
// stats. The returned board is the one the rules were applied to — use
// it rather than a fresh Tenant lookup, which can observe a concurrent
// Delete.
//
// Compilation runs outside the hub lock — builds can take seconds and
// must not stall other tenants' lookups — so membership is re-verified
// under the write lock afterwards: a reload that raced a Delete
// re-registers its board (the PUT wins — its rules really are live),
// and a creator or reloader that lost to a concurrent writer retries
// against the winner instead of reporting success for a dropped update.
func (h *Hub) SetRules(name string, defs []sfa.RuleDef) (created bool, board *Ruleboard, res ReloadResult, err error) {
	if name == "" {
		return false, nil, ReloadResult{}, fmt.Errorf("serve: empty tenant name")
	}
	for {
		h.mu.RLock()
		b := h.tenants[name]
		h.mu.RUnlock()

		if b == nil {
			opts, adopt := h.tenantOpts(name)
			nb, err := NewRuleboard(defs, opts...)
			if err != nil {
				return false, nil, ReloadResult{}, err
			}
			h.mu.Lock()
			if h.tenants[name] != nil || !adopt() {
				// Lost a create race; apply to the winner as a reload
				// (or, if it came and went, build against its history).
				h.mu.Unlock()
				continue
			}
			h.tenants[name] = nb
			h.mu.Unlock()
			h.persistTenant(name, nb)
			return true, nb, ReloadResult{
				Generation: 1,
				Shards:     nb.RuleSet().NumShards(),
				Drained:    drainedNow,
			}, nil
		}

		res, err := b.Reload(defs)
		if err != nil {
			return false, b, ReloadResult{}, err
		}
		tm := h.metrics.Tenant(name)
		tm.Reloads.Add(1)
		tm.ShardsReused.Add(int64(res.ShardsReused))
		tm.ShardsRebuilt.Add(int64(res.ShardsRebuilt))
		h.mu.Lock()
		switch h.tenants[name] {
		case b:
			h.mu.Unlock()
			h.persistTenant(name, b)
			return false, b, res, nil
		case nil:
			// Deleted mid-reload: keep the reloaded board registered.
			h.tenants[name] = b
			h.mu.Unlock()
			h.persistTenant(name, b)
			return false, b, res, nil
		default:
			// Replaced mid-reload by a concurrent creator: retry there.
			h.mu.Unlock()
		}
	}
}

// Tenant returns the named tenant's board.
func (h *Hub) Tenant(name string) (*Ruleboard, bool) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	b, ok := h.tenants[name]
	return b, ok
}

// Delete removes a tenant (and its persisted state). In-flight scans on
// it drain against their pinned generations; new lookups fail
// immediately.
func (h *Hub) Delete(name string) bool {
	h.mu.Lock()
	if _, ok := h.tenants[name]; !ok {
		h.mu.Unlock()
		return false
	}
	delete(h.tenants, name)
	h.mu.Unlock()
	if st := h.state; st != nil {
		st.mu.Lock()
		h.mu.RLock()
		_, reregistered := h.tenants[name]
		h.mu.RUnlock()
		if !reregistered {
			// Only remove files while the name is actually unregistered;
			// a concurrent creator that re-registered in the window owns
			// them now (see persistTenant).
			st.deleteTenantLocked(name)
		}
		st.mu.Unlock()
	}
	return true
}

// Names lists the tenants in sorted order.
func (h *Hub) Names() []string {
	h.mu.RLock()
	defer h.mu.RUnlock()
	out := make([]string, 0, len(h.tenants))
	for name := range h.tenants {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
