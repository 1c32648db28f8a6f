package multi

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
)

// shard is one combined automaton covering a subset of the rules.
// Local mask bit i of the shard's matcher corresponds to global rule
// index rules[i]. The engine is eager (table-backed engine.MultiSFA)
// or lazy (engine.LazyMultiSFA, budgeted); see shardEngine.
type shard struct {
	m     shardEngine
	rules []int
}

// Set matches a whole rule set with one pooled pass per shard. It is
// safe for concurrent use: per-Scan scratch is recycled through a
// sync.Pool of contexts.
type Set struct {
	shards []*shard
	rules  int
	words  int // global mask words, maskWords(rules)
	// planShards is the shard count the last *full* plan produced —
	// Recompile's consolidation baseline: incremental reloads may only
	// grow the count so far past it before a full replan is forced.
	planShards int
	// pre is the armed literal prefilter, nil when compiled without one
	// (see prefilter.go). It is set before the set is published and
	// never mutated afterwards, so scans read it without synchronization.
	pre *setPre
	// lock walks any selection of the shards over the same bytes in one
	// lock-step pass (engine.Lockstep; lazy and otherwise ineligible
	// shards fall back to their own walk inside it).
	lock *engine.Lockstep
	// carry lists the shards that see every input byte: one-shot scans
	// walk them over the whole input, streams advance them by carried
	// mapping. Every shard without a prefilter; the full and gate shards
	// with one (armPrefilter).
	carry []int
	ctxs  sync.Pool
	// report is the structured account of the build that produced this
	// set (see BuildReport). Written once before publication.
	report BuildReport
	// stats, when non-nil (Options.Stats), aggregates streaming scan
	// measurements across every stream of this set: one RecordChunk per
	// SetStream.Write, regardless of how many shards the prefilter let
	// skip the chunk. Written once before publication.
	stats *obs.ScanStats
	// heat counts, per global rule index, how many verdicts reported the
	// rule as matched — accumulated allocation-free on the verdict path
	// (Scan and SetStream.Mask) by popping the result mask's bits. Like
	// the rest of the set's state it lives for one generation; reloads
	// start a fresh table.
	heat []atomic.Int64
	// pool carries Scan's block-level fan-out (Options.Pool, default
	// engine.DefaultPool). Chunk parallelism inside a pass uses the same
	// pool via each shard engine's own wiring.
	pool *engine.Pool
}

func newSet(shards []*shard, rules int, pool *engine.Pool) *Set {
	if pool == nil {
		pool = engine.DefaultPool()
	}
	s := &Set{shards: shards, rules: rules, words: maskWords(rules), heat: make([]atomic.Int64, rules), pool: pool}
	engines := make([]engine.ShardEngine, len(shards))
	s.carry = make([]int, len(shards))
	for i, sh := range shards {
		engines[i] = sh.m
		s.carry[i] = i
	}
	s.lock = engine.NewLockstep(engines)
	s.ctxs.New = func() any {
		c := &scanCtx{
			gate: make([]bool, len(shards)),
			sel:  make([]int, 0, len(shards)),
		}
		c.win.init(s)
		c.win.acc = make([][]uint64, len(shards))
		for i, sh := range shards {
			c.win.acc[i] = make([]uint64, maskWords(len(sh.rules)))
		}
		return c
	}
	return s
}

// scanCtx carries one Scan's scratch, recycled through the set's pool:
// the per-shard result masks (win.acc — window shards accumulate into
// theirs block by block, every other shard's is written once), the
// block driver's state, the gate flags, and the selection of shards
// walked over the whole input.
type scanCtx struct {
	win  winState
	gate []bool
	sel  []int
}

// reset clears what a previous scan left behind.
func (c *scanCtx) reset() {
	for _, m := range c.win.acc {
		clear(m)
	}
	clear(c.gate)
}

// NumRules returns the number of rules the set was compiled from.
func (s *Set) NumRules() int { return s.rules }

// NumShards returns the number of combined shards.
func (s *Set) NumShards() int { return len(s.shards) }

// Words returns the result bitmask width in uint64 words.
func (s *Set) Words() int { return s.words }

// Scan matches every rule against data and writes the global bitmask —
// bit r set iff rule r matches — into dst, which must have Words()
// capacity; dst[:Words()] is returned. Window shards of a prefiltered
// set consume the input in scanBlock pieces through the block driver
// (prefilter.go); every shard that must see the whole input — all of
// them without a prefilter, else the full shards and the gate shards a
// literal opened — is walked in one lock-step pass, chunk-parallel on
// the engine pool by the set's thread count. workers = 1 runs the blocks
// in order on the calling goroutine, the zero-allocation form; any other
// value fans them out over up to that many pool workers (0 = all of
// them; never fresh goroutines) at the cost of a few small allocations.
func (s *Set) Scan(data []byte, workers int, dst []uint64) []uint64 {
	dst = dst[:s.words]
	clear(dst)
	if workers <= 0 || workers > s.pool.Workers() {
		workers = s.pool.Workers()
	}
	c := s.ctxs.Get().(*scanCtx)
	c.reset()
	p := s.pre
	if p.active() {
		s.scanBlocks(c, data, workers)
	}
	c.sel = c.sel[:0]
	for _, i := range s.carry {
		if p.active() && p.shards[i].mode == preGate {
			p.totalBytes.Add(int64(len(data)))
			if !c.gate[i] {
				p.shardsSkipped.Add(1)
				continue
			}
			p.candBytes.Add(int64(len(data)))
		}
		c.sel = append(c.sel, i)
	}
	s.lock.MatchMasks(c.sel, data, c.win.acc)
	for i, sh := range s.shards {
		if p != nil && p.shards[i].mode == prePrefix {
			// Begin-anchored shard: the verdict is decided by the first
			// maxLen bytes (occurrences start at byte 0 and the trailing .*
			// bracket absorbs the rest).
			k := min(p.shards[i].maxLen, len(data))
			p.totalBytes.Add(int64(len(data)))
			p.candBytes.Add(int64(k))
			start := time.Now()
			sh.m.MatchMask(data[:k], c.win.acc[i])
			sh.charge(start, k)
		}
		sh.merge(dst, c.win.acc[i])
	}
	s.ctxs.Put(c)
	s.recordHeat(dst)
	return dst
}

// scanBlocks runs the block driver over data: in order on the calling
// goroutine, or — blocks of a one-shot scan are independent, each
// reaching into its neighbours' bytes rather than their state — on up
// to `workers` pool workers, each with its own context, OR-reduced into
// c afterwards (window verdicts and gate flags are both ORs).
func (s *Set) scanBlocks(c *scanCtx, data []byte, workers int) {
	size := scanBlock
	if p := s.lock.Threads(); p > 1 {
		size = p * scanBlockPerThread
	}
	blocks := (len(data) + size - 1) / size
	if workers = min(workers, blocks); workers < 2 {
		for b := 0; b < blocks; b++ {
			s.scanBlock(c, data, b*size, size)
		}
		return
	}
	ctxs := make([]*scanCtx, workers)
	ctxs[0] = c
	for w := 1; w < workers; w++ {
		ctxs[w] = s.ctxs.Get().(*scanCtx)
		ctxs[w].reset()
	}
	var next atomic.Int64
	s.pool.Map(workers, func(w int) {
		for b := int(next.Add(1)) - 1; b < blocks; b = int(next.Add(1)) - 1 {
			s.scanBlock(ctxs[w], data, b*size, size)
		}
	})
	for _, o := range ctxs[1:] {
		for _, i := range s.pre.win {
			for j, bits := range o.win.acc[i] {
				c.win.acc[i][j] |= bits
			}
		}
		for _, g := range s.pre.gates {
			c.gate[g] = c.gate[g] || o.gate[g]
		}
		s.ctxs.Put(o)
	}
}

// scanBlock hands the block of data at lo to the block driver: no tail
// and no waiting ahead, since every byte a window can reach is in data.
func (s *Set) scanBlock(c *scanCtx, data []byte, lo, size int) {
	s.pre.block(s, &c.win, c.gate, nil, data, lo, min(lo+size, len(data)), 0)
}

// recordHeat pops the set bits of a just-computed global verdict mask
// into the per-rule heat table: one atomic add per matched rule, no
// allocation, nothing at all on the (typical) all-zero mask.
func (s *Set) recordHeat(mask []uint64) {
	for w, v := range mask {
		for v != 0 {
			r := w<<6 + bits.TrailingZeros64(v)
			if r < len(s.heat) {
				s.heat[r].Add(1)
			}
			v &= v - 1
		}
	}
}

// RuleHeat returns a copy of the per-rule match counts, indexed by
// global rule index: how many verdict computations (one-shot Scans and
// stream Mask reads) reported each rule matched since the set was
// built. The table resets with the set — a hot reload starts fresh.
func (s *Set) RuleHeat() []int64 {
	out := make([]int64, len(s.heat))
	for i := range s.heat {
		out[i] = s.heat[i].Load()
	}
	return out
}

// merge translates a shard-local result mask into global rule bits.
func (sh *shard) merge(dst, local []uint64) {
	for i, r := range sh.rules {
		if local[i>>6]&(1<<(i&63)) != 0 {
			dst[r>>6] |= 1 << (r & 63)
		}
	}
}

// Any reports whether any rule matches, scanning shards sequentially
// with an early exit (each shard's pass is still chunk-parallel).
func (s *Set) Any(data []byte) bool {
	for _, sh := range s.shards {
		start := time.Now()
		ok := sh.m.Match(data)
		sh.charge(start, len(data))
		if ok {
			return true
		}
	}
	return false
}

// charge books one direct walk of n bytes by the shard's engine, begun at
// start, to its cost account — engines read no clock of their own, so
// the caller that walks one outside a lock-step pass times it.
func (sh *shard) charge(start time.Time, n int) {
	sh.m.Charge(engine.Cost{Ns: time.Since(start).Nanoseconds(), Chunks: 1, Bytes: int64(n)})
}

// ShardInfo describes one shard for stats reporting.
type ShardInfo struct {
	Rules      []int // global rule indices
	DFAStates  int   // combined minimal DFA (live states); lazy: Σ|Di|
	SFAStates  int   // combined D-SFA (live states); lazy: resident states
	Layout     string
	TableBytes int64
	BuildID    uint64 // engine construction id; stable across shard reuse
	// Prefilter is the shard's scan mode under the literal cascade:
	// "window", "prefix", "gate", "full", or "off" when the set has no
	// prefilter.
	Prefilter string
	// Lazy marks a shard whose product states are built on demand under
	// the table budget; the remaining fields are its cache counters.
	Lazy          bool
	ResidentBytes int64 // bytes currently charged to the table budget
	Fills         int64 // states materialized since build
	Evictions     int64 // whole-structure resets under budget pressure
	// HotStates is the shard's chunk-boundary state frequency table
	// (descending), populated only when the set scans with an attached
	// ScanStats; HotOther counts boundary crossings the fixed-size table
	// could not attribute.
	HotStates []obs.StateCount
	HotOther  int64
	// Always-on cost attribution: time and traffic this shard's engine
	// consumed. Engines are reused across hot reloads, so the account
	// spans the engine's lifetime, not just the current generation.
	ComposeNs   int64 // ns composing chunks / one-shot scans
	ScanChunks  int64 // chunks + one-shot scans that reached the automaton
	ScanBytes   int64 // bytes the engine actually walked
	CandWindows int64 // prefilter candidate windows verified
}

// Shards reports per-shard statistics.
func (s *Set) Shards() []ShardInfo {
	out := make([]ShardInfo, len(s.shards))
	for i, sh := range s.shards {
		rules := make([]int, len(sh.rules))
		copy(rules, sh.rules)
		inf := sh.m.Info()
		out[i] = ShardInfo{
			Rules:         rules,
			DFAStates:     inf.DFAStates,
			SFAStates:     inf.SFAStates,
			Layout:        inf.Layout,
			TableBytes:    inf.TableBytes,
			BuildID:       sh.m.BuildID(),
			Prefilter:     s.shardPrefilterMode(i),
			Lazy:          inf.Lazy,
			ResidentBytes: inf.ResidentBytes,
			Fills:         inf.Fills,
			Evictions:     inf.Evictions,
			HotStates:     inf.HotStates,
			HotOther:      inf.HotOther,
			ComposeNs:     inf.ComposeNs,
			ScanChunks:    inf.ScanChunks,
			ScanBytes:     inf.ScanBytes,
			CandWindows:   inf.CandWindows,
		}
	}
	return out
}

// shardPrefilterMode names shard i's prefilter scan mode.
func (s *Set) shardPrefilterMode(i int) string {
	if s.pre == nil {
		return "off"
	}
	switch s.pre.shards[i].mode {
	case preWindow:
		return "window"
	case prePrefix:
		return "prefix"
	case preGate:
		return "gate"
	}
	return "full"
}

// TableBytes returns the total resident size of all shards' match
// tables.
func (s *Set) TableBytes() int64 {
	var n int64
	for _, sh := range s.shards {
		n += sh.m.TableBytes()
	}
	return n
}
