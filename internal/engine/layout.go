package engine

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/nfa"
	"repro/internal/obs"
)

// TableLayout selects the physical transition-table layout an engine
// matches through. The per-byte work is identical in all layouts (one
// load, as the paper's cost model requires); what changes is the resident
// bytes per state and therefore how much of the automaton each cache
// level holds — the axis Fig. 8 studies.
type TableLayout int

const (
	// LayoutAuto picks the narrowest 256-wide entry width that can hold
	// every state id: u8 for ≤ 256 states, u16 for ≤ 65 536, i32 beyond.
	LayoutAuto TableLayout = iota
	// LayoutU8 is the 256 B-per-state uint8 table.
	LayoutU8
	// LayoutU16 is the 512 B-per-state uint16 table.
	LayoutU16
	// LayoutI32 is the paper's 1 KB-per-state int32 table (the seed
	// engine's only wide layout).
	LayoutI32
	// LayoutClass matches through the byte-class-compressed table:
	// smallest footprint, one extra indirection per byte (ablation A2).
	LayoutClass
)

func (l TableLayout) String() string {
	switch l {
	case LayoutAuto:
		return "auto"
	case LayoutU8:
		return "u8"
	case LayoutU16:
		return "u16"
	case LayoutI32:
		return "i32"
	case LayoutClass:
		return "class"
	}
	return fmt.Sprintf("TableLayout(%d)", int(l))
}

// ParseLayout converts a -layout flag value into a TableLayout.
func ParseLayout(s string) (TableLayout, error) {
	switch s {
	case "auto", "":
		return LayoutAuto, nil
	case "u8":
		return LayoutU8, nil
	case "u16":
		return LayoutU16, nil
	case "i32", "tab256":
		return LayoutI32, nil
	case "class", "tabclass":
		return LayoutClass, nil
	}
	return LayoutAuto, fmt.Errorf("engine: unknown table layout %q (want auto|u8|u16|i32|class)", s)
}

// resolveLayout maps LayoutAuto to the narrowest width that fits n states
// and widens an explicit request that cannot hold them.
func resolveLayout(l TableLayout, n int) TableLayout {
	switch l {
	case LayoutClass, LayoutI32:
		return l
	case LayoutU8:
		if core.FitsU8(n) {
			return LayoutU8
		}
	case LayoutU16:
		// widened below if needed
	default: // LayoutAuto
		if core.FitsU8(n) {
			return LayoutU8
		}
	}
	if core.FitsU16(n) {
		return LayoutU16
	}
	return LayoutI32
}

// engineOpts collects the construction options shared by the parallel
// engines.
type engineOpts struct {
	layout  TableLayout
	spawn   bool
	pool    *Pool
	buildID uint64
	stats   *obs.ScanStats
}

// Option configures a parallel engine at construction.
type Option func(*engineOpts)

// WithLayout selects the transition-table layout (default LayoutAuto).
func WithLayout(l TableLayout) Option {
	return func(o *engineOpts) { o.layout = l }
}

// WithSpawn restores the seed behaviour of creating fresh goroutines on
// every Match. The paper's Fig. 10 measurement explicitly includes thread
// creation ("the execution times of the parallel computation includes the
// creation of threads and the reduction"), so the spawning path stays
// available for that reproduction; everything else should prefer the
// default pooled path.
func WithSpawn() Option { return func(o *engineOpts) { o.spawn = true } }

// WithPool runs matches on the given persistent pool instead of the
// process-wide DefaultPool.
func WithPool(p *Pool) Option { return func(o *engineOpts) { o.pool = p } }

// WithBuildID overrides the engine's construction id (normally a small
// process-sequential number issued by buildSeq). Snapshot warm loads use
// it to adopt the persisted content-derived id — which always carries the
// top bit, so adopted ids can never collide with sequential ones — making
// "this automaton was decoded from disk, not rebuilt" observable through
// ShardInfo.BuildID across process restarts. 0 keeps the sequential id.
func WithBuildID(id uint64) Option { return func(o *engineOpts) { o.buildID = id } }

// WithScanStats turns on the eager engine's streaming instrumentation:
// each ComposeChunk records the chunk-boundary DFA state into a
// frequency table (ShardInfo.HotStates — the concentration measurement
// Ko-style speculative chunk matching needs). Chunk latency and size
// aggregates are recorded by the caller that owns the chunking (multi's
// SetStream), not here, so they count stream writes rather than
// per-shard engine visits. Recording uses only lock-free obs
// primitives, so the streaming hot path stays at 0 allocs/op with
// stats enabled (TestInstrumentedStreamZeroAlloc gates it). Nil
// disables instrumentation (the default).
func WithScanStats(st *obs.ScanStats) Option {
	return func(o *engineOpts) { o.stats = st }
}

func buildOpts(opts []Option) engineOpts {
	var o engineOpts
	for _, f := range opts {
		f(&o)
	}
	if o.pool == nil {
		o.pool = DefaultPool()
	}
	return o
}

// run256 is the hot loop of Algorithm 5 (and of Algorithm 3's per-state
// simulation) over a 256-wide table of any entry width: one load per
// byte, with the byte loop unrolled 4× so that loop control and bounds
// checks amortize over four lookups between iterations of the serial
// load-to-load chain. Each width compiles to its own instance.
func run256[T uint8 | uint16 | int32](tab []T, start int32, text []byte) int32 {
	q := uint32(T(start))
	i := 0
	for ; i+4 <= len(text); i += 4 {
		q = uint32(tab[q<<8|uint32(text[i])])
		q = uint32(tab[q<<8|uint32(text[i+1])])
		q = uint32(tab[q<<8|uint32(text[i+2])])
		q = uint32(tab[q<<8|uint32(text[i+3])])
	}
	for ; i < len(text); i++ {
		q = uint32(tab[q<<8|uint32(text[i])])
	}
	return int32(q)
}

// tables bundles the width variants so engines hold exactly one non-nil
// table for their resolved layout (nil for LayoutClass).
type tables struct {
	u8  []uint8
	u16 []uint16
	i32 []int32
}

// newTables expands a class-indexed successor table — n rows over bc's
// classes — into the 256-wide table of layout l (none for LayoutClass).
func newTables(l TableLayout, n int, bc *nfa.ByteClasses, nextC []int32) *tables {
	t := &tables{}
	switch l {
	case LayoutU8:
		t.u8 = core.Table256[uint8](n, bc, nextC)
	case LayoutU16:
		t.u16 = core.Table256[uint16](n, bc, nextC)
	case LayoutI32:
		t.i32 = core.Table256[int32](n, bc, nextC)
	}
	return t
}

// run walks a chunk through whichever table is materialized.
func (t *tables) run(layout TableLayout, start int32, chunk []byte) int32 {
	switch layout {
	case LayoutU8:
		return run256(t.u8, start, chunk)
	case LayoutU16:
		return run256(t.u16, start, chunk)
	default:
		return run256(t.i32, start, chunk)
	}
}

// memoryBytes reports the resident size of the materialized table.
func (t *tables) memoryBytes() int64 {
	return int64(len(t.u8)) + int64(len(t.u16))*2 + int64(len(t.i32))*4
}
