package main

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/dfa"
	"repro/internal/engine"
	"repro/internal/nfa"
	"repro/internal/prefilter"
	"repro/internal/syntax"
	"repro/sfa"
)

// layerCtx is what a workload's traced run hands its layer probes. The
// probes are separate passes over the workload's input through each
// layer's exported functions: they are labelled as such in the README
// and need not sum to the op, because nothing inside the program records
// spans yet.
type layerCtx struct {
	// probeDur is the time one timeLoop spends; it scales with --seconds.
	probeDur time.Duration
	// spans are the merged spans of the traced windows.
	spans []span
	vals  map[string]float64
}

func (lc *layerCtx) set(name string, v float64) {
	if _, ok := findMetric(perLayer, name); !ok {
		panic("bench: per-layer metric " + name + " is not in the table")
	}
	lc.vals[name] = v
}

// timeLoop returns the cost of one f() in nanoseconds: the median of
// five batches that together last about probeDur.
func (lc *layerCtx) timeLoop(f func()) float64 {
	const batches = 5
	t0 := time.Now()
	f()
	once := max(time.Since(t0), time.Nanosecond)
	n := max(1, int(lc.probeDur/batches/once))
	per := make([]float64, batches)
	for b := range per {
		t0 = time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		per[b] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	return median(per)
}

// allocsPer counts heap allocations per f() from MemStats.Mallocs.
func allocsPer(n int, f func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n)
}

// spanMedianMs is the median duration of the spans called name.
func spanMedianMs(spans []span, name string) float64 {
	var ds []float64
	for _, s := range spans {
		if s.Name == name {
			ds = append(ds, float64(s.End-s.Start)/1e6)
		}
	}
	if len(ds) == 0 {
		return 0
	}
	return median(ds)
}

func syntaxFlags(f sfa.Flag) syntax.Flags {
	var out syntax.Flags
	if f&sfa.FoldCase != 0 {
		out |= syntax.FoldCase
	}
	if f&sfa.DotAll != 0 {
		out |= syntax.DotAll
	}
	return out
}

// frontEnd walks every rule through the build-side layers' own exported
// constructors, timing each, and returns the probe: the rule with the
// largest minimal DFA.
type frontEnd struct {
	parseUs, glushkovUs, determinizeMs, minimizeMs float64
	states                                         int
	probe                                          *dfa.DFA
	infos                                          []prefilter.Rule
	extractUs                                      float64
}

const probeDFACap = 1 << 14

func runFrontEnd(defs []sfa.RuleDef) (*frontEnd, error) {
	fe := &frontEnd{}
	for _, d := range defs {
		t0 := time.Now()
		node, err := syntax.Parse(d.Pattern, syntaxFlags(d.Flags))
		if err != nil {
			return nil, fmt.Errorf("rule %s: %w", d.Name, err)
		}
		t1 := time.Now()
		fe.infos = append(fe.infos, prefilter.Extract(node, true))
		t2 := time.Now()
		a, err := nfa.Glushkov(syntax.BracketForSearch(node))
		if err != nil {
			return nil, fmt.Errorf("rule %s: %w", d.Name, err)
		}
		t3 := time.Now()
		det, err := dfa.Determinize(a, probeDFACap)
		if err != nil {
			return nil, fmt.Errorf("rule %s: %w", d.Name, err)
		}
		t4 := time.Now()
		m := dfa.Minimize(det)
		t5 := time.Now()
		fe.parseUs += float64(t1.Sub(t0).Nanoseconds()) / 1e3
		fe.extractUs += float64(t2.Sub(t0).Nanoseconds()) / 1e3
		fe.glushkovUs += float64(t3.Sub(t2).Nanoseconds()) / 1e3
		fe.determinizeMs += float64(t4.Sub(t3).Nanoseconds()) / 1e6
		fe.minimizeMs += float64(t5.Sub(t4).Nanoseconds()) / 1e6
		fe.states += m.LiveSize()
		if fe.probe == nil || m.LiveSize() > fe.probe.LiveSize() {
			fe.probe = m
		}
	}
	return fe, nil
}

func (fe *frontEnd) report(lc *layerCtx) {
	lc.set("syntax.parse_us", fe.parseUs)
	lc.set("prefilter.extract_us", fe.extractUs)
	lc.set("nfa.glushkov_us", fe.glushkovUs)
	lc.set("dfa.determinize_ms", fe.determinizeMs)
	lc.set("dfa.minimize_ms", fe.minimizeMs)
	lc.set("dfa.states_total", float64(fe.states))
}

// probeDSFA builds the probe's D-SFA, reporting the build; nil when the
// construction exceeds the cap (the rows then stay 0).
func probeDSFA(lc *layerCtx, probe *dfa.DFA) *core.DSFA {
	t0 := time.Now()
	s, err := core.BuildDSFA(probe, 1<<16)
	if err != nil {
		return nil
	}
	lc.set("core.build_dsfa_ms", float64(time.Since(t0).Nanoseconds())/1e6)
	lc.set("core.dsfa_states", float64(s.LiveSize()))
	return s
}

// reportShards stores the rule set's shard count and table size.
func reportShards(lc *layerCtx, rs *sfa.RuleSet) {
	shards := rs.Shards()
	var tableBytes int64
	for _, sh := range shards {
		tableBytes += sh.TableBytes
	}
	lc.set("multi.shards", float64(len(shards)))
	lc.set("multi.table_mb", float64(tableBytes)/1e6)
}

// --- scan_* -------------------------------------------------------------------

var sinkBool bool
var sinkState int32

func scanLayers(lc *layerCtx, in *scanInputs) error {
	data := in.c.Data
	nb := float64(len(data))
	fe, err := runFrontEnd(in.defs)
	if err != nil {
		return err
	}
	fe.report(lc)

	// engine: the raw walkers on the probe, the roofline.
	walker := engine.NewDFASequential(fe.probe)
	walkNs := lc.timeLoop(func() { sinkState = walker.Final(data) }) / nb
	lc.set("engine.dfa_walk_ns_per_byte", walkNs)
	if s := probeDSFA(lc, fe.probe); s != nil {
		m := engine.NewSFAParallel(s, 1, engine.ReduceSequential)
		lc.set("engine.sfa_walk_ns_per_byte", lc.timeLoop(func() { sinkBool = m.Match(data) })/nb)
	}

	// prefilter: the literal matcher alone over the corpus.
	var lits []string
	for _, info := range fe.infos {
		for _, l := range info.Lits {
			if !slices.Contains(lits, l) {
				lits = append(lits, l)
			}
		}
	}
	if len(lits) > 0 {
		pm := prefilter.NewMatcher(lits)
		var hits []prefilter.Hit
		lc.set("prefilter.match_ns_per_byte", lc.timeLoop(func() { hits = pm.AppendHits(hits[:0], data) })/nb)
		lc.set("prefilter.hits_per_mib", float64(len(hits))/(nb/(1<<20)))
	}

	// multi: the whole set, with and without the cascade.
	rs, err := sfa.NewRuleSetFromDefs(in.defs, in.options()...)
	if err != nil {
		return err
	}
	dst := make([]uint64, rs.MaskWords())
	check := func(r *sfa.RuleSet, what string) error {
		if got := r.MatchMask(data, dst); !slices.Equal(got, in.want) {
			return fmt.Errorf("%s: mask %x, want %x", what, got, in.want)
		}
		return nil
	}
	budget := in.budget // of rs, when lazy: options() makes a new one per set
	if err := check(rs, "layer probe scan"); err != nil {
		return err
	}
	var cold, steady0, steady1 sfa.BudgetStats
	if in.lazy {
		cold = budget.Stats()
		steady0 = cold
	}
	pf0, pool0 := rs.PrefilterStats(), engine.DefaultPool().Stats()
	const counted = 4
	for i := 0; i < counted; i++ {
		rs.MatchMask(data, dst)
	}
	pf1, pool1 := rs.PrefilterStats(), engine.DefaultPool().Stats()
	if in.lazy {
		steady1 = budget.Stats()
	}
	if tb := pf1.TotalBytes - pf0.TotalBytes; tb > 0 {
		lc.set("prefilter.candidate_byte_ratio", float64(pf1.CandidateBytes-pf0.CandidateBytes)/float64(tb))
	}
	lc.set("engine.pool_tasks_per_scan", float64(pool1.Submitted+pool1.Inline-pool0.Submitted-pool0.Inline)/counted)
	scanNs := lc.timeLoop(func() { rs.MatchMask(data, dst) }) / nb
	lc.set("multi.scan_ns_per_byte", scanNs)
	lc.set("sfa.scan_x_walker", scanNs/walkNs)
	lc.set("sfa.matchmask_allocs_per_op", allocsPer(counted, func() { rs.MatchMask(data, dst) }))
	reportShards(lc, rs)

	if in.lazy {
		// cold is the budget after build + first scan, the steady pair
		// brackets the counted scans, and the last reading follows every
		// scan this probe made.
		lc.set("core.lazy_fills", float64(cold.Fills))
		lc.set("core.lazy_fills_per_scan", float64(steady1.Fills-steady0.Fills)/counted)
		end := budget.Stats()
		lc.set("core.lazy_evictions", float64(end.Evictions))
		lc.set("core.lazy_resident_mb", float64(end.UsedBytes)/1e6)
		lc.set("core.lazy_stall_ms", float64(end.StallNs)/1e6)
	}

	// The automaton-only twin is compiled, not loaded: without the
	// cascade the planner packs the rules into different shards, and that
	// plan is what a user who turns the prefilter off gets.
	noPre, err := sfa.NewRuleSetFromDefs(in.defs, append(in.options(), sfa.WithoutPrefilter())...)
	if err != nil {
		return err
	}
	if err := check(noPre, "no-prefilter twin"); err != nil {
		return err
	}
	lc.set("multi.scan_noprefilter_ns_per_byte", lc.timeLoop(func() { noPre.MatchMask(data, dst) })/nb)
	if in.lazy {
		return nil // a lazy set cannot be saved, and p = 2 is an eager-path question
	}
	var snap bytes.Buffer
	if err := rs.Save(&snap); err != nil {
		return err
	}
	p2, err := sfa.LoadRuleSet(bytes.NewReader(snap.Bytes()), sfa.WithThreads(2))
	if err != nil {
		return err
	}
	if err := check(p2, "p=2 twin"); err != nil {
		return err
	}
	lc.set("engine.p2_speedup", scanNs/(lc.timeLoop(func() { p2.MatchMask(data, dst) })/nb))
	return nil
}

// --- stream_* -----------------------------------------------------------------

func streamLayers(lc *layerCtx, in *streamInputs) error {
	fe, err := runFrontEnd(in.defs)
	if err != nil {
		return err
	}
	fe.report(lc)
	chunk := in.c.Data[:chunkBytes]
	one := chunk[:1]

	// engine and core: the carried-mapping primitives on the probe.
	if s := probeDSFA(lc, fe.probe); s != nil {
		m := engine.NewSFAParallel(s, 1, engine.ReduceSequential)
		cur, tmp := make([]int16, m.MappingLen()), make([]int16, m.MappingLen())
		m.InitMapping(cur)
		lc.set("engine.compose_chunk_ns_per_byte", lc.timeLoop(func() { cur, tmp = m.ComposeChunk(cur, tmp, chunk) })/chunkBytes)
		lc.set("engine.compose_chunk_fixed_ns", lc.timeLoop(func() { cur, tmp = m.ComposeChunk(cur, tmp, one) }))
		lc.set("engine.match_mask_from_ns", lc.timeLoop(func() { sinkBool = m.AcceptedFrom(cur) }))
		h := make([]int16, len(cur))
		lc.set("core.compose_vec_ns", lc.timeLoop(func() { core.ComposeVec(h, cur, tmp) }))
	}

	// multi and sfa: the rule set's stream.
	rs, err := sfa.NewRuleSetFromDefs(in.defs, sfa.WithSearch(), sfa.WithThreads(1))
	if err != nil {
		return err
	}
	st, err := rs.NewStream()
	if err != nil {
		return err
	}
	plainNs := lc.timeLoop(func() { st.Write(chunk) })
	lc.set("multi.stream_write_ns_per_byte", plainNs/chunkBytes)
	lc.set("multi.stream_write_fixed_ns", lc.timeLoop(func() { st.Write(one) }))
	lc.set("sfa.stream_write_allocs_per_op", allocsPer(64, func() { st.Write(chunk) }))
	st.Reset()
	for off := 0; off+chunkBytes <= len(in.messages[0].Data); off += chunkBytes {
		st.Write(in.messages[0].Data[off : off+chunkBytes])
	}
	if ss := st.Stats(); ss.ShardChunksScanned+ss.ShardChunksSkipped > 0 {
		lc.set("multi.stream_chunks_skipped_ratio", float64(ss.ShardChunksSkipped)/float64(ss.ShardChunksScanned+ss.ShardChunksSkipped))
	}
	lc.set("multi.newstream_us", lc.timeLoop(func() { rs.NewStream() })/1e3)
	lc.set("multi.newstream_allocs", allocsPer(64, func() { rs.NewStream() }))

	// obs: the same write with the observability layer attached — scan
	// stats on the set, one flight record per write, as the serve
	// handler does per request.
	stats := sfa.NewScanStats()
	inst, err := sfa.NewRuleSetFromDefs(in.defs, sfa.WithSearch(), sfa.WithThreads(1), sfa.WithScanStats(stats))
	if err != nil {
		return err
	}
	ist, err := inst.NewStream()
	if err != nil {
		return err
	}
	ring := sfa.NewFlightRecorder(256)
	instrumented := func() {
		ist.Write(chunk)
		ss := ist.Stats()
		ring.Record(sfa.ScanRecord{Tenant: "bench", Generation: 1, Bytes: chunkBytes, Chunks: ss.Chunks,
			PrefilterNs: ss.PrefilterNs, ComposeNs: ss.ComposeNs - ss.PrefilterNs})
	}
	// Alternate the two so that drift of the box cancels out of the ratio.
	var ratios []float64
	for i := 0; i < 3; i++ {
		ratios = append(ratios, lc.timeLoop(instrumented)/lc.timeLoop(func() { st.Write(chunk) }))
	}
	if stats.Snapshot().Chunks == 0 {
		return fmt.Errorf("instrumented write recorded no chunks: WithScanStats is not engaged")
	}
	lc.set("obs.instrumented_write_x", median(ratios))

	// The per-kind message rates, from the traced windows' own spans.
	var busy int64
	var msgs int
	for _, s := range lc.spans {
		if s.Name == "op" {
			busy += s.End - s.Start
			msgs++
		}
	}
	if busy > 0 {
		rate := float64(msgs) * messageBytes / 1e6 / (float64(busy) / 1e9)
		if in.compose {
			lc.set("sfa.compose_mbps", rate)
		} else {
			lc.set("sfa.stream_mbps", rate)
		}
	}
	return nil
}

// --- build --------------------------------------------------------------------

func buildLayers(lc *layerCtx, in *buildInputs) error {
	fe, err := runFrontEnd(in.defs)
	if err != nil {
		return err
	}
	fe.report(lc)
	probeDSFA(lc, fe.probe)

	rs, err := sfa.NewRuleSetFromDefs(in.defs, buildOptions...)
	if err != nil {
		return err
	}
	br := rs.BuildReport()
	lc.set("multi.plan_ms", float64(br.PrepNs)/1e6)
	lc.set("multi.product_ms", float64(br.BuildNs)/1e6)
	if len(br.ShardBuildNs) > 0 {
		lc.set("multi.max_shard_build_ms", float64(slices.Max(br.ShardBuildNs))/1e6)
	}
	reportShards(lc, rs)
	rebuilt, _, err := rs.Rebuild(in.edited())
	if err != nil {
		return err
	}
	rr := rebuilt.BuildReport()
	lc.set("multi.built_shards", float64(rr.Built))
	lc.set("multi.reused_shards", float64(rr.ReusedShards))

	var snap bytes.Buffer
	lc.set("snapshot.save_ms", lc.timeLoop(func() {
		snap.Reset()
		err = rs.Save(&snap)
	})/1e6)
	if err != nil {
		return err
	}
	lc.set("snapshot.bytes_mb", float64(snap.Len())/1e6)
	lc.set("snapshot.load_ns_per_byte", lc.timeLoop(func() {
		_, err = sfa.LoadRuleSet(bytes.NewReader(snap.Bytes()), sfa.WithThreads(1))
	})/float64(snap.Len()))
	if err != nil {
		return err
	}

	lc.set("sfa.build_ms", spanMedianMs(lc.spans, "sfa.NewRuleSetFromDefs"))
	lc.set("sfa.warm_load_ms", spanMedianMs(lc.spans, "sfa.LoadRuleSet"))
	lc.set("sfa.reload_ms", spanMedianMs(lc.spans, "sfa.RuleSet.Rebuild"))
	return nil
}
