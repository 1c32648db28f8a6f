package main

import (
	"bytes"
	"fmt"
	"slices"

	"repro/sfa"
)

// runCfg is what one run of one workload is given.
type runCfg struct {
	seed     int64
	seconds  float64
	setups   int // cold set-ups of the untraced run; coldSetups outside tests
	traced   bool
	repoRoot string
	outDir   string
}

// scenario is one named workload: why it exists, how its inputs are made
// from the seed, and how the system is set up and driven on them.
type scenario struct {
	name string
	why  string // one line, copied into BENCHMARK.json
	// callers is the closed-loop caller count; 0 means one per CPU.
	callers int
	prepare func(rc *runCfg) (*prepared, error)
}

// prepared is a scenario with its inputs generated and expected outputs
// computed; nothing of the system under test has run yet.
type prepared struct {
	// setup performs one cold set-up, through the first verified op.
	setup func() (*target, error)
	// tracedSetup, when set, replaces setup in the traced run: the serve
	// workloads trace an in-process replica of the server.
	tracedSetup func() (*target, error)
	// layers runs the traced run's standalone probes and stores the
	// per-layer rows; tr.ops are the spans of the traced windows.
	layers func(lc *layerCtx) error
	// inputs describes the generated inputs and the op, for the report.
	inputs string
}

func (s *scenario) numCallers() int {
	if s.callers > 0 {
		return s.callers
	}
	return serveCallers()
}

// tailPct is the percentile op_tail_us takes of each window. p90 has ten
// samples beyond it in a serve_large window and over a thousand in a
// serve_small one; the in-process workloads have so few ops per window
// that their tail is close to the window's slowest op. serve_small's
// windows would support p99, but on a shared box p99 magnifies every slow
// spell: over sets of 10 to 30 runs it spread by 12–33 % where p90 spread
// by 10–20 % (README, "Noise and bounds"), which no bound the driver
// accepts can hold. The traced run reports it as serve.req_p99_us.
const tailPct = 90.0

const (
	corpusBytes  = 8 << 20
	gapmixBytes  = 5 << 20
	messageBytes = 1 << 20
	chunkBytes   = 64 << 10 // the serve handler's read size
	segments     = 4        // stream_compose cuts a message in 4 × 256 KiB
	lazyBudget   = 16 << 20
)

// scenarios is the benchmark: every workload, in the order the suite
// runs them. The reasons are the ones BENCHMARK.json records.
var scenarios = []*scenario{
	{name: "scan_dense", callers: 1,
		why: "ids16 over HTTP-like traffic: every line carries rule keywords, so the engine's D-SFA walker does most of the work and the prefilter buys little",
		prepare: func(rc *runCfg) (*prepared, error) {
			return prepareScan(rc, "ids16", genTraffic(corpusBytes, rc.seed), false)
		}},
	{name: "scan_sparse", callers: 1,
		why: "same rules over base64-like payload: the prefilter discards most bytes and the automaton sees a few windows, the mirror image of scan_dense",
		prepare: func(rc *runCfg) (*prepared, error) {
			return prepareScan(rc, "ids16", genPayload(corpusBytes, rc.seed), false)
		}},
	{name: "scan_lazy", callers: 1,
		why: "64 bounded-gap rules the eager planner rejects, compiled lazily under a 16 MiB table budget: the only workload where LazyTuple and the budget tree do the work",
		prepare: func(rc *runCfg) (*prepared, error) {
			return prepareScan(rc, "gap64", genGapmix(gapmixBytes, rc.seed), true)
		}},
	{name: "stream_chunks", callers: 1,
		why:     "in-order RuleStream: 1 MiB messages written in 64 KiB chunks, then Mask and Reset; same tables as scan_dense used through carried mappings, which a known-start fast path should speed up",
		prepare: func(rc *runCfg) (*prepared, error) { return prepareStream(rc, false) }},
	{name: "stream_compose", callers: 1,
		why:     "out-of-order RuleStream: each 1 MiB message cut in 4 segments on their own streams and folded with Compose, the only consumer of the full mapping, which a known-start fast path must not slow",
		prepare: func(rc *runCfg) (*prepared, error) { return prepareStream(rc, true) }},
	{name: "serve_small",
		why:     "the real sfaserve binary, 512 B scan bodies over keep-alive connections: the per-request floor (HTTP, NewStream, Names, JSON, flight record) is most of the time and matching a few percent",
		prepare: func(rc *runCfg) (*prepared, error) { return prepareServe(rc, 512, 4096) }},
	{name: "serve_large",
		why:     "same server, 256 KiB bodies: the per-request floor is amortised and the streaming write path dominates, so a set-up fix shows on serve_small and a streaming fix here",
		prepare: func(rc *runCfg) (*prepared, error) { return prepareServe(rc, 256<<10, 32) }},
	{name: "build", callers: 1,
		why:     "no scanning: cycles of one cold ids12 build, a Save, 6 snapshot loads and 5 one-rule Rebuilds, so a scan optimisation that inflates construction time, table size or snapshot bytes shows here",
		prepare: prepareBuild},
}

func findScenario(name string) *scenario {
	for _, s := range scenarios {
		if s.name == name {
			return s
		}
	}
	return nil
}

// --- expected outputs ------------------------------------------------------

// oracle computes expected masks on a path independent of the combined
// engines: one isolated engine per rule. Rule order (and so bit order)
// is by name in both, which is what lets masks be compared directly.
type oracle struct {
	rs    *sfa.RuleSet
	names []string
}

func newOracle(defs []sfa.RuleDef) (*oracle, error) {
	rs, err := sfa.NewRuleSetFromDefs(defs, sfa.WithSearch(), sfa.WithIsolatedRules())
	if err != nil {
		return nil, fmt.Errorf("building the isolated-rules oracle: %w", err)
	}
	return &oracle{rs: rs, names: rs.Names()}, nil
}

func (o *oracle) mask(data []byte) []uint64 {
	return o.rs.MatchMask(data, make([]uint64, o.rs.MaskWords()))
}

// matches renders a mask the way the server's reply does.
func (o *oracle) matches(mask []uint64) []string {
	out := []string{}
	for i, n := range o.names {
		if mask[i>>6]&(1<<(i&63)) != 0 {
			out = append(out, n)
		}
	}
	return out
}

// expect computes the expected mask of c and cross-checks it against the
// generator's own account: whatever a planted line matches in isolation
// (after a newline, so ^ cannot anchor to it) the whole input must match
// too, because every rule searches for a substring.
func (o *oracle) expect(c *corpus) ([]uint64, error) {
	want := o.mask(c.Data)
	seen := map[int]bool{}
	for _, p := range c.Planted {
		if seen[p.Kind] {
			continue
		}
		seen[p.Kind] = true
		for w, bits := range o.mask(c.kindLine(p.Kind)) {
			if bits&^want[w] != 0 {
				return nil, fmt.Errorf("oracle mask %x of %s misses rules %x that planted kind %d matches on its own",
					want, c.Name, bits&^want[w], p.Kind)
			}
		}
	}
	return want, nil
}

// --- scan_dense, scan_sparse, scan_lazy -------------------------------------

// spotSlices is how many small slices of the corpus a scan set-up
// verifies beside the whole-corpus op: the whole corpus matches nearly
// the same rules at every seed, the slices do not.
const (
	spotSlices    = 48
	spotSliceSize = 4 << 10
)

type scanInputs struct {
	rules  string
	defs   []sfa.RuleDef
	c      *corpus
	want   []uint64
	spots  []*corpus
	spotOK [][]uint64
	lazy   bool
	budget *sfa.TableBudget // of the latest lazy set-up
}

func (in *scanInputs) options() []sfa.Option {
	opts := []sfa.Option{sfa.WithSearch(), sfa.WithThreads(1)}
	if in.lazy {
		in.budget = sfa.NewTableBudget(lazyBudget)
		opts = append(opts, sfa.WithSFACap(512), sfa.WithLazyCompile(), sfa.WithTableBudget(in.budget))
	}
	return opts
}

func prepareScan(rc *runCfg, rules string, c *corpus, lazy bool) (*prepared, error) {
	in := &scanInputs{rules: rules, defs: ruleDefs(rules), c: c, lazy: lazy}
	if lazy {
		// The workload only measures the lazy path while the eager
		// builder cannot host these rules at all.
		if _, err := sfa.NewRuleSetFromDefs(in.defs, sfa.WithSearch(), sfa.WithThreads(1), sfa.WithSFACap(512)); err == nil {
			return nil, fmt.Errorf("%s: the eager build under WithSFACap(512) succeeded; the rule set no longer needs lazy compilation", rules)
		}
	}
	o, err := newOracle(in.defs)
	if err != nil {
		return nil, err
	}
	if in.want, err = o.expect(c); err != nil {
		return nil, err
	}
	in.spots = c.slices(spotSlices, spotSliceSize, rc.seed+1)
	distinct := map[string]bool{}
	for _, s := range in.spots {
		m, err := o.expect(s)
		if err != nil {
			return nil, err
		}
		in.spotOK = append(in.spotOK, m)
		distinct[fmt.Sprint(m)] = true
	}
	p := &prepared{
		setup:  func() (*target, error) { return setupScan(in) },
		layers: func(lc *layerCtx) error { return scanLayers(lc, in) },
		inputs: fmt.Sprintf("rules %s (%d), corpus %s %d B, %d planted lines, expected mask %x, %d spot slices with %d distinct masks; 1 caller, op = one whole-corpus MatchMask",
			rules, len(in.defs), c.Name, len(c.Data), len(c.Planted), in.want, spotSlices, len(distinct)),
	}
	return p, nil
}

func setupScan(in *scanInputs) (*target, error) {
	rs, err := sfa.NewRuleSetFromDefs(in.defs, in.options()...)
	if err != nil {
		return nil, err
	}
	dst := make([]uint64, rs.MaskWords())
	if got := rs.MatchMask(in.c.Data, dst); !slices.Equal(got, in.want) {
		return nil, fmt.Errorf("first scan of %s: mask %x, want %x", in.c.Name, got, in.want)
	}
	if err := verifySpots(rs, in); err != nil {
		return nil, err
	}
	return &target{
		op: func(_, _ int, tr *tracer, parent live) opResult {
			l := tr.begin("sfa.RuleSet.MatchMask", parent)
			got := rs.MatchMask(in.c.Data, dst)
			l.end()
			return opResult{bytes: len(in.c.Data), ok: slices.Equal(got, in.want)}
		},
		close: func() {},
	}, nil
}

// verifySpots is the part of a scan set-up's verification that is not
// timed: the small slices, each against its own expected mask.
func verifySpots(rs *sfa.RuleSet, in *scanInputs) error {
	dst := make([]uint64, rs.MaskWords())
	for i, s := range in.spots {
		if got := rs.MatchMask(s.Data, dst); !slices.Equal(got, in.spotOK[i]) {
			return fmt.Errorf("spot slice %s: mask %x, want %x", s.Name, got, in.spotOK[i])
		}
	}
	return nil
}

// --- stream_chunks, stream_compose ------------------------------------------

type streamInputs struct {
	defs     []sfa.RuleDef
	c        *corpus
	messages []*corpus
	want     [][]uint64
	compose  bool
}

func prepareStream(rc *runCfg, compose bool) (*prepared, error) {
	in, err := newStreamInputs(rc.seed, compose)
	if err != nil {
		return nil, err
	}
	distinct := map[string]bool{}
	for _, w := range in.want {
		distinct[fmt.Sprint(w)] = true
	}
	shape := "written in 64 KiB chunks to one stream, then Mask and Reset"
	if compose {
		shape = "cut in 4 × 256 KiB segments, each written in 64 KiB chunks to its own stream, folded with 3 Compose calls, then Mask and 4 Resets"
	}
	return &prepared{
		setup:  func() (*target, error) { return setupStream(in) },
		layers: func(lc *layerCtx) error { return streamLayers(lc, in) },
		inputs: fmt.Sprintf("rules ids16 (%d), %d messages of 1 MiB from traffic, %d distinct expected masks; 1 caller, op = one message %s",
			len(in.defs), len(in.messages), len(distinct), shape),
	}, nil
}

// newStreamInputs generates the messages and their expected masks.
func newStreamInputs(seed int64, compose bool) (*streamInputs, error) {
	in := &streamInputs{defs: ruleDefs("ids16"), c: genTraffic(corpusBytes, seed), compose: compose}
	o, err := newOracle(in.defs)
	if err != nil {
		return nil, err
	}
	// Messages are the corpus cut at fixed 1 MiB marks — mid-line cuts
	// included, as a network delivers them.
	for off := 0; off+messageBytes <= len(in.c.Data); off += messageBytes {
		m := &corpus{Name: fmt.Sprintf("traffic[%d MiB]", off>>20), Data: in.c.Data[off : off+messageBytes], kindLine: in.c.kindLine}
		for _, p := range in.c.Planted {
			if p.Off >= off && p.End <= off+messageBytes {
				m.Planted = append(m.Planted, attackSpan{p.Off - off, p.End - off, p.Kind})
			}
		}
		want, err := o.expect(m)
		if err != nil {
			return nil, err
		}
		in.messages = append(in.messages, m)
		in.want = append(in.want, want)
	}
	return in, nil
}

func writeChunks(st *sfa.RuleStream, data []byte, tr *tracer, parent live) {
	for off := 0; off < len(data); off += chunkBytes {
		l := tr.begin("sfa.RuleStream.Write", parent)
		st.Write(data[off:min(off+chunkBytes, len(data))]) // never fails, by its contract
		l.end()
	}
}

func setupStream(in *streamInputs) (*target, error) {
	rs, err := sfa.NewRuleSetFromDefs(in.defs, sfa.WithSearch(), sfa.WithThreads(1))
	if err != nil {
		return nil, err
	}
	n := 1
	if in.compose {
		n = segments
	}
	streams := make([]*sfa.RuleStream, n)
	for i := range streams {
		if streams[i], err = rs.NewStream(); err != nil {
			return nil, err
		}
	}
	dst := make([]uint64, rs.MaskWords())
	op := func(_, i int, tr *tracer, parent live) opResult {
		m := i % len(in.messages)
		data := in.messages[m].Data
		ok := true
		if !in.compose {
			writeChunks(streams[0], data, tr, parent)
		} else {
			seg := len(data) / segments
			for s, st := range streams {
				writeChunks(st, data[s*seg:(s+1)*seg], tr, parent)
			}
			for _, st := range streams[1:] {
				l := tr.begin("sfa.RuleStream.Compose", parent)
				err := streams[0].Compose(st)
				l.end()
				ok = ok && err == nil
			}
		}
		l := tr.begin("sfa.RuleStream.Mask", parent)
		got := streams[0].Mask(dst)
		l.end()
		ok = ok && slices.Equal(got, in.want[m]) && streams[0].Bytes() == int64(len(data))
		l = tr.begin("sfa.RuleStream.Reset", parent)
		for _, st := range streams {
			st.Reset()
		}
		l.end()
		return opResult{bytes: len(data), ok: ok}
	}
	if res := op(0, 0, nil, live{}); !res.ok {
		return nil, fmt.Errorf("first streamed message: wrong mask or byte count")
	}
	return &target{op: op, close: func() {}}, nil
}

// --- build -------------------------------------------------------------------

// One build op is one cycle of a deploy day: a cold build, its Save,
// loadsPerCycle warm loads of the snapshot and rebuildsPerCycle one-rule
// Rebuilds, sized so that each of the three kinds is a fifth to a half
// of the cycle and a regression in any of them moves the cycle time.
const (
	loadsPerCycle    = 6
	rebuildsPerCycle = 5
	buildCheckBytes  = 256 << 10
)

// editedRule is the rule a Rebuild changes; every edit appends a different
// optional suffix, which under substring search cannot change a verdict
// (X(Y)? occurs wherever X does) while the rule's shard has to be rebuilt. r000 sits in the 8-rule shard, whose
// rebuild (about 45 ms) is the middle of the range: an edit to r013 costs
// 12 ms, one to r009 over a second.
const editedRule = "r000"

type buildInputs struct {
	defs  []sfa.RuleDef
	check *corpus
	want  []uint64
	edits int // edits handed out so far; each Rebuild gets a new one
	seed  int64
	// keep holds the latest cold-built set, so that retained_mb measures
	// one compiled rule set as on the other in-process workloads.
	keep *sfa.RuleSet
}

func prepareBuild(rc *runCfg) (*prepared, error) {
	in := &buildInputs{defs: ruleDefs("ids12"), seed: rc.seed}
	o, err := newOracle(in.defs)
	if err != nil {
		return nil, err
	}
	// Every built, loaded or rebuilt set is checked on an input that must
	// match several rules: three fixed lines (an anchored request line, a
	// long Content-Length, a Basic credential), then seeded traffic.
	traffic := genTraffic(buildCheckBytes, rc.seed)
	head := "GET /index.php?id=7 HTTP/1.1\nContent-Length: 12345678\nAuthorization: Basic QWxhZGRpbjpvcGVu\n"
	in.check = &corpus{Name: "check", Data: append([]byte(head), traffic.Data...), kindLine: traffic.kindLine}
	for _, p := range traffic.Planted {
		in.check.Planted = append(in.check.Planted, attackSpan{p.Off + len(head), p.End + len(head), p.Kind})
	}
	if in.want, err = o.expect(in.check); err != nil {
		return nil, err
	}
	if !slices.ContainsFunc(in.defs, func(d sfa.RuleDef) bool { return d.Name == editedRule }) {
		return nil, fmt.Errorf("ids12 has no rule %s to edit", editedRule)
	}
	return &prepared{
		setup:  func() (*target, error) { return setupBuild(in) },
		layers: func(lc *layerCtx) error { return buildLayers(lc, in) },
		inputs: fmt.Sprintf("rules ids12 (%d); 1 caller, op = one cycle: 1 cold NewRuleSetFromDefs, 1 Save, %d LoadRuleSet, %d Rebuild with %s changed; every resulting set is checked on a %d KiB input (expected mask %x)",
			len(in.defs), loadsPerCycle, rebuildsPerCycle, editedRule, len(in.check.Data)>>10, in.want),
	}, nil
}

// edited returns the rule set with the next edit applied to editedRule.
func (in *buildInputs) edited() []sfa.RuleDef {
	in.edits++
	defs := slices.Clone(in.defs)
	for i := range defs {
		if defs[i].Name == editedRule {
			defs[i].Pattern = fmt.Sprintf("%s(edit-%d-%d)?", defs[i].Pattern, in.seed, in.edits)
		}
	}
	return defs
}

func (in *buildInputs) verified(rs *sfa.RuleSet) bool {
	return slices.Equal(rs.MatchMask(in.check.Data, make([]uint64, rs.MaskWords())), in.want)
}

var buildOptions = []sfa.Option{sfa.WithSearch(), sfa.WithThreads(1)}

func setupBuild(in *buildInputs) (*target, error) {
	op := func(_, _ int, tr *tracer, parent live) opResult {
		l := tr.begin("sfa.NewRuleSetFromDefs", parent)
		rs, err := sfa.NewRuleSetFromDefs(in.defs, buildOptions...)
		l.end()
		if err != nil || !in.verified(rs) {
			return opResult{}
		}
		in.keep = rs
		var snap bytes.Buffer
		l = tr.begin("sfa.RuleSet.Save", parent)
		err = rs.Save(&snap)
		l.end()
		if err != nil {
			return opResult{}
		}
		ok := true
		for i := 0; i < loadsPerCycle; i++ {
			l = tr.begin("sfa.LoadRuleSet", parent)
			loaded, err := sfa.LoadRuleSet(bytes.NewReader(snap.Bytes()), sfa.WithThreads(1))
			l.end()
			ok = ok && err == nil && in.verified(loaded)
		}
		for i := 0; i < rebuildsPerCycle; i++ {
			defs := in.edited()
			l = tr.begin("sfa.RuleSet.Rebuild", parent)
			rebuilt, _, err := rs.Rebuild(defs)
			l.end()
			ok = ok && err == nil && in.verified(rebuilt)
		}
		return opResult{bytes: snap.Len() * (1 + loadsPerCycle + rebuildsPerCycle), ok: ok}
	}
	if res := op(0, 0, nil, live{}); !res.ok {
		return nil, fmt.Errorf("first build cycle: a build, load or rebuild failed or gave a wrong mask")
	}
	return &target{op: op, close: func() {}}, nil
}
