package multi

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/syntax"
)

// TestTupleDSFAFailsWithoutVectors: an attempt that overruns its cap must
// fail on tuples alone. Mapping vectors are |D| int16s per state; the
// walk that overruns must allocate well under a quarter of what cap of
// them would take, so a failed merge costs cap × (k + classes) words.
func TestTupleDSFAFailsWithoutVectors(t *testing.T) {
	// Two "tenth symbol from the end" rules: each minimal DFA remembers
	// the last ten symbols, so the product DFA has thousands of states
	// over only three byte classes, and the vectors dwarf the tuples.
	patterns := []string{`[ab]*a[ab]{9}`, `[ab]*b[ab]{9}`}
	ds := oracleDFAs(t, patterns)
	comps := make([]*core.DSFA, len(ds))
	for i, d := range ds {
		s, err := core.BuildDSFA(d, 0)
		if err != nil {
			t.Fatal(err)
		}
		comps[i] = s
	}
	d, masks, err := productDFA(ds, 0)
	if err != nil {
		t.Fatal(err)
	}
	d, _ = minimizeMasked(d, masks, maskWords(len(ds)))
	full, err := tupleDSFA(comps, d, 0)
	if err != nil {
		t.Fatal(err)
	}
	cap := full.NumStates / 2
	vectors := uint64(cap) * uint64(d.NumStates) * 2
	if d.NumStates < 1000 {
		t.Fatalf("fixture broke: product DFA has %d states; want ≥ 1000 so vectors dominate", d.NumStates)
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err = tupleDSFA(comps, d, cap)
	runtime.ReadMemStats(&after)
	if !isBudgetErr(err) {
		t.Fatalf("cap %d of %d states: want a budget error, got %v", cap, full.NumStates, err)
	}
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("cap %d, |D| = %d: the failed attempt allocated %d bytes against %d of vectors", cap, d.NumStates, got, vectors)
	if got >= vectors/4 {
		t.Fatalf("failed attempt at cap %d over |D| = %d allocated %d bytes; %d bytes of vectors would be cap × |D| × 2, the bound is a quarter of that",
			cap, d.NumStates, got, vectors)
	}
}

// goldenSets are rule sets whose builds split or fail merges, each with
// the SHA-256 of its Encode bytes and its plan counts. How a state is
// interned must not show in either: a change that renumbers a state,
// alters a table or moves a plan decision fails here.
var goldenSets = []struct {
	name     string
	patterns []string
	search   bool
	o        Options
	sha      string
	shards   int
	merges   int
	fails    int
	splits   int
}{
	{
		name: "search-fails", search: true,
		patterns: goldenSearchPatterns, o: Options{Threads: 1, SFABudget: 500},
		sha:    "c2128cd740fba7ff30636ebe1da54bdee19bcc972dcff9ee0123b5940ce2a6d3",
		shards: 6, merges: 1, fails: 3,
	},
	{
		name: "search-wide", search: true,
		patterns: goldenSearchPatterns, o: Options{Threads: 1, SFABudget: 2000},
		sha:    "733bede4a557f404ea2ad7940d610caf5144c9f0fd453dd2268495eab3fa3773",
		shards: 6, fails: 4,
	},
	{
		name:     "forced-splits",
		patterns: testPatterns, o: Options{Threads: 1, SFABudget: 30, ForceShards: 1},
		sha:    "295f3c8ee684dc0bf000d49a8009afd87a1f86d3b626c96038d59cf295d790f4",
		shards: 3, splits: 2,
	},
}

var goldenSearchPatterns = []string{
	`GET /[a-z]+\.php\?id=[0-9]+`,
	`Content-Length: [0-9]{6,}`,
	`Authorization: Basic [A-Za-z0-9+/=]{8,}`,
	`(ab)*c(de)*f`,
	`a[ab]*b[0-9]{2}`,
	`x.{0,4}y`,
	`union.*select`,
	`[0-9]{3}-[0-9]{4}`,
}

// TestConstructionGolden pins what every construction stage produces —
// subset construction, product, mask-aware minimization, tuple D-SFA,
// the merge pass — byte for byte, on sets where the planner both
// succeeds and fails.
func TestConstructionGolden(t *testing.T) {
	for _, g := range goldenSets {
		t.Run(g.name, func(t *testing.T) {
			nodes := make([]*syntax.Node, len(g.patterns))
			keys := make([]string, len(g.patterns))
			for i, p := range g.patterns {
				nodes[i] = syntax.MustParse(p, 0)
				if g.search {
					nodes[i] = syntax.BracketForSearch(nodes[i])
				}
				keys[i] = "k\x00" + p
			}
			s, err := Compile(nodes, g.o)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := s.Encode(&buf, keys); err != nil {
				t.Fatal(err)
			}
			if sha := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); sha != g.sha {
				t.Errorf("Encode bytes (%d) hash to %s, want %s", buf.Len(), sha, g.sha)
			}
			r := s.BuildReport()
			if r.Shards != g.shards || r.Merges != g.merges || r.MergeFails != g.fails || r.Splits != g.splits {
				t.Errorf("shards/merges/merge fails/splits = %d/%d/%d/%d, want %d/%d/%d/%d",
					r.Shards, r.Merges, r.MergeFails, r.Splits, g.shards, g.merges, g.fails, g.splits)
			}
		})
	}
}

// TestBuildReportFailedNs: the time of attempts that overran a budget is
// reported, and a build without any reports none.
func TestBuildReportFailedNs(t *testing.T) {
	g := goldenSets[0]
	nodes := make([]*syntax.Node, len(g.patterns))
	for i, p := range g.patterns {
		nodes[i] = syntax.BracketForSearch(syntax.MustParse(p, 0))
	}
	s, err := Compile(nodes, g.o)
	if err != nil {
		t.Fatal(err)
	}
	if r := s.BuildReport(); r.MergeFails == 0 || r.FailedNs <= 0 {
		t.Fatalf("merge fails %d, FailedNs %d: want both > 0", r.MergeFails, r.FailedNs)
	}

	s, err = Compile(parseAll(t, testPatterns[:3]), Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r := s.BuildReport(); r.Splits != 0 || r.MergeFails != 0 || r.FailedNs != 0 {
		t.Fatalf("splits %d, merge fails %d, FailedNs %d: want all 0", r.Splits, r.MergeFails, r.FailedNs)
	}
}
