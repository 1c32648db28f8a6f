package serve

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/sfa"
)

func defsAB() []sfa.RuleDef {
	return []sfa.RuleDef{
		{Name: "ab", Pattern: `(ab)*`},
		{Name: "cd", Pattern: `(cd)*e?`},
	}
}

func TestRuleboardReloadSwapsGenerations(t *testing.T) {
	b, err := NewRuleboard(defsAB(), sfa.WithThreads(1))
	if err != nil {
		t.Fatal(err)
	}
	if b.Generation() != 1 {
		t.Fatalf("initial generation %d", b.Generation())
	}
	if got := b.Scan([]byte("abab")); !reflect.DeepEqual(got, []string{"ab"}) {
		t.Fatalf("gen 1 scan: %v", got)
	}

	next := append(defsAB(), sfa.RuleDef{Name: "xy", Pattern: `(xy)+`})
	res, err := b.Reload(next)
	if err != nil {
		t.Fatal(err)
	}
	if res.Generation != 2 || b.Generation() != 2 {
		t.Fatalf("reload generation %d / %d", res.Generation, b.Generation())
	}
	if res.RulesAdded != 1 || res.RulesRemoved != 0 {
		t.Fatalf("reload stats %+v", res.ReloadStats)
	}
	if got := b.Scan([]byte("xy")); !reflect.DeepEqual(got, []string{"xy"}) {
		t.Fatalf("gen 2 scan: %v", got)
	}
	// No stream was open on generation 1, so it drains immediately.
	select {
	case <-res.Drained:
	case <-time.After(5 * time.Second):
		t.Fatal("idle old generation did not drain")
	}
}

func TestRuleboardFailedReloadKeepsServing(t *testing.T) {
	b, err := NewRuleboard(defsAB(), sfa.WithThreads(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Reload([]sfa.RuleDef{{Name: "bad", Pattern: `(`}}); err == nil {
		t.Fatal("invalid pattern must fail the reload")
	}
	if b.Generation() != 1 {
		t.Fatalf("failed reload advanced the generation to %d", b.Generation())
	}
	if got := b.Scan([]byte("abab")); !reflect.DeepEqual(got, []string{"ab"}) {
		t.Fatalf("board corrupted after failed reload: %v", got)
	}
}

// TestRuleboardStreamSurvivesReload is the drain contract: a stream
// opened before a reload keeps matching its own generation's rules, the
// old generation reports drained only after the stream closes, and
// writes interleaved with reloads stay split-invariant.
func TestRuleboardStreamSurvivesReload(t *testing.T) {
	b, err := NewRuleboard(defsAB(), sfa.WithThreads(1))
	if err != nil {
		t.Fatal(err)
	}
	st, err := b.NewStream()
	if err != nil {
		t.Fatal(err)
	}
	st.Write([]byte("ab"))

	// Generation 2 removes rule "ab" entirely.
	res, err := b.Reload([]sfa.RuleDef{{Name: "cd", Pattern: `(cd)*e?`}})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-res.Drained:
		t.Fatal("old generation drained while a stream was still open")
	case <-time.After(20 * time.Millisecond):
	}

	// The pinned stream continues against generation 1.
	st.Write([]byte("ab"))
	if got := st.Names(); !reflect.DeepEqual(got, []string{"ab"}) {
		t.Fatalf("pinned stream lost its generation: %v", got)
	}
	if st.Generation() != 1 {
		t.Fatalf("stream generation %d", st.Generation())
	}
	// New scans see generation 2 (no "ab" rule anymore).
	if got := b.Scan([]byte("abab")); got != nil {
		t.Fatalf("new scan saw retired rules: %v", got)
	}

	st.Close()
	select {
	case <-res.Drained:
	case <-time.After(5 * time.Second):
		t.Fatal("old generation did not drain after the stream closed")
	}
	st.Close() // idempotent
}

// TestRuleboardConcurrentScansAndReloads is the -race torture loop:
// streams and one-shot scans run against continuously reloading rules.
// Rule "keep" exists in every generation, so every verdict on matching
// input must contain it no matter which generation served the scan.
func TestRuleboardConcurrentScansAndReloads(t *testing.T) {
	keep := sfa.RuleDef{Name: "keep", Pattern: `a+`}
	toggle := sfa.RuleDef{Name: "toggle", Pattern: `b+`}
	b, err := NewRuleboard([]sfa.RuleDef{keep}, sfa.WithThreads(2))
	if err != nil {
		t.Fatal(err)
	}
	iters := 60
	if raceEnabled {
		iters = 25
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				st, err := b.NewStream()
				if err != nil {
					errs <- err
					return
				}
				st.Write([]byte("aa"))
				st.Write(nil)
				st.Write([]byte("a"))
				names := st.Names()
				st.Close()
				found := false
				for _, n := range names {
					if n == "keep" {
						found = true
					}
				}
				if !found {
					errs <- fmt.Errorf("verdict lost rule keep: %v", names)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			var defs []sfa.RuleDef
			if i%2 == 0 {
				defs = []sfa.RuleDef{keep, toggle}
			} else {
				defs = []sfa.RuleDef{keep}
			}
			if _, err := b.Reload(defs); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestHubTenantsAreIndependent(t *testing.T) {
	h := NewHub(sfa.WithThreads(1))
	created, _, res, err := h.SetRules("web", defsAB())
	if err != nil || !created || res.Generation != 1 {
		t.Fatalf("create web: created=%v res=%+v err=%v", created, res, err)
	}
	created, _, _, err = h.SetRules("db", []sfa.RuleDef{{Name: "sel", Pattern: `x(sel)+`}})
	if err != nil || !created {
		t.Fatalf("create db: %v", err)
	}
	if got := h.Names(); !reflect.DeepEqual(got, []string{"db", "web"}) {
		t.Fatalf("Names: %v", got)
	}

	// Reloading web must not touch db's generation.
	created, _, res, err = h.SetRules("web", append(defsAB(), sfa.RuleDef{Name: "z", Pattern: `z+`}))
	if err != nil || created {
		t.Fatalf("reload web: created=%v err=%v", created, err)
	}
	if res.Generation != 2 {
		t.Fatalf("web generation %d", res.Generation)
	}
	db, _ := h.Tenant("db")
	if db.Generation() != 1 {
		t.Fatalf("db generation moved to %d", db.Generation())
	}

	if !h.Delete("db") || h.Delete("db") {
		t.Fatal("delete semantics broken")
	}
	if _, ok := h.Tenant("db"); ok {
		t.Fatal("deleted tenant still resolvable")
	}
	if _, _, _, err := h.SetRules("", defsAB()); err == nil {
		t.Fatal("empty tenant name accepted")
	}
}

// TestHubSetRulesDeleteRace: a PUT that races a DELETE must never report
// success for rules that are not actually live — if the reload won, the
// board stays (or is re-) registered with the reloaded rules.
func TestHubSetRulesDeleteRace(t *testing.T) {
	h := NewHub(sfa.WithThreads(1))
	if _, _, _, err := h.SetRules("t", defsAB()); err != nil {
		t.Fatal(err)
	}
	iters := 40
	if raceEnabled {
		iters = 15
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			_, b, res, err := h.SetRules("t", defsAB())
			if err != nil {
				errs <- err
				return
			}
			// The contract under test: after SetRules returns, the board
			// it reports is registered and carries the result's
			// generation or later (a subsequent delete may remove it, but
			// a *prior* one must not have swallowed the update).
			if got, ok := h.Tenant("t"); ok && got != b && got.Generation() < res.Generation {
				errs <- fmt.Errorf("registered board behind the reported reload: %d < %d",
					got.Generation(), res.Generation)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			h.Delete("t")
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Final PUT must always leave the tenant resolvable.
	if _, _, _, err := h.SetRules("t", defsAB()); err != nil {
		t.Fatal(err)
	}
	if _, ok := h.Tenant("t"); !ok {
		t.Fatal("tenant missing after a successful SetRules")
	}
}

// lazyGapDefs builds bounded-gap rules whose combined D-SFA the eager
// builder cannot afford under a tiny shard budget — the population the
// hub's table budget exists for.
func lazyGapDefs(n int) []sfa.RuleDef {
	defs := make([]sfa.RuleDef, n)
	for i := range defs {
		defs[i] = sfa.RuleDef{
			Name:    fmt.Sprintf("gap%02d", i),
			Pattern: fmt.Sprintf("q%02x.{0,%d}z%02x", i, 8+i%5, i*3),
		}
	}
	return defs
}

func TestHubTableBudgetPerTenant(t *testing.T) {
	// Without the prefilter: behind it these rules are windowed and
	// verified per rule, which builds no budgeted tables at all.
	hub := NewHub(sfa.WithSearch(), sfa.WithThreads(1), sfa.WithLazyCompile(), sfa.WithShardStateBudget(256), sfa.WithoutPrefilter())
	root := sfa.NewTableBudget(8 << 20)
	hub.SetTableBudget(root, 1<<20)

	for _, name := range []string{"alpha", "beta"} {
		if _, _, _, err := hub.SetRules(name, lazyGapDefs(6)); err != nil {
			t.Fatalf("tenant %s: %v", name, err)
		}
	}
	// Drive traffic so lazy states materialize and get charged.
	for _, name := range []string{"alpha", "beta"} {
		b, ok := hub.Tenant(name)
		if !ok {
			t.Fatalf("tenant %s missing", name)
		}
		payload := []byte("q00aaaaz00 q01bbbbbz03 nothing here")
		if got := b.Scan(payload); len(got) == 0 {
			t.Fatalf("tenant %s: planted literals matched nothing", name)
		}
	}

	rootStats := root.Stats()
	if rootStats.UsedBytes == 0 || rootStats.Fills == 0 {
		t.Fatalf("hub budget saw no lazy activity: %+v", rootStats)
	}
	reply := metricsReply(hub)
	if reply.TableBudget == nil || reply.TableBudget.ResidentBytes == 0 {
		t.Fatalf("/metrics missing hub table budget: %+v", reply.TableBudget)
	}
	for _, name := range []string{"alpha", "beta"} {
		tc := reply.Tenants[name]
		if tc.TableBudget == nil {
			t.Fatalf("/metrics missing tenant %s table budget", name)
		}
		if tc.TableBudget.LimitBytes != 1<<20 {
			t.Fatalf("tenant %s budget limit %d, want %d", name, tc.TableBudget.LimitBytes, 1<<20)
		}
		if tc.TableBudget.ResidentBytes == 0 || tc.TableBudget.Fills == 0 {
			t.Fatalf("tenant %s budget shows no residency: %+v", name, tc.TableBudget)
		}
	}
	// The children charge the root: the sum of tenant residency can never
	// exceed what the root accounts for.
	sum := reply.Tenants["alpha"].TableBudget.ResidentBytes + reply.Tenants["beta"].TableBudget.ResidentBytes
	if sum > rootStats.UsedBytes {
		t.Fatalf("tenant residency %d exceeds root accounting %d", sum, rootStats.UsedBytes)
	}
	// A reload keeps the same child budget (warm lazy state accounting
	// survives rules updates).
	if _, _, _, err := hub.SetRules("alpha", lazyGapDefs(7)); err != nil {
		t.Fatal(err)
	}
	after := metricsReply(hub)
	if after.Tenants["alpha"].TableBudget.Fills < reply.Tenants["alpha"].TableBudget.Fills {
		t.Fatal("reload reset the tenant budget counters")
	}
}
