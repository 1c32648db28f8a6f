package serve

import (
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/sfa"
)

func stateDefs() []sfa.RuleDef {
	return []sfa.RuleDef{
		{Name: "passwd", Pattern: `/etc/passwd`},
		{Name: "cmd", Pattern: `(cmd|command)\.exe`, Flags: sfa.FoldCase},
	}
}

// hubWithState builds a hub persisting under a fresh temp dir.
func hubWithState(t *testing.T) (*Hub, *State) {
	t.Helper()
	st, err := OpenState(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	h := NewHub(sfa.WithSearch(), sfa.WithThreads(2))
	h.SetState(st)
	return h, st
}

// TestStatePersistAndWarmRestore: SetRules persists; a second hub over
// the same state restores the tenant warm (stable BuildIDs, identical
// verdicts, warm counter bumped).
func TestStatePersistAndWarmRestore(t *testing.T) {
	h1, st := hubWithState(t)
	if _, _, _, err := h1.SetRules("ids", stateDefs()); err != nil {
		t.Fatal(err)
	}
	names, err := st.Tenants()
	if err != nil || len(names) != 1 || names[0] != "ids" {
		t.Fatalf("persisted tenants %v (%v)", names, err)
	}

	h2 := NewHub(sfa.WithSearch(), sfa.WithThreads(2))
	h2.SetState(st)
	stats, err := h2.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Tenants != 1 || stats.Warm != 1 || stats.Cold != 0 || stats.Rebuilt != 0 {
		t.Fatalf("restore stats %+v", stats)
	}
	b, ok := h2.Tenant("ids")
	if !ok {
		t.Fatal("tenant missing after restore")
	}
	if got := b.Scan([]byte("GET /etc/passwd")); len(got) != 1 || got[0] != "passwd" {
		t.Fatalf("restored verdict %v", got)
	}
	for i, sh := range b.RuleSet().Shards() {
		if sh.BuildID&(1<<63) == 0 {
			t.Fatalf("restored shard %d has sequential build id %d", i, sh.BuildID)
		}
	}
	if !reflect.DeepEqual(b.Defs(), func() []sfa.RuleDef {
		d := stateDefs()
		sortByName(d)
		return d
	}()) {
		t.Fatalf("restored defs %+v", b.Defs())
	}
}

func sortByName(defs []sfa.RuleDef) {
	for i := 1; i < len(defs); i++ {
		for j := i; j > 0 && defs[j].Name < defs[j-1].Name; j-- {
			defs[j], defs[j-1] = defs[j-1], defs[j]
		}
	}
}

// TestStateRestoreRebuildsOnEditedRules: an operator editing the rules
// file while the server is down gets the edited rules, via Rebuild (the
// snapshot still supplies every unchanged shard).
func TestStateRestoreRebuildsOnEditedRules(t *testing.T) {
	h1, st := hubWithState(t)
	if _, _, _, err := h1.SetRules("ids", stateDefs()); err != nil {
		t.Fatal(err)
	}
	// Append a rule to the on-disk rules file, as an operator would.
	path := filepath.Join(st.Dir(), "tenants", "ids.rules")
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("shell xp_cmdshell\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	h2 := NewHub(sfa.WithSearch(), sfa.WithThreads(2))
	h2.SetState(st)
	stats, err := h2.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rebuilt != 1 || stats.Warm != 0 {
		t.Fatalf("restore stats %+v", stats)
	}
	b, _ := h2.Tenant("ids")
	if b.RuleSet().Len() != 3 {
		t.Fatalf("edited restore has %d rules", b.RuleSet().Len())
	}
	if got := b.Scan([]byte("EXEC xp_cmdshell")); len(got) != 1 || got[0] != "shell" {
		t.Fatalf("edited-rule verdict %v", got)
	}
}

// TestStateRestoreColdFromRulesOnly: with the snapshot gone (or torn),
// the rules text still restores the tenant — cold.
func TestStateRestoreColdFromRulesOnly(t *testing.T) {
	h1, st := hubWithState(t)
	if _, _, _, err := h1.SetRules("ids", stateDefs()); err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(st.Dir(), "tenants", "ids.snap")
	// Tear the snapshot: truncate to half.
	b, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snap, b[:len(b)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	h2 := NewHub(sfa.WithSearch(), sfa.WithThreads(2))
	h2.SetState(st)
	stats, err := h2.Restore()
	if err != nil {
		t.Fatal(err)
	}
	// The torn snapshot may still warm via the shard cache — what
	// matters is the tenant exists with working verdicts and the load
	// was not a silent acceptance of the torn file.
	if stats.Tenants != 1 || stats.Warm != 0 {
		t.Fatalf("restore stats %+v", stats)
	}
	bd, ok := h2.Tenant("ids")
	if !ok {
		t.Fatal("tenant missing")
	}
	if got := bd.Scan([]byte("GET /etc/passwd")); len(got) != 1 || got[0] != "passwd" {
		t.Fatalf("verdict %v", got)
	}
}

// TestStateDeleteRemovesFiles: deleting a tenant deletes its persisted
// artifacts, so a restart does not resurrect it.
func TestStateDeleteRemovesFiles(t *testing.T) {
	h1, st := hubWithState(t)
	if _, _, _, err := h1.SetRules("ids", stateDefs()); err != nil {
		t.Fatal(err)
	}
	if !h1.Delete("ids") {
		t.Fatal("delete failed")
	}
	names, err := st.Tenants()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 0 {
		t.Fatalf("tenant files survive delete: %v", names)
	}
}

// TestStateEscapedTenantNames: names the URL router can deliver but
// filesystems dislike must round-trip the state directory.
func TestStateEscapedTenantNames(t *testing.T) {
	h1, st := hubWithState(t)
	name := "team a:b..c"
	if _, _, _, err := h1.SetRules(name, stateDefs()); err != nil {
		t.Fatal(err)
	}
	names, err := st.Tenants()
	if err != nil || len(names) != 1 || names[0] != name {
		t.Fatalf("escaped tenant list %v (%v)", names, err)
	}
	h2 := NewHub(sfa.WithSearch(), sfa.WithThreads(2))
	h2.SetState(st)
	if _, err := h2.Restore(); err != nil {
		t.Fatal(err)
	}
	if _, ok := h2.Tenant(name); !ok {
		t.Fatal("escaped tenant not restored")
	}
}

// TestHubDrain: Drain returns once pinned scans finish.
func TestHubDrain(t *testing.T) {
	h, _ := hubWithState(t)
	if _, _, _, err := h.SetRules("ids", stateDefs()); err != nil {
		t.Fatal(err)
	}
	b, _ := h.Tenant("ids")
	stream, err := b.NewStream()
	if err != nil {
		t.Fatal(err)
	}
	done := b.DrainCurrent()
	select {
	case <-done:
		t.Fatal("drained with a stream still open")
	default:
	}
	stream.Write([]byte("GET /etc/passwd"))
	stream.Close()
	<-done // must close now
}

// TestStateFailedSaveLeavesNoSnapshot: a rule set whose Save fails (a
// lazily compiled one) leaves neither a snapshot — not even the previous
// generation's — nor a temp file behind; the rules mirror is written.
func TestStateFailedSaveLeavesNoSnapshot(t *testing.T) {
	st, err := OpenState(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	eager, err := sfa.NewRuleSetFromDefs(stateDefs(), sfa.WithSearch())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SaveTenant("ids", stateDefs(), eager); err != nil {
		t.Fatal(err)
	}
	defs := []sfa.RuleDef{{Name: "gap", Pattern: `q00.{0,12}z00`}}
	lazy, err := sfa.NewRuleSetFromDefs(defs, sfa.WithSearch(), sfa.WithLazyCompile(), sfa.WithSFACap(16))
	if err != nil {
		t.Fatal(err)
	}
	if err := lazy.Save(io.Discard); err == nil {
		t.Fatal("fixture saved; it must be a lazily compiled set")
	}
	if err := st.SaveTenant("ids", defs, lazy); err != nil {
		t.Fatal(err)
	}
	files, err := os.ReadDir(filepath.Join(st.Dir(), "tenants"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, f := range files {
		names = append(names, f.Name())
	}
	if !reflect.DeepEqual(names, []string{"ids.rules"}) {
		t.Fatalf("tenant files after a failed Save: %v, want only ids.rules", names)
	}
}
