package serve

import (
	"fmt"
	"io"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/snapshot"
	"repro/sfa"
)

// State is a hub's persistence root: one directory holding, per tenant,
// the human-readable rule text and the compiled rule-set snapshot, plus
// a shared content-addressed shard cache the builds warm themselves
// from. A restarted server pointed at the same directory reaches ready
// with warm automata instead of recompiling the world.
//
// Layout:
//
//	<dir>/tenants/<escaped-name>.rules   rules wire format (ParseRules)
//	<dir>/tenants/<escaped-name>.snap    rule-set snapshot (sfa.Save)
//	<dir>/cache/<key>.shard              content-addressed shard cache
//
// The snapshot is authoritative for what was compiled; the rules file is
// the operator-editable mirror. On restore, a rules file that differs
// from its snapshot wins — the board is rebuilt from the snapshot with
// shard reuse, exactly like a hot reload — so editing rules while the
// server is down behaves like editing them while it is up.
type State struct {
	dir   string
	cache *snapshot.Store
	mu    sync.Mutex // serializes tenant file writes (last persist wins whole)
}

// OpenState opens (creating if needed) a state directory.
func OpenState(dir string) (*State, error) {
	if err := os.MkdirAll(filepath.Join(dir, "tenants"), 0o755); err != nil {
		return nil, fmt.Errorf("serve: state dir: %w", err)
	}
	cache, err := snapshot.OpenStore(filepath.Join(dir, "cache"))
	if err != nil {
		return nil, err
	}
	return &State{dir: dir, cache: cache}, nil
}

// Dir returns the state root.
func (st *State) Dir() string { return st.dir }

// Cache returns the state's shard store (shared with every build the
// hub runs once SetState has wired it in).
func (st *State) Cache() *snapshot.Store { return st.cache }

// tenantBase returns the per-tenant file path prefix. Names are
// URL-escaped so any tenant name the HTTP API accepts maps to a safe,
// reversible filename.
func (st *State) tenantBase(name string) string {
	return filepath.Join(st.dir, "tenants", url.PathEscape(name))
}

// SaveTenant persists one tenant: the snapshot (authoritative, when the
// rule set supports it) and the rules text (best-effort mirror — some
// programmatic rule names cannot round-trip the line format). An
// isolated or non-SFA rule set has no snapshot; its rules text alone
// must then be writable or SaveTenant fails.
func (st *State) SaveTenant(name string, defs []sfa.RuleDef, rs *sfa.RuleSet) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.saveTenantLocked(name, defs, rs)
}

func (st *State) saveTenantLocked(name string, defs []sfa.RuleDef, rs *sfa.RuleSet) error {
	base := st.tenantBase(name)

	var rulesErr error
	if text, err := FormatRules(defs); err == nil {
		rulesErr = atomicWrite(base+".rules", func(w io.Writer) error {
			_, err := io.WriteString(w, text)
			return err
		})
	} else {
		rulesErr = err
	}
	if rulesErr != nil {
		// The mirror could not be rewritten for this generation; a stale
		// one left behind would beat the fresh snapshot on restore (the
		// rules file wins when it differs), silently rolling the tenant
		// back — so no mirror at all is strictly safer.
		os.Remove(base + ".rules")
	}

	// Save streams straight into the temp file; only a complete snapshot
	// is renamed into place.
	var noSnapshot bool
	err := atomicWrite(base+".snap", func(w io.Writer) error {
		fw := &firstErrWriter{w: w}
		err := rs.Save(fw)
		noSnapshot = err != nil && fw.err == nil
		return err
	})
	if noSnapshot {
		// Save failed without a write failing: no snapshot for this
		// architecture. The rules mirror is all there is, so its
		// failure is the caller's problem.
		os.Remove(base + ".snap")
		return rulesErr
	}
	if err != nil {
		return err
	}
	return rulesErr
}

// firstErrWriter remembers the first error of the writer it wraps, so a
// failed Save can be told apart from a failed write.
type firstErrWriter struct {
	w   io.Writer
	err error
}

func (f *firstErrWriter) Write(p []byte) (int, error) {
	n, err := f.w.Write(p)
	if f.err == nil {
		f.err = err
	}
	return n, err
}

// DeleteTenant removes a tenant's persisted files.
func (st *State) DeleteTenant(name string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.deleteTenantLocked(name)
}

func (st *State) deleteTenantLocked(name string) {
	base := st.tenantBase(name)
	os.Remove(base + ".rules")
	os.Remove(base + ".snap")
}

// Tenants lists the persisted tenant names, sorted.
func (st *State) Tenants() ([]string, error) {
	des, err := os.ReadDir(filepath.Join(st.dir, "tenants"))
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	var names []string
	for _, de := range des {
		base, ok := strings.CutSuffix(de.Name(), ".rules")
		if !ok {
			if base, ok = strings.CutSuffix(de.Name(), ".snap"); !ok {
				continue
			}
		}
		name, err := url.PathUnescape(base)
		if err != nil || seen[name] {
			continue
		}
		seen[name] = true
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// LoadTenant reads a tenant's persisted artifacts: the parsed rules file
// (nil when absent or unparsable) and the raw snapshot bytes (nil when
// absent). Both nil means nothing usable survives on disk.
func (st *State) LoadTenant(name string) (defs []sfa.RuleDef, snap []byte) {
	base := st.tenantBase(name)
	if f, err := os.Open(base + ".rules"); err == nil {
		if d, err := ParseRules(f); err == nil {
			defs = d
		}
		f.Close()
	}
	if b, err := os.ReadFile(base + ".snap"); err == nil {
		snap = b
	}
	return defs, snap
}

// atomicWrite writes path through write into a temp file, renamed into
// place only when write, the sync and the close all succeed, so a crash
// or a failed write can never leave a half-written state file (the
// loader would reject a torn snapshot anyway — CRC — but the rules
// mirror has no such guard). The temp file is removed on every path.
// write gets the file itself: Save buffers its own output.
func atomicWrite(path string, write func(io.Writer) error) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	defer os.Remove(tmp)
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// defsEqual reports whether two rule lists define the same rules
// (name, pattern, flags), order-insensitively.
func defsEqual(a, b []sfa.RuleDef) bool {
	if len(a) != len(b) {
		return false
	}
	as := append([]sfa.RuleDef(nil), a...)
	bs := append([]sfa.RuleDef(nil), b...)
	sort.Slice(as, func(i, j int) bool { return as[i].Name < as[j].Name })
	sort.Slice(bs, func(i, j int) bool { return bs[i].Name < bs[j].Name })
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}
