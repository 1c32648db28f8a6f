package sfa

import (
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/binio"
	"repro/internal/multi"
	"repro/internal/prefilter"
)

// Rule-set snapshots: Save serializes a compiled combined RuleSet —
// rule definitions, plan metadata, and every shard's width-specialized
// automaton and accept-mask table — and LoadRuleSet reconstructs it
// without recompiling anything. Table III shows construction dominates
// start-up; ROADMAP records 15–30 s cold builds for search-bracketed
// rule sets, and a snapshot load replaces that with a table read.
//
// The file layout (see internal/snapshot/README.md for the full spec):
//
//	magic "SFA\x01RST\x01"
//	1 byte  set-wide Flags      1 byte  search (0|1)
//	uvarint rule count, then per rule: name, pattern (both
//	        length-prefixed), 1 byte per-rule Flags
//	multi set blob (shard automata; each shard blob carries its own CRC)
//	4 byte  CRC-32C of everything above
//
// Pattern semantics (flags, search bracketing) are baked into the saved
// automata, so LoadRuleSet restores them from the file; matching options
// supplied to LoadRuleSet (threads, shard cache for future Rebuilds)
// apply, pattern-affecting ones are overridden.

const ruleSetMagic = "SFA\x01RST\x01"

// SniffRuleSetSnapshot reports whether prefix begins with the rule-set
// snapshot magic — the format-sniffing half of LoadRuleSet, for tools
// (cmd/sfacache) that route a file by type. Kept next to the magic so a
// version bump cannot desynchronize the sniff from the decoder.
func SniffRuleSetSnapshot(prefix []byte) bool {
	return len(prefix) >= len(ruleSetMagic) && string(prefix[:len(ruleSetMagic)]) == ruleSetMagic
}

const (
	maxSnapshotRules = 1 << 20
	maxNameLen       = 1 << 16
	maxPatternLen    = 1 << 20
)

// flagMask is every defined Flag bit; snapshot flag bytes beyond it are
// corruption.
const flagMask = FoldCase | DotAll

// Save writes the compiled rule set as a snapshot LoadRuleSet can
// reconstruct without recompiling. Only combined-mode sets carry the
// tables a snapshot needs: a set compiled WithIsolatedRules or with a
// non-SFA engine returns an error.
func (rs *RuleSet) Save(w io.Writer) error {
	if rs.set == nil {
		return fmt.Errorf("sfa: Save needs a combined rule set (isolated or non-SFA rule sets recompile from source)")
	}
	h := binio.NewCRC32C()
	cw := io.MultiWriter(w, h)
	if _, err := io.WriteString(cw, ruleSetMagic); err != nil {
		return err
	}
	cfg := buildConfig(rs.opts)
	search := byte(0)
	if cfg.search {
		search = 1
	}
	if _, err := cw.Write([]byte{byte(cfg.flags), search}); err != nil {
		return err
	}
	if err := binio.WriteUvarint(cw, uint64(len(rs.defs))); err != nil {
		return err
	}
	for _, d := range rs.defs {
		if err := binio.WriteString(cw, d.Name); err != nil {
			return err
		}
		if err := binio.WriteString(cw, d.Pattern); err != nil {
			return err
		}
		if _, err := cw.Write([]byte{byte(d.Flags)}); err != nil {
			return err
		}
	}
	if err := rs.set.Encode(cw, rs.keys); err != nil {
		return err
	}
	var crc4 [4]byte
	binary.LittleEndian.PutUint32(crc4[:], h.Sum32())
	_, err := w.Write(crc4[:])
	return err
}

// LoadRuleSet reconstructs a rule set saved with Save: every shard's
// automaton and mask table is decoded and validated (state counts,
// transition targets, mask widths, CRCs) and the engines are assembled
// warm — no parsing, planning, or D-SFA construction. Matching options
// may be supplied (WithThreads, WithShardCache — which also arms future
// Rebuilds of the loaded set); pattern-affecting options are baked into
// the snapshot and override anything passed.
//
// A corrupt or truncated snapshot returns an error, never a silently
// different matcher: callers should fall back to compiling from rule
// source (internal/serve's warm restart does exactly that).
func LoadRuleSet(r io.Reader, opts ...Option) (*RuleSet, error) {
	cr := binio.NewCRCReader(r)
	magic := make([]byte, len(ruleSetMagic))
	if _, err := io.ReadFull(cr, magic); err != nil {
		return nil, fmt.Errorf("sfa: reading snapshot magic: %w", err)
	}
	if string(magic) != ruleSetMagic {
		return nil, fmt.Errorf("sfa: not a rule-set snapshot (magic %q)", magic)
	}
	var hdr [2]byte
	if _, err := io.ReadFull(cr, hdr[:]); err != nil {
		return nil, fmt.Errorf("sfa: reading snapshot header: %w", err)
	}
	setFlags := Flag(hdr[0])
	if setFlags&^flagMask != 0 {
		return nil, fmt.Errorf("sfa: unknown set flags %#x in snapshot", hdr[0])
	}
	if hdr[1] > 1 {
		return nil, fmt.Errorf("sfa: bad search byte %#x in snapshot", hdr[1])
	}
	search := hdr[1] == 1

	n, err := binio.ReadCount(cr, maxSnapshotRules, "rule")
	if err != nil {
		return nil, fmt.Errorf("sfa: %w", err)
	}
	if n == 0 {
		return nil, fmt.Errorf("sfa: snapshot with no rules")
	}
	// Grow defs as rules actually decode — the count is a claim, and a
	// lying one must not buy a huge up-front allocation (the binio rule).
	defs := make([]RuleDef, 0, min(n, 4096))
	for i := 0; i < n; i++ {
		var d RuleDef
		if d.Name, err = binio.ReadString(cr, maxNameLen, "rule name"); err != nil {
			return nil, fmt.Errorf("sfa: %w", err)
		}
		if d.Pattern, err = binio.ReadString(cr, maxPatternLen, "rule pattern"); err != nil {
			return nil, fmt.Errorf("sfa: %w", err)
		}
		var fb [1]byte
		if _, err := io.ReadFull(cr, fb[:]); err != nil {
			return nil, fmt.Errorf("sfa: reading rule flags: %w", err)
		}
		if Flag(fb[0])&^flagMask != 0 {
			return nil, fmt.Errorf("sfa: unknown flags %#x on rule %q", fb[0], d.Name)
		}
		d.Flags = Flag(fb[0])
		defs = append(defs, d)
	}

	// Reassemble the RuleSet shell exactly as buildRuleSet would, with
	// the snapshot's pattern semantics pinned over the caller's options.
	eff := append(append([]Option(nil), opts...), func(c *config) {
		c.flags = setFlags
		c.search = search
	})
	cfg := buildConfig(eff)
	rs := &RuleSet{
		defs: defs,
		opts: eff,
		idx:  make(map[string]int, len(defs)),
	}
	sortDefs(rs.defs)
	for i, d := range rs.defs {
		if _, dup := rs.idx[d.Name]; dup {
			return nil, fmt.Errorf("sfa: duplicate rule %s in snapshot", d.Name)
		}
		rs.idx[d.Name] = i
	}
	rs.keys = make([]string, len(rs.defs))
	for i, d := range rs.defs {
		rs.keys[i] = ruleKey(cfg.flags, cfg.search, d)
	}

	mo := multi.Options{Threads: cfg.threads}
	// Snapshots carry automata, not syntax trees, so the literal
	// prefilter is re-extracted from the rule sources — cheap (a parse
	// per rule, no construction) next to the table decode it fronts. A
	// rule that no longer parses leaves the whole set unfiltered rather
	// than failing the load: the snapshot's automata are the verdict
	// authority, the prefilter is only an accelerator.
	if !cfg.noPrefilter {
		infos := make([]prefilter.Rule, len(rs.defs))
		ok := true
		for i, d := range rs.defs {
			_, info, err := parseRule(d, cfg)
			if err != nil {
				ok = false
				break
			}
			infos[i] = info
		}
		if ok {
			mo.Prefilter = infos
		}
	}
	set, err := multi.DecodeSet(cr, rs.keys, mo)
	if err != nil {
		return nil, fmt.Errorf("sfa: %w", err)
	}
	sum := cr.Sum32()
	var crc4 [4]byte
	if _, err := io.ReadFull(r, crc4[:]); err != nil {
		return nil, fmt.Errorf("sfa: reading snapshot crc: %w", err)
	}
	stored := binary.LittleEndian.Uint32(crc4[:])
	if stored != sum {
		return nil, fmt.Errorf("sfa: snapshot crc mismatch (stored %08x, computed %08x)", stored, sum)
	}
	rs.set = set
	return rs, nil
}
