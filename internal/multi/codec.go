package multi

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"

	"repro/internal/binio"
	"repro/internal/core"
	"repro/internal/engine"
)

// Binary codec for compiled rule sets. Combined-set construction is the
// expensive step of the whole pipeline (ROADMAP: 15–30 s cold builds for
// large search-bracketed sets, paid ×shards), so compiled shards are the
// artifact worth persisting. Two framings share one shard format:
//
//   - a shard blob: one combined automaton plus the identity keys of the
//     rules it covers, in local mask-bit order. Self-contained and
//     CRC-guarded — the unit the content-addressed cache stores.
//   - a set blob: plan metadata plus every shard blob, length-prefixed —
//     the unit a whole-RuleSet snapshot embeds (sfa.(*RuleSet).Save).
//
// Identity is the same rule-membership contract Recompile reuses shards
// by: a shard is fully determined by the multiset of (pattern, flags)
// keys it covers, never by rule names or global indices — those live in
// the rules[] translation table and are re-derived on decode by matching
// keys against the loading rule list. See internal/snapshot/README.md
// for the byte-level specification and versioning rules.

// ErrNotSerializable is wrapped by Encode when the set contains a lazy
// shard: lazily built product states are a traffic-dependent cache, not
// an artifact, so such sets persist as rule sources and recompile on
// load (serve's snapshot path already falls back to rules-only frames).
var ErrNotSerializable = errors.New("multi: lazy shards are not serializable")

const (
	shardMagic = "SFA\x01SHD\x01"
	setMagic   = "SFA\x01SET\x01"

	// maxShardRules bounds the per-shard rule count a decoder will
	// believe; maxKeyLen bounds one identity key (flag byte + pattern).
	maxShardRules = 1 << 20
	maxKeyLen     = 1 << 20
	// maxShardBlob bounds one embedded shard blob inside a set frame.
	maxShardBlob = 1 << 31
)

// ShardCache is the content-addressed shard store consulted by the
// cache-aware build path. Load returns a reader over the blob stored for
// key, Store writes one (atomically; concurrent Stores of the same key
// may both run — content addressing makes them interchangeable).
// Implementations must be safe for concurrent use; internal/snapshot's
// Store is the on-disk one.
type ShardCache interface {
	Load(key string) (io.ReadCloser, bool)
	Store(key string, write func(io.Writer) error) error
}

// ShardKey returns the content-address of a shard's rule membership: the
// hex SHA-256 of the sorted (pattern, flags) key multiset. Local bit
// order does not change the key — two builds of the same rules in
// different order produce interchangeable shards, the decoder re-derives
// the bit translation by key matching.
func ShardKey(keys []string) string {
	sorted := append([]string(nil), keys...)
	sort.Strings(sorted)
	h := sha256.New()
	var len8 [8]byte
	for _, k := range sorted {
		binary.LittleEndian.PutUint64(len8[:], uint64(len(k)))
		h.Write(len8[:])
		h.Write([]byte(k))
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// shardCacheKey addresses a shard blob in the content-addressed cache:
// rule membership (ShardKey) plus both build budgets. The budgets are
// part of the address — not of the blob — because a cache directory is
// shareable between processes: under a membership-only key a process
// with a small SFABudget/DFABudget would happily adopt a shard built
// under a larger budget and silently violate its own memory bound. The
// "t" names the tuple-interned construction; it stays in the address,
// where a second construction mode once had a "v", so directories
// written since keep hitting. The blob format itself is unchanged, so
// whole-set snapshots (which pin their build's results by construction)
// still embed and decode the same bytes.
func shardCacheKey(shardKey string, o Options) string {
	h := sha256.Sum256([]byte(fmt.Sprintf("shard\x00%d\x00%d\x00t\x00%s", o.DFABudget, o.SFABudget, shardKey)))
	return fmt.Sprintf("%x", h[:])
}

// StableBuildID derives the persisted construction id from a shard's
// content key. The top bit is always set, so ids adopted from snapshots
// can never collide with the small sequential ids engine construction
// issues — a shard whose ShardInfo.BuildID carries the top bit was
// decoded from disk, and identical rule membership yields the identical
// id across processes and restarts.
func StableBuildID(shardKey string) uint64 {
	h := sha256.Sum256([]byte(shardKey))
	return binary.LittleEndian.Uint64(h[:8]) | 1<<63
}

// shardLen is the size of the blob writeShard writes.
func shardLen(m *engine.MultiSFA, localKeys []string) int {
	n := len(shardMagic) + binio.UvarintLen(uint64(len(localKeys)))
	for _, k := range localKeys {
		n += binio.UvarintLen(uint64(len(k))) + len(k)
	}
	sfaLen := m.SFA().EncodedLen()
	return n + binio.UvarintLen(uint64(m.Words())) + 8 +
		binio.UvarintLen(uint64(sfaLen)) + sfaLen + core.MaskTableLen(m.Masks()) + 4
}

// writeShard writes one shard blob: the engine's automaton and mask
// table plus the identity keys of its rules in local mask-bit order,
// CRC-32C-guarded.
func writeShard(w *binio.Writer, m *engine.MultiSFA, localKeys []string) {
	w.BeginCRC()
	w.WriteString(shardMagic)
	w.Uvarint(uint64(len(localKeys)))
	for _, k := range localKeys {
		w.String(k)
	}
	w.Uvarint(uint64(m.Words()))
	w.Uint64(StableBuildID(ShardKey(localKeys)))
	s := m.SFA()
	w.Uvarint(uint64(s.EncodedLen()))
	s.Encode(w)
	core.EncodeMaskTable(w, m.Masks())
	w.Uint32(w.EndCRC())
}

// encodeShard writes one shard blob to w: a shard-cache entry.
func encodeShard(w io.Writer, m *engine.MultiSFA, localKeys []string) error {
	bw := binio.NewWriter(w)
	writeShard(bw, m, localKeys)
	return bw.Flush()
}

// DecodedShard is one shard reconstructed from a blob: the live engine
// plus the identity keys of its rules in local mask-bit order. Global
// rule indices are not part of the format — callers derive them by
// matching Keys against their own rule list.
type DecodedShard struct {
	Keys    []string
	BuildID uint64
	m       *engine.MultiSFA
}

// DecodeShard reads a whole shard blob from r — a shard-cache entry —
// and decodes it like a shard frame of a set blob.
func DecodeShard(r io.Reader, o Options) (*DecodedShard, error) {
	b, err := binio.ReadAll(r, maxShardBlob)
	if err != nil {
		return nil, fmt.Errorf("multi: reading shard: %w", err)
	}
	return decodeShard(b, o)
}

// decodeShard decodes a shard blob that fills b exactly. The CRC is
// verified over the frame before anything is parsed; then the frame is
// parsed in place, validating every structural invariant (state counts,
// transition targets, mask widths, stray mask bits, accept bits against
// masks) so a corrupt blob errors instead of reaching the
// zero-allocation match path. Nothing decoded aliases b. Matching
// options (Threads, Pool, Stats) come from o; the persisted BuildID is
// adopted.
func decodeShard(b []byte, o Options) (*DecodedShard, error) {
	o = o.withDefaults()
	if len(b) < 4 {
		return nil, fmt.Errorf("multi: shard blob of %d bytes: %w", len(b), io.ErrUnexpectedEOF)
	}
	body := b[:len(b)-4]
	if stored, sum := binary.LittleEndian.Uint32(b[len(body):]), binio.Checksum(body); stored != sum {
		return nil, fmt.Errorf("multi: shard crc mismatch (stored %08x, computed %08x)", stored, sum)
	}
	c := binio.NewCursor(body)
	magic, err := c.Next(len(shardMagic), "shard magic")
	if err != nil {
		return nil, err
	}
	if string(magic) != shardMagic {
		return nil, fmt.Errorf("multi: bad shard magic %q", magic)
	}
	nrules, err := c.Count(maxShardRules, "shard rule")
	if err != nil {
		return nil, err
	}
	if nrules == 0 {
		return nil, fmt.Errorf("multi: shard with no rules")
	}
	keys := make([]string, 0, min(nrules, 4096))
	for range nrules {
		k, err := c.Bytes(maxKeyLen, "rule key")
		if err != nil {
			return nil, err
		}
		keys = append(keys, string(k))
	}
	words, err := c.Count(maxShardRules/64+1, "mask word")
	if err != nil {
		return nil, err
	}
	if words != maskWords(nrules) {
		return nil, fmt.Errorf("multi: shard mask width %d words, want %d for %d rules",
			words, maskWords(nrules), nrules)
	}
	id8, err := c.Next(8, "build id")
	if err != nil {
		return nil, err
	}
	buildID := binary.LittleEndian.Uint64(id8)
	if want := StableBuildID(ShardKey(keys)); buildID != want {
		return nil, fmt.Errorf("multi: shard build id %016x does not match its rule membership", buildID)
	}
	sfaBytes, err := c.Bytes(maxShardBlob, "automaton section")
	if err != nil {
		return nil, err
	}
	s, err := core.DecodeDSFA(sfaBytes)
	if err != nil {
		return nil, err
	}
	maskBytes, _ := c.Next(c.Len(), "mask table")
	masks, err := core.DecodeMaskTable(maskBytes, s.D.NumStates, words, nrules)
	if err != nil {
		return nil, err
	}
	// The engine's Match reads the DFA's accept bit as "some rule
	// accepts", so it must mark exactly the states whose row has a bit.
	for q, acc := range s.D.Accept {
		nonzero := false
		for _, w := range masks[q*words : (q+1)*words] {
			nonzero = nonzero || w != 0
		}
		if acc != nonzero {
			return nil, fmt.Errorf("multi: DFA state %d accept bit disagrees with its rule mask", q)
		}
	}
	eopts := append(o.engineOpts(), engine.WithBuildID(buildID))
	m := engine.NewMultiSFA(s, masks, words, o.Threads, eopts...)
	return &DecodedShard{Keys: keys, BuildID: buildID, m: m}, nil
}

// Encode serializes the whole set: plan metadata plus every shard blob,
// each behind its length, through one buffered writer. keys[i] is rule
// i's identity key (the Recompile contract); the decoder uses them to
// re-derive the local-bit → global-rule translation. A set with a lazy
// shard writes nothing.
func (s *Set) Encode(w io.Writer, keys []string) error {
	if len(keys) != s.rules {
		return fmt.Errorf("multi: %d keys for %d rules", len(keys), s.rules)
	}
	ms := make([]*engine.MultiSFA, len(s.shards))
	for i, sh := range s.shards {
		if ms[i] = eagerEngine(sh.m); ms[i] == nil {
			// A lazy shard has no tables to persist — its states are
			// rebuilt from traffic. Callers persist the rule sources
			// instead and recompile on load.
			return fmt.Errorf("%w: shard %v", ErrNotSerializable, sh.rules)
		}
	}
	bw := binio.NewWriter(w)
	bw.WriteString(setMagic)
	bw.Uvarint(uint64(s.rules))
	bw.Uvarint(uint64(s.planShards))
	bw.Uvarint(uint64(len(s.shards)))
	var local []string
	for i, sh := range s.shards {
		local = local[:0]
		for _, r := range sh.rules {
			local = append(local, keys[r])
		}
		bw.Uvarint(uint64(shardLen(ms[i], local)))
		writeShard(bw, ms[i], local)
	}
	return bw.Flush()
}

// DecodeSet reads a set blob written by Encode and reassembles a live
// Set for the rules identified by keys: every decoded shard's key
// multiset must be satisfiable from keys, and together the shards must
// cover every rule exactly once — anything else (corruption, a snapshot
// for a different rule list) is an error, never a silently wrong Set.
// Each shard frame is read once into one buffer, reused from shard to
// shard, and decoded in place.
func DecodeSet(r io.Reader, keys []string, o Options) (*Set, error) {
	o = o.withDefaults()
	magic := make([]byte, len(setMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, fmt.Errorf("multi: reading set magic: %w", err)
	}
	if string(magic) != setMagic {
		return nil, fmt.Errorf("multi: bad set magic %q", magic)
	}
	nrules, err := binio.ReadCount(r, maxShardRules, "rule")
	if err != nil {
		return nil, err
	}
	if nrules != len(keys) {
		return nil, fmt.Errorf("multi: snapshot has %d rules, loading rule set has %d", nrules, len(keys))
	}
	planShards, err := binio.ReadCount(r, maxShardRules, "plan shard")
	if err != nil {
		return nil, err
	}
	nshards, err := binio.ReadCount(r, maxShardRules, "shard")
	if err != nil {
		return nil, err
	}
	if nshards == 0 || nshards > nrules {
		return nil, fmt.Errorf("multi: implausible shard count %d for %d rules", nshards, nrules)
	}

	// Multiset of rule indices per key, consumed front-to-back so
	// duplicate patterns pair up deterministically (the Recompile rule).
	byKey := make(map[string][]int, len(keys))
	for i, k := range keys {
		byKey[k] = append(byKey[k], i)
	}
	assigned := 0
	shards := make([]*shard, 0, nshards)
	var frame []byte
	for i := 0; i < nshards; i++ {
		blobLen, err := binio.ReadCount(r, maxShardBlob, "shard blob byte")
		if err != nil {
			return nil, err
		}
		if frame, err = binio.Append(r, frame[:0], blobLen); err != nil {
			return nil, fmt.Errorf("multi: shard %d: reading frame: %w", i, err)
		}
		ds, err := decodeShard(frame, o)
		if err != nil {
			return nil, fmt.Errorf("multi: shard %d: %w", i, err)
		}
		rules := make([]int, len(ds.Keys))
		for j, k := range ds.Keys {
			q := byKey[k]
			if len(q) == 0 {
				return nil, fmt.Errorf("multi: shard %d covers a rule not in the loading set (key %.32q…)", i, k)
			}
			rules[j], byKey[k] = q[0], q[1:]
		}
		assigned += len(rules)
		shards = append(shards, &shard{m: ds.m, rules: rules})
	}
	if assigned != nrules {
		return nil, fmt.Errorf("multi: shards cover %d of %d rules", assigned, nrules)
	}
	sort.Slice(shards, func(i, j int) bool { return shards[i].rules[0] < shards[j].rules[0] })
	s := newSet(shards, nrules, o.Pool)
	s.stats = o.Stats
	// planShards is Recompile's consolidation baseline; it may
	// legitimately differ from the current shard count in either
	// direction (incremental adds, removals of reused shards).
	s.planShards = planShards
	if s.planShards == 0 {
		s.planShards = len(shards)
	}
	// Decoded engines are membership-keyed, so arming (or not arming) the
	// prefilter never invalidates them; callers that want filtered scans
	// re-extract from the rule definitions and pass the infos here.
	s.armPrefilter(o.Prefilter)
	return s, nil
}

// Cached size estimates. The planner needs every rule's capped D-SFA
// dry run just to pack bins — on a fully warm build those dry runs ARE
// the remaining cold cost (the shards themselves load from disk). An
// estimate is a pure function of the rule's identity key and the shard
// budget (the pipeline is deterministic), so it is cached as a tiny
// sibling entry and a warm build plans without constructing anything.

const estMagic = "SFA\x01EST\x01"

// estCacheKey addresses a rule's cached estimate under a budget.
func estCacheKey(ruleKey string, budget int) string {
	h := sha256.Sum256([]byte(fmt.Sprintf("est\x00%d\x00%s", budget, ruleKey)))
	return fmt.Sprintf("%x", h[:])
}

// loadCachedEst returns the cached (est, dfaStates, fits-budget) for a
// rule, if present and intact.
func loadCachedEst(ruleKey string, o Options) (est, states int, fits, ok bool) {
	rc, found := o.Cache.Load(estCacheKey(ruleKey, o.SFABudget))
	if !found {
		return 0, 0, false, false
	}
	defer rc.Close()
	cr := binio.NewCRCReader(rc)
	magic := make([]byte, len(estMagic))
	if _, err := io.ReadFull(cr, magic); err != nil || string(magic) != estMagic {
		return 0, 0, false, false
	}
	var fb [1]byte
	if _, err := io.ReadFull(cr, fb[:]); err != nil || fb[0] > 1 {
		return 0, 0, false, false
	}
	est, err := binio.ReadCount(cr, uint64(o.SFABudget)+1, "estimate")
	if err != nil || est < 1 {
		return 0, 0, false, false
	}
	states, err = binio.ReadCount(cr, 1<<28, "component DFA state")
	if err != nil || states < 1 {
		return 0, 0, false, false
	}
	var crc4 [4]byte
	if _, err := io.ReadFull(rc, crc4[:]); err != nil {
		return 0, 0, false, false
	}
	if binary.LittleEndian.Uint32(crc4[:]) != cr.Sum32() {
		return 0, 0, false, false
	}
	return est, states, fb[0] == 1, true
}

// storeCachedEst persists a rule's estimate and component-DFA size,
// best-effort.
func storeCachedEst(ruleKey string, est, states int, fits bool, o Options) {
	_ = o.Cache.Store(estCacheKey(ruleKey, o.SFABudget), func(w io.Writer) error {
		h := binio.NewCRC32C()
		cw := io.MultiWriter(w, h)
		if _, err := io.WriteString(cw, estMagic); err != nil {
			return err
		}
		fb := byte(0)
		if fits {
			fb = 1
		}
		if _, err := cw.Write([]byte{fb}); err != nil {
			return err
		}
		if err := binio.WriteUvarint(cw, uint64(est)); err != nil {
			return err
		}
		if err := binio.WriteUvarint(cw, uint64(states)); err != nil {
			return err
		}
		var crc4 [4]byte
		binary.LittleEndian.PutUint32(crc4[:], h.Sum32())
		_, err := w.Write(crc4[:])
		return err
	})
}

// Cached budget failures. The merge pass (and blow-up splitting) learns
// which rule combinations exceed their budgets by paying for a capped
// construction attempt that fails — a few hundred milliseconds each. On
// a warm build those doomed attempts would be re-paid verbatim, so a
// budget failure is recorded as a tombstone keyed by membership AND both
// budgets (a bigger budget must retry honestly). A tombstone only
// short-circuits to the same ErrBudget the deterministic attempt would
// produce; a stale or corrupt one merely costs the attempt again.

const failMagic = "SFA\x01NOP\x01"

// failCacheKey addresses a budget-failure tombstone, keyed like
// shardCacheKey (the "t" included).
func failCacheKey(shardKey string, o Options) string {
	h := sha256.Sum256([]byte(fmt.Sprintf("fail\x00%d\x00%d\x00t\x00%s", o.DFABudget, o.SFABudget, shardKey)))
	return fmt.Sprintf("%x", h[:])
}

// hasFailMarker reports a recorded budget failure for this membership
// under these budgets.
func hasFailMarker(shardKey string, o Options) bool {
	rc, ok := o.Cache.Load(failCacheKey(shardKey, o))
	if !ok {
		return false
	}
	defer rc.Close()
	magic := make([]byte, len(failMagic))
	if _, err := io.ReadFull(rc, magic); err != nil {
		return false
	}
	return string(magic) == failMagic
}

// storeFailMarker records a budget failure, best-effort.
func storeFailMarker(shardKey string, o Options) {
	_ = o.Cache.Store(failCacheKey(shardKey, o), func(w io.Writer) error {
		_, err := io.WriteString(w, failMagic)
		return err
	})
}
