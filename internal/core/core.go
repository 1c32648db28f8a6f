// Package core implements the paper's primary contribution: the
// simultaneous finite automaton (SFA).
//
// A state of an SFA is a mapping from the states of an original automaton
// A to (sets of) states of A; the initial SFA state is the identity
// mapping, and reading a symbol composes one more transition step onto the
// mapping (Definition 5). Because mapping composition is associative, the
// input text may be cut at arbitrary positions and each piece processed
// independently starting from the identity (Lemma 1, Theorem 3) — that is
// the data-parallel property the matching engines in package engine
// exploit.
//
// The construction here is the paper's D-SFA (Sect. IV): built from a
// DFA, a state is a transformation vector f: Q → Q (the DFA's dead sink
// makes the vector total), at most |D|^|D| states (Theorem 2). It is
// produced by the correspondence construction (Algorithm 4), a direct
// extension of the subset construction; a lazy, thread-safe variant
// constructs states on demand during matching (Sect. V-A, "on-the-fly
// construction").
//
// The paper's other SFA, the N-SFA over an ε-free NFA, is not built: its
// states are boolean matrices whose ⊙ is an O(|N|³) product (Table II),
// no figure or table this repository regenerates uses one (Sect. VII-B's
// N-SFA bound is only printed as a note), and the rule-set engines run
// on D-SFAs alone.
//
// Size convention: the paper reports automaton sizes without sink states.
// LiveSize excludes the everywhere-dead mapping, matching the paper's
// |Sd| = 109 / 10 099 / 1 000 999 for r5/r50/r500 and |S| = 21 for
// Fig. 10's pattern.
package core

// Interning hash for construction. Vectors are hashed once per candidate
// state and verified with eqVec16 on every bucket hit, so the hash only
// needs good bucket spread, not cryptographic strength — but it IS the
// hottest loop of Algorithm 4 (every subset/correspondence step hashes a
// |D|-entry vector). FNV-style multiplicative mixing over 64-bit words
// with a murmur-style finalizer is ~20× faster than the byte-at-a-time
// maphash it replaces and cut combined-ruleset construction in half.
const (
	hashOffset = 14695981039346656037
	hashPrime  = 1099511628211
)

// hashFinish avalanches the accumulated word (murmur3 fmix64).
func hashFinish(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// hashVec16 hashes a transformation vector, four entries per word.
func hashVec16(v []int16) uint64 {
	h := uint64(hashOffset)
	i := 0
	for ; i+4 <= len(v); i += 4 {
		w := uint64(uint16(v[i])) | uint64(uint16(v[i+1]))<<16 |
			uint64(uint16(v[i+2]))<<32 | uint64(uint16(v[i+3]))<<48
		h = (h ^ w) * hashPrime
	}
	for ; i < len(v); i++ {
		h = (h ^ uint64(uint16(v[i]))) * hashPrime
	}
	return hashFinish(h)
}

func eqVec16(a, b []int16) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
