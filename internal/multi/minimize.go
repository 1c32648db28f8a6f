package multi

import (
	"repro/internal/dfa"
	"repro/internal/intern"
)

// minimizeMasked is Moore partition refinement generalized to bitmask
// acceptance: states are equivalent iff they carry the same accept mask
// AND reach mask-equivalent states on every byte class. dfa.Minimize
// cannot be reused here — its {F, Q∖F} initial partition would merge
// states whose rule sets differ — so the initial partition is by mask
// row and each round refines by transition signatures.
//
// The product DFA is reachable-only by construction, so no trim pass is
// needed. States of the result are renumbered in BFS order from the
// start, matching dfa.Minimize's canonical-order convention; the
// returned mask table is remapped in lockstep.
func minimizeMasked(d *dfa.DFA, masks []uint64, words int) (*dfa.DFA, []uint64) {
	n, nc := d.NumStates, d.BC.Count

	// Initial partition: states grouped by accept-mask row.
	block := make([]int32, n)
	rows := intern.New[uint64](words, 0, 64)
	for q := 0; q < n; q++ {
		block[q], _ = rows.Intern(masks[q*words : (q+1)*words])
	}
	blocks := rows.Len()

	// Refine until the block count stabilizes. Each round's signature is
	// the current block plus the successor blocks under every class, so
	// rounds only ever split blocks; at most n-1 rounds terminate.
	next := make([]int32, n)
	sig := make([]int32, nc+1)
	sigs := intern.New[int32](nc+1, 0, n)
	for {
		sigs.Reset()
		for q := 0; q < n; q++ {
			sig[0] = block[q]
			for c, to := range d.NextC[q*nc : (q+1)*nc] {
				sig[c+1] = block[to]
			}
			next[q], _ = sigs.Intern(sig)
		}
		if sigs.Len() == blocks {
			break
		}
		blocks = sigs.Len()
		block, next = next, block
	}

	if blocks == n {
		return d, masks // already minimal
	}

	// Renumber blocks in BFS order from the start state's block.
	order := make([]int32, blocks) // new id → old block id
	newID := make([]int32, blocks) // old block id → new id
	for i := range newID {
		newID[i] = -1
	}
	rep := make([]int32, blocks) // old block id → a member state
	for q := n - 1; q >= 0; q-- {
		rep[block[q]] = int32(q)
	}
	count := 0
	push := func(b int32) int32 {
		if newID[b] < 0 {
			newID[b] = int32(count)
			order[count] = b
			count++
		}
		return newID[b]
	}
	push(block[d.Start])
	for i := 0; i < count; i++ {
		base := int(rep[order[i]]) * nc
		for c := 0; c < nc; c++ {
			push(block[d.NextC[base+c]])
		}
	}

	m := dfa.New(count, d.BC)
	m.Start = newID[block[d.Start]]
	mmasks := make([]uint64, count*words)
	for i := 0; i < count; i++ {
		q := int(rep[order[i]])
		for c := 0; c < nc; c++ {
			m.NextC[i*nc+c] = newID[block[d.NextC[q*nc+c]]]
		}
		m.Accept[i] = d.Accept[q]
		copy(mmasks[i*words:(i+1)*words], masks[q*words:(q+1)*words])
	}
	m.DetectDead()
	return m, mmasks
}
