package obs

import (
	"sort"
	"sync/atomic"
)

// freqSlots is the fixed capacity of a StateFreq table. The premise of
// Ko-style speculative matching is that boundary states are *few* — a
// handful of hot states absorb almost all chunk boundaries — so 64
// slots is generous for the signal we need; anything past the probe
// budget lands in the overflow counter, which doubles as the "is the
// hot-state assumption even true for this workload" measurement.
const freqSlots = 64

// freqProbes bounds the linear probe so Record stays O(1) under
// adversarial state churn.
const freqProbes = 8

// StateFreq is a lossy, fixed-size, lock-free frequency table keyed by
// automaton state id. The zero value is ready to use. Record is a short
// CAS linear probe over atomics — no allocation, no lock — and is safe
// from concurrent goroutines. Intended use: one table per engine,
// recording the DFA state each chunk boundary lands in, to answer the
// speculation-viability question ("how concentrated are boundary
// states?") the ROADMAP's Ko et al. item needs.
type StateFreq struct {
	keys   [freqSlots]atomic.Int64 // state+1; 0 means empty
	counts [freqSlots]atomic.Int64
	other  atomic.Int64 // records that found no slot within the probe budget
}

// Record counts one occurrence of state.
//
//sfa:noalloc
func (f *StateFreq) Record(state int32) {
	k := int64(state) + 1
	i := int((uint32(state) * 0x9e3779b9) % freqSlots)
	for p := 0; p < freqProbes; p++ {
		slot := (i + p) % freqSlots
		cur := f.keys[slot].Load()
		if cur == k {
			f.counts[slot].Add(1)
			return
		}
		if cur == 0 {
			if f.keys[slot].CompareAndSwap(0, k) {
				f.counts[slot].Add(1)
				return
			}
			// Lost the race; the winner's key is now visible — retry
			// this slot as an occupied one.
			if f.keys[slot].Load() == k {
				f.counts[slot].Add(1)
				return
			}
		}
	}
	f.other.Add(1)
}

// StateCount is one (state, count) row of a StateFreq snapshot.
type StateCount struct {
	State int32 `json:"state"`
	Count int64 `json:"count"`
}

// TopKCoverage returns the fraction of all recorded boundaries that
// landed in the k hottest states of a StateFreq snapshot: Σ(top k
// counts) / (Σ all counts + other). The overflow counter is part of the
// denominator on purpose — states that did not fit the table are by
// definition not "hot", so overflow dilutes coverage exactly as it
// should. Returns 0 when nothing has been recorded. This single number
// is the ROADMAP's speculation-viability answer: Ko-style boundary
// prediction pays off when a small k already covers ~all boundaries.
func TopKCoverage(top []StateCount, other int64, k int) float64 {
	total := other
	for _, sc := range top {
		total += sc.Count
	}
	if total <= 0 || k <= 0 {
		return 0
	}
	if k > len(top) {
		k = len(top)
	}
	var hot int64
	for _, sc := range top[:k] {
		hot += sc.Count
	}
	return float64(hot) / float64(total)
}

// Snapshot returns the occupied rows sorted by descending count, plus
// the overflow count (records that did not fit the table).
func (f *StateFreq) Snapshot() (top []StateCount, other int64) {
	for i := 0; i < freqSlots; i++ {
		k := f.keys[i].Load()
		if k == 0 {
			continue
		}
		n := f.counts[i].Load()
		if n == 0 {
			continue
		}
		top = append(top, StateCount{State: int32(k - 1), Count: n})
	}
	sort.Slice(top, func(a, b int) bool {
		if top[a].Count != top[b].Count {
			return top[a].Count > top[b].Count
		}
		return top[a].State < top[b].State
	})
	return top, f.other.Load()
}
