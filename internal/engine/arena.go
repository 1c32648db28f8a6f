package engine

// Reduction arenas: reusable buffers for the ⊙-tree reductions of
// Algorithms 3 and 5. The seed implementations allocated a fresh result
// vector at every recursion level of the tree; here each match context
// owns an arena and the tree runs iteratively, composing adjacent pairs
// into slots of two ping-pong buffers — level k reads one buffer and
// writes the other, so no composition ever aliases its destination and
// steady-state reduction performs no allocation. The D-SFA engine folds
// int16 transformation vectors, the speculative-DFA engine int32 Q → Q
// mappings.
type reduceArena[T int16 | int32] struct {
	hdrs [][]T
	a, b []T
}

// vecs returns a reusable header slice of length p for gathering the
// per-chunk mapping views.
func (ar *reduceArena[T]) vecs(p int) [][]T {
	if cap(ar.hdrs) < p {
		ar.hdrs = make([][]T, p)
	}
	return ar.hdrs[:p]
}

func (ar *reduceArena[T]) buffers(p, n int) (a, b []T) {
	need := (p/2 + 1) * n
	if cap(ar.a) < need {
		ar.a = make([]T, need)
		ar.b = make([]T, need)
	}
	return ar.a[:need], ar.b[:need]
}

// treeReduce folds mappings pairwise with ⊙ into a final mapping. vecs
// is clobbered as scratch; the result aliases the arena (or vecs[0] when
// len(vecs) == 1).
func treeReduce[T int16 | int32](vecs [][]T, n int, ar *reduceArena[T]) []T {
	m := len(vecs)
	if m == 1 {
		return vecs[0]
	}
	cur, next := ar.buffers(m, n)
	for m > 1 {
		half := m / 2
		for i := 0; i < half; i++ {
			dst := cur[i*n : (i+1)*n]
			f, g := vecs[2*i][:n], vecs[2*i+1]
			for q := range dst {
				dst[q] = g[f[q]]
			}
			vecs[i] = dst
		}
		if m%2 == 1 {
			// Copy the odd vector into the current buffer so the next
			// level never reads from the buffer it writes.
			dst := cur[half*n : (half+1)*n]
			copy(dst, vecs[m-1])
			vecs[half] = dst
			half++
		}
		m = half
		cur, next = next, cur
	}
	_ = next
	return vecs[0]
}
