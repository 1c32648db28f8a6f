package engine

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dfa"
)

// countTask records which chunk indices ran.
type countTask struct {
	job  jobState
	hits []atomic.Int32
}

func (t *countTask) runChunk(i int) { t.hits[i].Add(1) }

func TestPoolRunsEveryChunkExactlyOnce(t *testing.T) {
	p := NewPool(3)
	for _, n := range []int{0, 1, 2, 3, 7, 64, 200} {
		task := &countTask{hits: make([]atomic.Int32, max(n, 1))}
		p.Run(task, &task.job, n)
		for i := 0; i < n; i++ {
			if got := task.hits[i].Load(); got != 1 {
				t.Fatalf("n=%d: chunk %d ran %d times", n, i, got)
			}
		}
	}
}

func TestPoolReusedAcrossRuns(t *testing.T) {
	p := NewPool(2)
	task := &countTask{hits: make([]atomic.Int32, 8)}
	for r := 0; r < 50; r++ {
		p.Run(task, &task.job, 8)
	}
	for i := range task.hits {
		if got := task.hits[i].Load(); got != 50 {
			t.Fatalf("chunk %d ran %d times, want 50", i, got)
		}
	}
}

// TestPoolNestedMapNoDeadlock saturates a tiny pool with Pool.Map tasks
// that each run a pooled parallel matcher on the same pool — the nesting
// a block-parallel rule-set Scan (workers ≠ 1) runs, and the pattern that
// deadlocks a naive fixed-worker design. The helping waiter protocol must
// keep it live.
func TestPoolNestedMapNoDeadlock(t *testing.T) {
	pool := NewPool(2) // fewer workers than outstanding jobs
	d := dfa.MustCompilePattern("(ab)*")
	s, err := core.BuildDSFA(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	inner := NewSFAParallel(s, 8, ReduceTree, WithPool(pool))

	inputs := make([][]byte, 300)
	for i := range inputs {
		inputs[i] = bytes.Repeat([]byte("ab"), i)
	}
	got := make([]bool, len(inputs))
	done := make(chan struct{})
	go func() {
		var next atomic.Int64
		pool.Map(16, func(int) {
			for i := int(next.Add(1)) - 1; i < len(inputs); i = int(next.Add(1)) - 1 {
				got[i] = inner.Match(inputs[i])
			}
		})
		close(done)
	}()
	select {
	case <-done:
		for i, ok := range got {
			if !ok {
				t.Fatalf("input %d rejected", i)
			}
		}
	case <-time.After(30 * time.Second):
		t.Fatal("nested Map over shared pool deadlocked")
	}
}

// TestConcurrentMatchSharedEngine hammers one pooled engine from many
// goroutines; run with -race this is the concurrent-Match guarantee of
// the sync.Pool match contexts.
func TestConcurrentMatchSharedEngine(t *testing.T) {
	d := dfa.MustCompilePattern("([0-4]{2}[5-9]{2})*")
	s, err := core.BuildDSFA(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, red := range []Reduction{ReduceSequential, ReduceTree} {
		m := NewSFAParallel(s, 4, red)
		yes := bytes.Repeat([]byte("0055"), 1000)
		no := append(bytes.Repeat([]byte("0055"), 1000), 'x')
		var wg sync.WaitGroup
		errs := make(chan string, 16)
		for g := 0; g < 16; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for k := 0; k < 50; k++ {
					if !m.Match(yes) {
						errs <- "rejected accepted input"
						return
					}
					if m.Match(no) {
						errs <- "accepted rejected input"
						return
					}
				}
			}(g)
		}
		wg.Wait()
		select {
		case e := <-errs:
			t.Fatalf("%v: %s", red, e)
		default:
		}
	}
}

// TestPooledMatchZeroAllocSteadyState is the hot-path guardrail: after
// warm-up, a pooled Match must not allocate. The bound is < 0.5 rather
// than exactly 0 only to tolerate a GC clearing the context pool
// mid-measurement.
func TestPooledMatchZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; allocs/op is only meaningful without -race")
	}
	d := dfa.MustCompilePattern("([0-4]{2}[5-9]{2})*")
	s, err := core.BuildDSFA(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	text := bytes.Repeat([]byte("0055"), 4096)
	for _, red := range []Reduction{ReduceSequential, ReduceTree} {
		m := NewSFAParallel(s, 4, red)
		for i := 0; i < 10; i++ { // warm the context pool and the worker pool
			m.Match(text)
		}
		avg := testing.AllocsPerRun(100, func() { m.Match(text) })
		if avg >= 0.5 {
			t.Errorf("%v: pooled Match allocates %.2f allocs/op in steady state", red, avg)
		}
	}
	// The speculative engine's pooled path has the same guarantee.
	spec := NewDFASpeculative(d, 4, ReduceTree)
	for i := 0; i < 10; i++ {
		spec.Match(text)
	}
	if avg := testing.AllocsPerRun(100, func() { spec.Match(text) }); avg >= 0.5 {
		t.Errorf("spec: pooled Match allocates %.2f allocs/op in steady state", avg)
	}
}

func TestSpanMatchesChunks(t *testing.T) {
	for n := 0; n < 100; n++ {
		for p := 1; p <= 12; p++ {
			spans := chunks(n, p)
			for i := 0; i < p; i++ {
				lo, hi := span(n, p, i)
				if lo != spans[i][0] || hi != spans[i][1] {
					t.Fatalf("span(%d,%d,%d) = [%d,%d), chunks = %v", n, p, i, lo, hi, spans[i])
				}
			}
		}
	}
}
