package engine

import (
	"context"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Pool is a fixed set of long-lived worker goroutines that execute the
// per-chunk work of the parallel engines. The paper's cost model charges
// Algorithm 5 one table lookup per byte per thread; on the seed engines
// every Match additionally paid p goroutine creations plus the scheduler
// wake-ups to place them — a constant-factor overhead that dominates the
// small-input regime of Fig. 10 and dilutes steady-state throughput under
// repeated traffic. A Pool parks its workers on a channel receive, so a
// steady-state Match performs zero goroutine creation: submission is a
// plain channel send of a small by-value request.
//
// Deadlock freedom under nesting (a block-parallel rule-set Scan runs
// Pool.Map tasks whose lock-step passes and engine calls submit their own
// chunks to the same pool) is guaranteed by two rules:
//
//  1. submission never blocks — when the queue is full the submitter runs
//     the chunk inline instead of waiting for a worker;
//  2. a goroutine waiting in Run first helps drain the queue until it
//     observes the queue empty; only then does it block, and at that
//     point every outstanding chunk of its job is already being executed
//     by some goroutine.
//
// Every queued request therefore has a guaranteed executor: an idle
// worker, a helping waiter, or (never having been queued) its submitter.
type Pool struct {
	reqs    chan poolReq
	workers int

	// Scheduling observability. All fields are obs primitives (sharded
	// atomics), updated from the submit and worker loops without locks
	// or allocation — the pooled hot path's 0 allocs/op gate covers
	// them. busyNs/idleNs are worker-side wall time executing chunks vs
	// parked on the queue; queueMax is the high-water queue depth
	// sampled at submission.
	submitted obs.Counter // chunks handed to the queue
	inline    obs.Counter // chunks run on the submitter (queue full)
	helped    obs.Counter // chunks drained by a waiting submitter
	busyNs    obs.Counter
	idleNs    obs.Counter
	queueMax  obs.Gauge
}

// PoolStats is a point-in-time view of a Pool's scheduling counters.
type PoolStats struct {
	Workers   int   `json:"workers"`
	QueueLen  int   `json:"queue_len"`
	QueueCap  int   `json:"queue_cap"`
	QueueMax  int64 `json:"queue_max"`
	Submitted int64 `json:"submitted"`
	Inline    int64 `json:"inline"`
	Helped    int64 `json:"helped"`
	BusyNs    int64 `json:"busy_ns"`
	IdleNs    int64 `json:"idle_ns"`
}

// Stats returns a relaxed snapshot of the pool's scheduling counters.
func (p *Pool) Stats() PoolStats {
	return PoolStats{
		Workers:   p.workers,
		QueueLen:  len(p.reqs),
		QueueCap:  cap(p.reqs),
		QueueMax:  p.queueMax.Load(),
		Submitted: p.submitted.Load(),
		Inline:    p.inline.Load(),
		Helped:    p.helped.Load(),
		BusyNs:    p.busyNs.Load(),
		IdleNs:    p.idleNs.Load(),
	}
}

// chunkTask is the unit of work a Pool executes: runChunk(i) processes
// piece i of the task. Implementations are the per-engine match contexts,
// which are recycled through sync.Pool so steady-state matching does not
// allocate.
type chunkTask interface {
	runChunk(i int)
}

// poolReq is passed by value through the request channel: one interface
// word pair, one pointer, one index — no allocation on submit.
type poolReq struct {
	t chunkTask
	j *jobState
	i int32
}

// jobState tracks completion of one Run call. It is embedded in the
// per-engine match contexts (not allocated per call): pending feeds the
// helper loop's exit check, wg provides the final blocking wait.
type jobState struct {
	pending atomic.Int32
	wg      sync.WaitGroup
}

func (j *jobState) begin(n int) {
	j.pending.Store(int32(n))
	j.wg.Add(n)
}

func (j *jobState) finish() {
	j.pending.Add(-1)
	j.wg.Done()
}

// NewPool starts a pool of `workers` goroutines (GOMAXPROCS when ≤ 0).
// Workers live for the life of the process; the pool has no Close — it is
// meant to be created once and shared, like the DefaultPool.
//
// This is the one place scan-path worker goroutines are born; everything
// else dispatches onto them.
//
//sfa:spawner
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	queue := 4 * workers
	if queue < 64 {
		queue = 64
	}
	p := &Pool{reqs: make(chan poolReq, queue), workers: workers}
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

// Workers returns the number of worker goroutines.
func (p *Pool) Workers() int { return p.workers }

func (p *Pool) worker() {
	// Label the goroutine once so CPU profiles attribute worker samples
	// to the pool (request-scoped tenant labels are layered on top by
	// the serve handler via pprof.Do).
	pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(),
		pprof.Labels("sfa_pool", "worker")))
	last := time.Now()
	for r := range p.reqs {
		start := time.Now()
		p.idleNs.Add(start.Sub(last).Nanoseconds())
		r.t.runChunk(int(r.i))
		r.j.finish()
		last = time.Now()
		p.busyNs.Add(last.Sub(start).Nanoseconds())
	}
}

var (
	defaultPoolOnce sync.Once
	defaultPool     *Pool
)

// DefaultPool returns the process-wide pool shared by every engine that
// was not given an explicit pool via WithPool. It is created on first use
// with GOMAXPROCS workers.
func DefaultPool() *Pool {
	defaultPoolOnce.Do(func() { defaultPool = NewPool(0) })
	return defaultPool
}

// funcTask adapts a plain closure to the chunkTask interface so callers
// outside the match hot path (e.g. multi's concurrent shard builds) can
// fan work out over the pool without implementing the unexported
// interface themselves.
type funcTask struct{ f func(int) }

func (t funcTask) runChunk(i int) { t.f(i) }

// Map executes f(i) for every i in [0, n) on the pool and returns when
// all calls have completed. Unlike the match path it allocates (one task
// box and one jobState per call) — it is the construction-time fan-out,
// not a hot path. f must be safe for concurrent invocation.
func (p *Pool) Map(n int, f func(int)) {
	var j jobState
	p.Run(funcTask{f: f}, &j, n)
}

// Run executes t.runChunk(i) for every i in [0, n) and returns when all
// have completed. Chunk 0 always runs on the calling goroutine (the
// caller would otherwise just block); chunks the queue cannot absorb run
// inline as well. While waiting for stragglers the caller helps drain the
// queue, which keeps nested Run calls live (see the type comment).
//
//sfa:noalloc
func (p *Pool) Run(t chunkTask, j *jobState, n int) {
	if n <= 1 {
		if n == 1 {
			t.runChunk(0)
		}
		return
	}
	j.begin(n - 1)
	for i := 1; i < n; i++ {
		select {
		case p.reqs <- poolReq{t: t, j: j, i: int32(i)}:
			p.submitted.Inc()
		default:
			t.runChunk(i)
			j.finish()
			p.inline.Inc()
		}
	}
	p.queueMax.Max(int64(len(p.reqs))) // relaxed high-water sample
	t.runChunk(0)
	for j.pending.Load() > 0 {
		select {
		case r := <-p.reqs:
			r.t.runChunk(int(r.i))
			r.j.finish()
			p.helped.Inc()
		default:
			// Queue observed empty: every chunk of this job was popped
			// (FIFO) and is finished or running on some goroutine now, so
			// the wait below cannot deadlock.
			j.wg.Wait()
			return
		}
	}
	j.wg.Wait() // counter already zero; resynchronizes the WaitGroup
}
