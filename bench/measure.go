package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"
)

// opTimeout is the per-op limit: an op that takes longer counts as
// failed. HTTP ops enforce it on the wire, so a hung server yields failed
// ops and not a hung benchmark; in-process ops are judged afterwards.
const opTimeout = 5 * time.Second

// opResult is what one closed-loop op reports: how many input bytes it
// pushed through the system and whether the verdict it got back was the
// expected one (wrong, failed, refused and timed-out all read !ok).
type opResult struct {
	bytes int
	ok    bool
}

// target is one set-up instance of the system under test.
type target struct {
	// op runs the i-th op of a caller and verifies its output. parent is
	// the zero live when tracing is off.
	op func(caller, i int, tr *tracer, parent live) opResult
	// close releases the instance (kills a spawned server).
	close func()
	// pid is the process whose CPU time and memory are the system's:
	// the spawned server, or 0 for this process (in-process workloads).
	pid int
	// loadProcs, when set, is the GOMAXPROCS of this process while it
	// drives the target. The callers of a spawned server share one P: on
	// a 2-CPU box that leaves a CPU to the server, which measured both
	// faster (14 k against 12 k requests/s) and steadier than letting the
	// load generator compete with it for both.
	loadProcs int
	// lane, when set, returns spans recorded on the target's side — the
	// replica's handler spans — to merge with the callers' lanes.
	lane func() *tracer
}

// window is one caller's run of consecutive ops lasting at least the
// window length. Windows are op-aligned — they close when an op ends —
// so a window's rate is exact however long one op takes.
type window struct {
	dur    time.Duration
	ops    int // attempted
	failed int
	bytes  int64         // of the ops that succeeded
	latUs  []float64     // of the ops that succeeded
	cpu    time.Duration // CPU the target's process used meanwhile; caller 0 reads it
}

// timedRun is the outcome of one warm-up + windows measurement.
type timedRun struct {
	windows  [][]window // [caller][i]
	tracers  []*tracer  // one lane per caller when traced
	panicked error
}

// runWindows drives tg closed-loop from `callers` goroutines: each warms
// up for warm (discarded), then all start together and run op-aligned
// windows of length wlen until total has elapsed. With traced set every
// caller records spans into its own lane.
func runWindows(tg *target, callers int, warm, total, wlen time.Duration, traced bool) *timedRun {
	run := &timedRun{windows: make([][]window, callers), tracers: make([]*tracer, callers)}
	if tg.loadProcs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(tg.loadProcs))
	}
	pid := tg.pid
	if pid == 0 {
		pid = os.Getpid()
	}
	var warmed, done sync.WaitGroup
	var mu sync.Mutex
	start := make(chan time.Time)
	warmed.Add(callers)
	done.Add(callers)
	for c := 0; c < callers; c++ {
		var tr *tracer
		if traced {
			tr = newTracer(c)
			run.tracers[c] = tr
		}
		go func(c int) {
			defer done.Done()
			// A panic in an op must not skip the clean-up that kills a
			// spawned server: report it as the run's error instead.
			signalled := false
			defer func() {
				if r := recover(); r != nil {
					mu.Lock()
					run.panicked = fmt.Errorf("caller %d panicked: %v", c, r)
					mu.Unlock()
					if !signalled {
						warmed.Done()
					}
				}
			}()
			i := 0
			for t0 := time.Now(); time.Since(t0) < warm; i++ {
				tg.op(c, i, nil, live{})
			}
			signalled = true
			warmed.Done()
			t0 := <-start
			w := window{}
			wstart := t0
			var cpu0 time.Duration
			if c == 0 {
				cpu0, _ = procCPU(pid) // no /proc: CPU reads 0 and the metric says so
			}
			for {
				root := tr.begin("op", live{})
				opStart := time.Now()
				res := tg.op(c, i, tr, root)
				d := time.Since(opStart)
				root.end()
				i++
				w.ops++
				if res.ok && d <= opTimeout {
					w.bytes += int64(res.bytes)
					w.latUs = append(w.latUs, float64(d.Nanoseconds())/1e3)
				} else {
					w.failed++
				}
				now := opStart.Add(d)
				if now.Sub(wstart) >= wlen {
					w.dur = now.Sub(wstart)
					if c == 0 {
						cpu1, _ := procCPU(pid)
						w.cpu, cpu0 = cpu1-cpu0, cpu1
					}
					run.windows[c] = append(run.windows[c], w)
					w, wstart = window{}, now
					if now.Sub(t0) >= total {
						return
					}
				}
			}
		}(c)
	}
	warmed.Wait()
	if run.panicked != nil {
		close(start) // zero time: callers that did warm up run one window and stop
		done.Wait()
		return run
	}
	t0 := time.Now()
	for c := 0; c < callers; c++ {
		start <- t0
	}
	done.Wait()
	return run
}

// totals sums every window of every caller; samples counts the ops that
// contributed a latency.
func (r *timedRun) totals() (attempted, failed, samples int) {
	for _, ws := range r.windows {
		for _, w := range ws {
			attempted += w.ops
			failed += w.failed
			samples += len(w.latUs)
		}
	}
	return
}

// perWindow folds the callers' i-th windows together: rates add (the
// callers ran side by side), latencies pool and are reduced to the
// window's median and its tailPct-th percentile, and the CPU caller 0
// read over its window is shared out over every caller's ops (the
// callers' windows start together and end within one op of each other).
// Callers may close a different number of windows; the shortest count is
// used. The result is keyed by end-to-end metric name.
func (r *timedRun) perWindow(tailPct float64) map[string][]float64 {
	var mbps, opsPerS, p50Us, tailUs, cpuUs []float64
	n := -1
	for _, ws := range r.windows {
		if n < 0 || len(ws) < n {
			n = len(ws)
		}
	}
	for i := 0; i < n; i++ {
		var mb, ops float64
		var lat []float64
		attempted := 0
		for _, ws := range r.windows {
			w := ws[i]
			s := w.dur.Seconds()
			mb += float64(w.bytes) / 1e6 / s
			ops += float64(w.ops-w.failed) / s
			lat = append(lat, w.latUs...)
			attempted += w.ops
		}
		mbps = append(mbps, mb)
		opsPerS = append(opsPerS, ops)
		cpuUs = append(cpuUs, float64(r.windows[0][i].cpu.Microseconds())/float64(attempted))
		if len(lat) > 0 {
			p50Us = append(p50Us, median(lat))
			tailUs = append(tailUs, percentile(lat, tailPct))
		}
	}
	return map[string][]float64{"mbps": mbps, "ops_per_s": opsPerS, "op_p50_us": p50Us, "op_tail_us": tailUs, "cpu_us_per_op": cpuUs}
}
