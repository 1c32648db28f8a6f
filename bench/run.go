package main

import (
	"fmt"
	"maps"
	"math"
	"os"
	"runtime"
	"slices"
	"time"
)

// Shape of one run. The driver's --seconds is the length of the timed
// windows; warm-up and set-ups come on top.
const (
	coldSetups    = 3  // setup_s is their median (runCfg.setups)
	timedWindows  = 10 // W
	tracedWindows = 8  // the traced run measures for a shorter time
	// noisyIQR flags a run: on a quiet box the windows of one run differ
	// by 1–5 %; beyond 10 % something else was using the machine.
	noisyIQR = 0.10
)

// result is everything one run of one workload produced.
type result struct {
	Workload string      `json:"workload"`
	Why      string      `json:"why"`
	Seed     int64       `json:"seed"`
	Seconds  float64     `json:"seconds"`
	Traced   bool        `json:"traced"`
	Callers  int         `json:"callers"`
	Env      environment `json:"env"`
	Inputs   string      `json:"inputs"`

	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	// Metrics is what the driver's line carries: every end-to-end metric
	// of an untraced run, every per-layer metric of a traced one.
	Metrics map[string]value `json:"metrics"`
	// Windows has, for each windowed metric, the spread beside the median.
	Windows map[string]windowed `json:"windows,omitempty"`
	Setups  []float64           `json:"setup_runs_s,omitempty"`
	// TailPct is the percentile op_tail_us takes of each window,
	// TailSupported the highest a window's sample count supports (ten
	// samples beyond it).
	TailPct       float64 `json:"tail_pct,omitempty"`
	TailSupported float64 `json:"tail_supported_pct,omitempty"`
	Samples       int     `json:"latency_samples,omitempty"`
	// Noisy lists the metrics whose IQR across windows exceeded noisyIQR:
	// the run happened on a disturbed box.
	Noisy     []string             `json:"noisy,omitempty"`
	TraceFile string               `json:"trace_file,omitempty"`
	Layers    map[string]layerTime `json:"trace_layers,omitempty"`
}

func (r *result) line() driverLine {
	return driverLine{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: r.Metrics}
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func heapAlloc() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// runWorkload performs one run of sc: the end-to-end run with tracing
// off, or the traced run that yields the per-layer rows.
func runWorkload(sc *scenario, rc *runCfg) (*result, error) {
	res := &result{Workload: sc.name, Why: sc.why, Seed: rc.seed, Seconds: rc.seconds, Traced: rc.traced,
		Callers: sc.numCallers(), Env: readEnvironment(rc.repoRoot), Metrics: map[string]value{}}
	prep, err := sc.prepare(rc)
	if err != nil {
		return nil, fmt.Errorf("%s: preparing inputs: %w", sc.name, err)
	}
	res.Inputs = prep.inputs
	if rc.traced {
		err = runTraced(sc, rc, prep, res)
	} else {
		err = runEndToEnd(sc, rc, prep, res)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", sc.name, err)
	}
	return res, nil
}

func runEndToEnd(sc *scenario, rc *runCfg, prep *prepared, res *result) error {
	heap0 := heapAlloc()
	var tg *target
	var retainedMB float64
	for i := 0; i < rc.setups; i++ {
		if tg != nil {
			tg.close()
			tg = nil
		}
		t0 := time.Now()
		next, err := prep.setup()
		if err != nil {
			return fmt.Errorf("cold set-up %d: %w", i+1, err)
		}
		res.Setups = append(res.Setups, time.Since(t0).Seconds())
		tg = next
		if i == 0 && tg.pid == 0 {
			// set-up's first op has run; what is alive now is what the
			// compiled rule set retains.
			retainedMB = (float64(heapAlloc()) - float64(heap0)) / 1e6
		}
	}
	defer tg.close()

	run := runWindows(tg, res.Callers, seconds(rc.seconds/10), seconds(rc.seconds), seconds(rc.seconds/timedWindows), false)
	if run.panicked != nil {
		return run.panicked
	}
	if tg.pid != 0 {
		kb, err := procStatusKB(tg.pid, "VmRSS")
		if err != nil {
			return fmt.Errorf("reading the server's memory: %w", err)
		}
		retainedMB = float64(kb) / 1024
	}

	attempted, failed, samples := run.totals()
	res.Attempted, res.Failed, res.Samples = attempted, failed, samples
	perWin := run.perWindow(tailPct)
	if attempted == failed || len(perWin["op_p50_us"]) == 0 {
		return fmt.Errorf("no op succeeded in the timed run (%d attempted)", attempted)
	}
	res.TailPct, res.TailSupported = tailPct, supportedTail(samples/len(perWin["op_p50_us"]))
	vals := map[string]float64{
		"setup_s":     median(res.Setups),
		"retained_mb": retainedMB,
		"ok_ratio":    float64(attempted-failed) / float64(attempted),
	}
	res.Windows = map[string]windowed{}
	for name, xs := range perWin {
		d, _ := findMetric(endToEnd, name)
		res.Windows[name] = reduceWindows(xs, d.Better)
		vals[name] = res.Windows[name].Best
	}
	for _, d := range endToEnd {
		v, ok := vals[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("end-to-end metric %s was not measured", d.Name)
		}
		res.Metrics[d.Name] = value{Value: v, Unit: d.Unit}
		if w, ok := res.Windows[d.Name]; ok && w.RelIQR > noisyIQR {
			res.Noisy = append(res.Noisy, d.Name)
		}
	}
	return nil
}

func runTraced(sc *scenario, rc *runCfg, prep *prepared, res *result) error {
	setup := prep.setup
	if prep.tracedSetup != nil {
		setup = prep.tracedSetup
	}
	tg, err := setup()
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	defer tg.close()

	// A quarter of the run each: untraced reference windows, then the
	// same windows with spans. The rest goes to the layer probes.
	total, wlen := seconds(rc.seconds/4), seconds(rc.seconds/4/tracedWindows)
	ref := runWindows(tg, res.Callers, seconds(rc.seconds/10), total, wlen, false)
	if ref.panicked != nil {
		return ref.panicked
	}
	traced := runWindows(tg, res.Callers, 0, total, wlen, true)
	if traced.panicked != nil {
		return traced.panicked
	}
	for _, r := range []*timedRun{ref, traced} {
		a, f, _ := r.totals()
		res.Attempted += a
		res.Failed += f
	}
	lanes := traced.tracers
	if tg.lane != nil {
		lanes = append(lanes, tg.lane())
	}
	spans, dropped := mergeTracers(lanes)
	res.Layers = selfTimes(spans)
	res.TraceFile, err = writeTrace(rc.outDir, traceFile{Workload: sc.name, Seed: rc.seed, Dropped: dropped, Layers: res.Layers, Spans: spans})
	if err != nil {
		return fmt.Errorf("writing the trace: %w", err)
	}

	lc := &layerCtx{probeDur: seconds(rc.seconds / 40), spans: spans, vals: map[string]float64{}}
	refOps, tracedOps := ref.perWindow(tailPct)["ops_per_s"], traced.perWindow(tailPct)["ops_per_s"]
	if r, t := median(refOps), median(tracedOps); r > 0 { // medians: both sides ran in the same minute
		lc.set("trace.overhead_pct", (r-t)/r*100)
	}
	lc.set("trace.spans", float64(len(spans)))
	if op := res.Layers["op"]; op.Count > 0 {
		lc.set("trace.harness_self_us", float64(op.SelfNs)/float64(op.Count)/1e3)
	}
	if err := prep.layers(lc); err != nil {
		return fmt.Errorf("layer probes: %w", err)
	}
	for _, d := range perLayer {
		res.Metrics[d.Name] = value{Value: lc.vals[d.Name], Unit: d.Unit}
	}
	return nil
}

// --- the human-readable report -----------------------------------------------

func (r *result) print(w *os.File) {
	mode := "tracing off"
	if r.Traced {
		mode = "traced run"
	}
	fmt.Fprintf(w, "\n== %s — seed %d, %g s, %d caller(s), closed loop, %s ==\n", r.Workload, r.Seed, r.Seconds, r.Callers, mode)
	fmt.Fprintf(w, "why: %s\n", r.Why)
	fmt.Fprintf(w, "inputs: %s\n", r.Inputs)
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	for _, d := range defs {
		v := r.Metrics[d.Name]
		if r.Traced && v.Value == 0 {
			continue // a layer this workload does not exercise
		}
		fmt.Fprintf(w, "  %-36s %14.4f %-6s", d.Name, v.Value, v.Unit)
		switch {
		case d.Name == "setup_s":
			fmt.Fprintf(w, " median of %d cold set-ups %.3f", len(r.Setups), r.Setups)
		case d.Name == "op_tail_us":
			fmt.Fprintf(w, " p%g of each window;", r.TailPct)
		case d.Name == "ok_ratio":
			fmt.Fprintf(w, " fail_ratio %g: %d failed of %d attempted", 1-v.Value, r.Failed, r.Attempted)
		case d.Name == "retained_mb":
			fmt.Fprintf(w, " one reading")
		}
		if win, ok := r.Windows[d.Name]; ok {
			fmt.Fprintf(w, " best of %d windows; their median %.4f, IQR %.1f %%; %d samples", win.Windows, win.Median, win.RelIQR*100, r.Samples)
		}
		if d.Moves != "" {
			fmt.Fprintf(w, " -> %s", d.Moves)
		}
		fmt.Fprintln(w)
	}
	if r.Traced {
		fmt.Fprintf(w, "  verified %d ops, %d failed; spans in %s; self time by span name:\n", r.Attempted, r.Failed, r.TraceFile)
		for _, name := range slices.Sorted(maps.Keys(r.Layers)) {
			lt := r.Layers[name]
			fmt.Fprintf(w, "    %-28s %8d spans, self %10.3f ms of %10.3f ms\n", name, lt.Count, float64(lt.SelfNs)/1e6, float64(lt.Total)/1e6)
		}
	}
	if len(r.Noisy) > 0 {
		fmt.Fprintf(w, "  NOISY: window IQR above 10 %% on %v — the box was disturbed, repeat the run\n", r.Noisy)
	}
	if !r.Traced && r.TailSupported < r.TailPct {
		fmt.Fprintf(w, "  note: a window's samples support p%g at most (ten beyond it); op_tail_us stays at p%g so that runs remain comparable\n", r.TailSupported, r.TailPct)
	}
	fmt.Fprintf(w, "  env: commit %s, %s, %s, nproc %d, GOMAXPROCS %d, load %.2f\n",
		r.Env.Commit, r.Env.GoVersion, r.Env.CPUModel, r.Env.NumCPU, r.Env.GOMAXPROCS, r.Env.Load1)
}
