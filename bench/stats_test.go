package main

import (
	"math"
	"slices"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentile(t *testing.T) {
	xs := []float64{40, 10, 30, 20} // unsorted on purpose; must not be reordered
	for _, c := range []struct{ p, want float64 }{{0, 10}, {25, 17.5}, {50, 25}, {75, 32.5}, {100, 40}} {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v, %g) = %g, want %g", xs, c.p, got, c.want)
		}
	}
	if xs[0] != 40 {
		t.Error("percentile sorted its argument in place")
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("single sample: got %g", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("empty sample must give NaN, not a number that looks measured")
	}
}

func TestRelIQR(t *testing.T) {
	// quartiles of 1..9 are 3 and 7, median 5.
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9}
	if got := relIQR(xs); !near(got, 0.8) {
		t.Errorf("relIQR = %g, want 0.8", got)
	}
	if relIQR([]float64{5}) != 0 || relIQR([]float64{0, 0, 0}) != 0 {
		t.Error("a single sample or a zero median has no spread to report")
	}
}

func TestTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 50}, {19, 50}, {20, 50}, {40, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {80000, 99}} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = p%g, want p%g", c.n, got, c.want)
		}
	}
	if samplesBeyond(1000, 99) != 10 || samplesBeyond(999, 99) != 9 {
		t.Error("samplesBeyond must floor")
	}
	// The fixed tail percentile is one of the candidates.
	if !slices.Contains(tailCandidates, tailPct) {
		t.Errorf("tail percentile p%g is not a candidate", tailPct)
	}
}

func TestWindowedMedianAndPerWindowPercentile(t *testing.T) {
	ms := time.Millisecond
	// Two callers, two windows each. Caller 1 closes a third window that
	// has no partner and must be dropped.
	r := &timedRun{windows: [][]window{
		{{dur: 100 * ms, ops: 10, bytes: 1e6, latUs: []float64{1, 2, 3}, cpu: 60 * ms}, {dur: 200 * ms, ops: 10, failed: 2, bytes: 4e6, latUs: []float64{10, 20}, cpu: 80 * ms}},
		{{dur: 100 * ms, ops: 20, bytes: 3e6, latUs: []float64{4, 5}}, {dur: 100 * ms, ops: 30, bytes: 1e6, latUs: []float64{30}}, {dur: 100 * ms, ops: 1}},
	}}
	pw := r.perWindow(100)
	mbps, ops, p50, tail, cpu := pw["mbps"], pw["ops_per_s"], pw["op_p50_us"], pw["op_tail_us"], pw["cpu_us_per_op"]
	if len(mbps) != 2 || !near(mbps[0], 40) || !near(mbps[1], 30) {
		t.Errorf("mbps per window = %v, want [40 30]: rates add across callers", mbps)
	}
	if !near(ops[0], 300) || !near(ops[1], 340) {
		t.Errorf("ops/s per window = %v, want [300 340]: failed ops do not count", ops)
	}
	if !near(p50[0], 3) || !near(p50[1], 20) {
		t.Errorf("p50 per window = %v, want [3 20]: latencies pool across callers", p50)
	}
	if !near(tail[0], 5) || !near(tail[1], 30) {
		t.Errorf("tail per window = %v, want the maxima [5 30] at p100", tail)
	}
	if !near(cpu[0], 2000) || !near(cpu[1], 2000) {
		t.Errorf("cpu us/op per window = %v, want [2000 2000]: caller 0's reading over every caller's ops", cpu)
	}
	w := reduceWindows(mbps, "higher")
	if !near(w.Median, 35) || !near(w.Best, 40) || w.Windows != 2 {
		t.Errorf("reduceWindows = %+v", w)
	}
	if w := reduceWindows(p50, "lower"); !near(w.Best, 3) {
		t.Errorf("the best window of a lower-is-better metric is its minimum, got %+v", w)
	}
	if attempted, failed, samples := r.totals(); attempted != 71 || failed != 2 || samples != 8 {
		t.Errorf("totals = %d %d %d", attempted, failed, samples)
	}
}
