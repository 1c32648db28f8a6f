package obs

import (
	"runtime/metrics"
	"strings"
)

// runtimeSamples is the fixed set of runtime/metrics series the
// exposition surfaces: enough to answer "is a latency spike the engine
// or the runtime" (GC pauses, scheduling latency) plus the basic
// capacity gauges. Names failing to resolve on a future runtime degrade
// to absent series, never to a panic.
var runtimeSamples = []string{
	"/sched/goroutines:goroutines",
	"/memory/classes/heap/objects:bytes",
	"/memory/classes/total:bytes",
	"/gc/cycles/total:gc-cycles",
	"/gc/pauses:seconds",
	"/sched/latencies:seconds",
}

// RuntimeFamilies returns the runtimeSamples series as sfa_go_* gauge
// families, sampled from the Go runtime when written (snap is not read).
// Distribution-shaped series (GC pauses, scheduler latencies) are
// summarized to p50/p90/p99/max gauges in nanoseconds, named with an
// _ns suffix — the runtime's float64 histograms do not map onto our
// integer log₂ buckets, and quantile gauges are what dashboards want
// from them anyway.
func RuntimeFamilies[S any]() []Family[S] {
	kinds := map[string]metrics.ValueKind{}
	for _, d := range metrics.All() {
		kinds[d.Name] = d.Kind
	}
	fams := make([]Family[S], len(runtimeSamples))
	for i, name := range runtimeSamples {
		f := Family[S]{Name: promName(name), Kind: KindGauge, Help: "runtime/metrics " + name}
		if kinds[name] == metrics.KindFloat64Histogram {
			f.Name += "_ns"
			f.Help += " quantile, nanoseconds"
		}
		f.Read = func(_ S, out *Samples) {
			s := []metrics.Sample{{Name: name}}
			metrics.Read(s)
			switch s[0].Value.Kind() {
			case metrics.KindUint64:
				Add(out, float64(s[0].Value.Uint64()))
			case metrics.KindFloat64:
				Add(out, s[0].Value.Float64())
			case metrics.KindFloat64Histogram:
				h := s[0].Value.Float64Histogram()
				for _, q := range []struct {
					q     float64
					label string
				}{{0.5, "0.5"}, {0.9, "0.9"}, {0.99, "0.99"}, {1, "1"}} {
					Add(out, float64Quantile(h, q.q)*1e9, "q", q.label)
				}
			}
		}
		fams[i] = f
	}
	return fams
}

// promName maps a runtime/metrics name like "/gc/pauses:seconds" to
// "sfa_go_gc_pauses".
func promName(name string) string {
	name, _, _ = strings.Cut(name, ":")
	name = strings.TrimPrefix(name, "/")
	name = strings.NewReplacer("/", "_", "-", "_").Replace(name)
	return "sfa_go_" + name
}

// float64Quantile returns an upper bound for the q-quantile of a
// runtime float64 histogram (the upper edge of the bucket the quantile
// falls in; the histogram's +Inf tail reports the last finite edge).
func float64Quantile(h *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total-1))
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if cum > rank {
			// Buckets[i+1] is the upper edge of bucket i; clamp the
			// +Inf tail to the last finite edge.
			edge := h.Buckets[i+1]
			if isInf(edge) {
				edge = h.Buckets[len(h.Buckets)-2]
			}
			return edge
		}
	}
	edge := h.Buckets[len(h.Buckets)-1]
	if isInf(edge) {
		edge = h.Buckets[len(h.Buckets)-2]
	}
	return edge
}

func isInf(f float64) bool { return f > 1e308 || f < -1e308 }
