package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// A span is one timed call the benchmark made into a layer. Spans are
// recorded by the benchmark's own files, around the calls; spans inside
// the program under test are a later change. All spans of one op share
// its Op id; Parent is the span that caused this one (0 = none).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Op     uint64 `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since traceEpoch
	End    int64  `json:"end_ns"`
}

// tracer keeps the spans of one goroutine in memory; tracers are merged
// when the run ends. A nil *tracer records nothing, which is how the
// untraced run shares the op code with the traced one.
type tracer struct {
	lane  uint64 // high bits of every id, so lanes never collide
	n     uint64
	spans []span
	limit int // spans kept; further ones are counted in dropped
	drops int
}

// maxSpansPerLane bounds the trace file: a serve_small run makes tens of
// thousands of requests per second, and the first spans of a steady
// workload look like the rest.
const maxSpansPerLane = 10000

// traceEpoch is the zero of every span's clock, so that the lanes of one
// run — callers and the replica's middleware — share a timeline.
var traceEpoch = time.Now()

func newTracer(lane int) *tracer {
	return &tracer{lane: uint64(lane+1) << 40, limit: maxSpansPerLane}
}

// live is an open span.
type live struct {
	t      *tracer
	id     uint64
	parent uint64
	op     uint64
	name   string
	start  time.Time
}

// begin opens a span. op 0 means "a new op": the span's own id becomes
// the op id its children inherit.
func (t *tracer) begin(name string, parent live) live {
	if t == nil {
		return live{}
	}
	t.n++
	id := t.lane | t.n
	op := parent.op
	if op == 0 {
		op = id
	}
	return live{t: t, id: id, parent: parent.id, op: op, name: name, start: time.Now()}
}

func (l live) end() {
	if l.t == nil {
		return
	}
	l.t.record(span{ID: l.id, Parent: l.parent, Op: l.op, Name: l.name,
		Start: l.start.Sub(traceEpoch).Nanoseconds(), End: time.Since(traceEpoch).Nanoseconds()})
}

// record stores a finished span; the timing middleware of the serve
// replica uses it directly for spans whose parent lives in another lane.
func (t *tracer) record(s span) {
	if len(t.spans) >= t.limit {
		t.drops++
		return
	}
	t.spans = append(t.spans, s)
}

// layerTime is what the trace says about one span name.
type layerTime struct {
	Count  int   `json:"count"`
	Total  int64 `json:"total_ns"`
	SelfNs int64 `json:"self_ns"` // Total minus the time its child spans cover
}

// selfTimes derives each layer's self time: a span's duration minus the
// part of it its child spans cover. Children of one parent never overlap
// here (each lane is one goroutine, and a cross-lane child lies inside
// its parent's blocking wait), so the covered part is the plain sum,
// clamped to the parent's own duration.
func selfTimes(spans []span) map[string]layerTime {
	covered := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]layerTime{}
	for _, s := range spans {
		d := s.End - s.Start
		lt := out[s.Name]
		lt.Count++
		lt.Total += d
		lt.SelfNs += d - min(covered[s.ID], d)
		out[s.Name] = lt
	}
	return out
}

// traceFile is what bench/out/trace.<workload>.json holds.
type traceFile struct {
	Workload string               `json:"workload"`
	Seed     int64                `json:"seed"`
	Dropped  int                  `json:"dropped_spans"`
	Layers   map[string]layerTime `json:"layers"`
	Spans    []span               `json:"spans"`
}

// mergeTracers gathers the lanes' spans in start order.
func mergeTracers(ts []*tracer) (spans []span, dropped int) {
	for _, t := range ts {
		if t != nil {
			spans = append(spans, t.spans...)
			dropped += t.drops
		}
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	return spans, dropped
}

func writeTrace(dir string, tf traceFile) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace."+tf.Workload+".json")
	b, err := json.Marshal(tf)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}
