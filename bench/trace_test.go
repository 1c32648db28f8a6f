package main

import "testing"

func TestSelfTime(t *testing.T) {
	// op [0,100] has children a [10,40] and b [50,90]; a has child c [20,30].
	spans := []span{
		{ID: 1, Op: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Op: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 2, Op: 1, Name: "c", Start: 20, End: 30},
		{ID: 4, Parent: 1, Op: 1, Name: "b", Start: 50, End: 90},
		// a second op whose child outlasts it (clock skew across lanes):
		// self time is clamped at zero, never negative.
		{ID: 5, Op: 5, Name: "op", Start: 200, End: 210},
		{ID: 6, Parent: 5, Op: 5, Name: "a", Start: 200, End: 215},
	}
	got := selfTimes(spans)
	want := map[string]layerTime{
		"op": {Count: 2, Total: 110, SelfNs: 30},
		"a":  {Count: 2, Total: 45, SelfNs: 35},
		"b":  {Count: 1, Total: 40, SelfNs: 40},
		"c":  {Count: 1, Total: 10, SelfNs: 10},
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: %+v, want %+v", name, got[name], w)
		}
	}
}

func TestTracer(t *testing.T) {
	var off *tracer // tracing off: every call is a no-op
	l := off.begin("op", live{})
	off.begin("child", l).end()
	l.end()

	tr := newTracer(0)
	root := tr.begin("op", live{})
	child := tr.begin("sfa.RuleSet.MatchMask", root)
	child.end()
	root.end()
	spans, dropped := mergeTracers([]*tracer{tr, nil, newTracer(1)})
	if len(spans) != 2 || dropped != 0 {
		t.Fatalf("%d spans, %d dropped", len(spans), dropped)
	}
	op, call := spans[0], spans[1]
	if op.Name != "op" || call.Parent != op.ID || call.Op != op.ID || op.Op != op.ID || op.Parent != 0 {
		t.Errorf("spans of one op must share its id and name their cause: %+v %+v", op, call)
	}
	if call.Start < op.Start || call.End > op.End {
		t.Errorf("child [%d,%d] outside parent [%d,%d]", call.Start, call.End, op.Start, op.End)
	}

	tr.limit = 2
	tr.begin("extra", live{}).end()
	if _, dropped := mergeTracers([]*tracer{tr}); dropped != 1 {
		t.Errorf("a span beyond the limit must be counted as dropped, got %d", dropped)
	}
}
