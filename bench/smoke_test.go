package main

import (
	"os"
	"testing"
)

func smokeCfg(t *testing.T, traced bool) *runCfg {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root, err := repoRootFrom(wd)
	if err != nil {
		t.Fatal(err)
	}
	// Windows of 100 ms — shorter ones are below the 10 ms tick of the CPU
	// clock — and one cold set-up, not three.
	return &runCfg{seed: 1, seconds: 1, setups: 1, traced: traced, repoRoot: root, outDir: t.TempDir()}
}

// TestSmokeEveryWorkload drives every workload end to end — the spawned
// sfaserve included — for 100 ms windows and checks what the driver will
// check: no failed op, and every end-to-end metric present and non-zero.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns servers and builds rule sets")
	}
	defer killChildren()
	for _, sc := range scenarios {
		res, err := runWorkload(sc, smokeCfg(t, false))
		if err != nil {
			t.Fatalf("%v", err)
		}
		if res.Failed != 0 || res.Attempted == 0 || !res.line().Correct {
			t.Errorf("%s: %d failed of %d attempted", sc.name, res.Failed, res.Attempted)
		}
		for _, d := range endToEnd {
			if v, ok := res.Metrics[d.Name]; !ok || v.Value <= 0 || v.Unit != d.Unit {
				t.Errorf("%s: %s = %+v, want a positive value in %s", sc.name, d.Name, v, d.Unit)
			}
		}
		if len(res.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d metrics, want exactly the %d end-to-end ones", sc.name, len(res.Metrics), len(endToEnd))
		}
	}
	childMu.Lock()
	defer childMu.Unlock()
	if len(children) != 0 {
		t.Errorf("%d spawned servers still alive after the runs", len(children))
	}
}

// TestSmokeTraced runs the traced run of one in-process and one serve
// workload: every per-layer metric is present, the layer's own rows are
// non-zero, the span file is written, and the serve parts add up.
func TestSmokeTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a server and builds rule sets")
	}
	defer killChildren()
	for name, rows := range map[string][]string{
		"stream_compose": {"engine.compose_chunk_ns_per_byte", "core.compose_vec_ns", "multi.stream_write_ns_per_byte", "sfa.compose_mbps", "obs.instrumented_write_x", "trace.spans"},
		"serve_small":    {"serve.handler_us", "serve.net_us", "serve.match_us", "serve.rule_put_ms", "serve.peak_rss_mb", "trace.spans"},
	} {
		res, err := runWorkload(findScenario(name), smokeCfg(t, true))
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed != 0 || len(res.Metrics) != len(perLayer) {
			t.Errorf("%s: %d failed, %d metrics (want %d)", name, res.Failed, len(res.Metrics), len(perLayer))
		}
		for _, row := range rows {
			if res.Metrics[row].Value <= 0 {
				t.Errorf("%s: %s = %g, want it measured", name, row, res.Metrics[row].Value)
			}
		}
		if st, err := os.Stat(res.TraceFile); err != nil || st.Size() == 0 {
			t.Errorf("%s: span file %q: %v", name, res.TraceFile, err)
		}
		if name == "serve_small" {
			m := func(n string) float64 { return res.Metrics[n].Value }
			sum := m("serve.newstream_us") + m("serve.read_us") + m("serve.match_us") + m("serve.reply_encode_us") + m("serve.unaccounted_us")
			if !near(sum, m("serve.handler_us")) {
				t.Errorf("serve parts sum to %g us, handler_us is %g", sum, m("serve.handler_us"))
			}
			if m("serve.prefilter_us")+m("serve.compose_us")+m("serve.names_us") > m("serve.match_us")*1.5 {
				t.Errorf("parts of match_us exceed it: %v", res.Metrics)
			}
		}
	}
}

// TestWrongExpectationIsReported feeds the harness a deliberately wrong
// expected mask for one of the eight messages: the ops on that message
// must count as failed and show in ok_ratio and in the driver's line.
func TestWrongExpectationIsReported(t *testing.T) {
	in, err := newStreamInputs(1, false)
	if err != nil {
		t.Fatal(err)
	}
	in.want[1][0] ^= 1 // message 0 stays right, so the set-up's first op passes
	sc := findScenario("stream_chunks")
	res := &result{Callers: 1, Metrics: map[string]value{}}
	prep := &prepared{setup: func() (*target, error) { return setupStream(in) }}
	if err := runEndToEnd(sc, smokeCfg(t, false), prep, res); err != nil {
		t.Fatal(err)
	}
	if res.Failed == 0 || res.Failed >= res.Attempted {
		t.Fatalf("%d failed of %d attempted, want some but not all", res.Failed, res.Attempted)
	}
	want := float64(res.Attempted-res.Failed) / float64(res.Attempted)
	if got := res.Metrics["ok_ratio"].Value; !near(got, want) || got >= 1 {
		t.Errorf("ok_ratio = %g, want %g", got, want)
	}
	if res.line().Correct || res.line().Failed != res.Failed {
		t.Errorf("the driver's line hides the failures: %+v", res.line())
	}
}
