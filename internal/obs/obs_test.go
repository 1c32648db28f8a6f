package obs

import (
	"io"
	"math/bits"
	"strings"
	"sync"
	"testing"
)

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	const gs, per = 8, 10000
	var wg sync.WaitGroup
	for g := 0; g < gs; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Load(); got != gs*per {
		t.Fatalf("Load = %d, want %d", got, gs*per)
	}
}

func TestGaugeMax(t *testing.T) {
	var g Gauge
	g.Max(5)
	g.Max(3)
	g.Max(9)
	if got := g.Load(); got != 9 {
		t.Fatalf("Max high-water = %d, want 9", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	for _, v := range []int64{0, 1, 2, 3, 4, 1023, 1024, -7} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 8 {
		t.Fatalf("Count = %d, want 8", s.Count)
	}
	// -7 clamps to 0, joining the real 0 in bucket 0.
	if s.Buckets[0] != 2 {
		t.Fatalf("bucket 0 = %d, want 2", s.Buckets[0])
	}
	if s.Buckets[1] != 1 { // v=1
		t.Fatalf("bucket 1 = %d, want 1", s.Buckets[1])
	}
	if s.Buckets[2] != 2 { // v=2,3
		t.Fatalf("bucket 2 = %d, want 2", s.Buckets[2])
	}
	if s.Buckets[10] != 1 { // v=1023
		t.Fatalf("bucket 10 = %d, want 1", s.Buckets[10])
	}
	if s.Buckets[11] != 1 { // v=1024
		t.Fatalf("bucket 11 = %d, want 1", s.Buckets[11])
	}
	if s.Sum != 0+1+2+3+4+1023+1024 {
		t.Fatalf("Sum = %d", s.Sum)
	}
	for _, v := range []int64{1, 5, 100, 1 << 20, 1 << 45, 1 << 62} {
		i := bits.Len64(uint64(v))
		if i >= NumBuckets {
			i = NumBuckets - 1
		}
		if up := BucketUpper(i); v > up && i < NumBuckets-1 {
			t.Fatalf("value %d exceeds its bucket upper bound %d", v, up)
		}
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	for i := 0; i < 99; i++ {
		h.Observe(100) // bucket 7, upper bound 127
	}
	h.Observe(1 << 20) // one outlier
	s := h.Snapshot()
	if q := s.Quantile(0.5); q != BucketUpper(7) {
		t.Fatalf("p50 = %d, want %d", q, BucketUpper(7))
	}
	if q := s.Quantile(1); q != BucketUpper(21) {
		t.Fatalf("max = %d, want %d", q, BucketUpper(21))
	}
}

func TestStateFreq(t *testing.T) {
	var f StateFreq
	for i := 0; i < 100; i++ {
		f.Record(3)
	}
	for i := 0; i < 10; i++ {
		f.Record(7)
	}
	f.Record(0)
	top, other := f.Snapshot()
	if other != 0 {
		t.Fatalf("other = %d, want 0", other)
	}
	if len(top) != 3 || top[0].State != 3 || top[0].Count != 100 || top[1].State != 7 {
		t.Fatalf("unexpected top: %+v", top)
	}
}

func TestStateFreqOverflow(t *testing.T) {
	var f StateFreq
	for s := int32(0); s < 10*freqSlots; s++ {
		f.Record(s)
	}
	top, other := f.Snapshot()
	var counted int64
	for _, r := range top {
		counted += r.Count
	}
	if counted+other != 10*freqSlots {
		t.Fatalf("counted %d + other %d != %d", counted, other, 10*freqSlots)
	}
	if other == 0 {
		t.Fatalf("expected overflow with %d distinct states", 10*freqSlots)
	}
}

func TestStateFreqConcurrent(t *testing.T) {
	var f StateFreq
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				f.Record(int32(g % 4))
			}
		}(g)
	}
	wg.Wait()
	top, other := f.Snapshot()
	var total int64
	for _, r := range top {
		total += r.Count
	}
	if total+other != 8000 {
		t.Fatalf("total %d + other %d != 8000", total, other)
	}
}

func TestScanStats(t *testing.T) {
	var s ScanStats
	s.RecordChunk(4096, 1500)
	s.RecordChunk(100, 50)
	snap := s.Snapshot()
	if snap.Chunks != 2 || snap.ChunkBytes != 4196 {
		t.Fatalf("snapshot: %+v", snap)
	}
	if snap.ComposeNs.Count != 2 || snap.ComposeNs.Sum != 1550 {
		t.Fatalf("compose histogram: %+v", snap.ComposeNs)
	}
}

// The whole point of the package: recording must not allocate.
func TestRecordPathZeroAlloc(t *testing.T) {
	var c Counter
	var g Gauge
	var h Histogram
	var f StateFreq
	var s ScanStats
	if n := testing.AllocsPerRun(100, func() {
		c.Add(3)
		g.Set(7)
		g.Max(9)
		h.Observe(12345)
		f.Record(5)
		s.RecordChunk(4096, 900)
	}); n != 0 {
		t.Fatalf("record path allocates %v allocs/op, want 0", n)
	}
}

// TestWriteProm checks the family driver: one header block per family
// with its samples together, no output for a family without samples,
// label escaping, and histogram buckets (elided outside the populated
// range, then +Inf, _sum and _count).
func TestWriteProm(t *testing.T) {
	var h Histogram
	h.Observe(3)
	h.Observe(200)
	type snap struct{ hist HistogramSnapshot }
	fams := []Family[snap]{
		{Name: "sfa_test_total", Kind: KindCounter, Help: "help text", Read: func(_ snap, out *Samples) {
			Add(out, int64(42), "tenant", `a"b`)
			Add(out, int64(7), "tenant", "c")
		}},
		{Name: "sfa_test_empty", Kind: KindGauge, Help: "never sampled", Read: func(snap, *Samples) {}},
		{Name: "sfa_test_gauge", Kind: KindGauge, Help: "a gauge", Read: func(_ snap, out *Samples) { Add(out, 1.5) }},
		{Name: "sfa_test_ns", Kind: KindHistogram, Help: "a histogram", Read: func(s snap, out *Samples) {
			Add(out, s.hist, "stage", "compose")
		}},
	}
	var b strings.Builder
	if err := WriteProm(&b, snap{h.Snapshot()}, fams); err != nil {
		t.Fatal(err)
	}
	want := `# HELP sfa_test_total help text
# TYPE sfa_test_total counter
sfa_test_total{tenant="a\"b"} 42
sfa_test_total{tenant="c"} 7
# HELP sfa_test_gauge a gauge
# TYPE sfa_test_gauge gauge
sfa_test_gauge 1.5
# HELP sfa_test_ns a histogram
# TYPE sfa_test_ns histogram
sfa_test_ns_bucket{stage="compose",le="3"} 1
sfa_test_ns_bucket{stage="compose",le="7"} 1
sfa_test_ns_bucket{stage="compose",le="15"} 1
sfa_test_ns_bucket{stage="compose",le="31"} 1
sfa_test_ns_bucket{stage="compose",le="63"} 1
sfa_test_ns_bucket{stage="compose",le="127"} 1
sfa_test_ns_bucket{stage="compose",le="255"} 2
sfa_test_ns_bucket{stage="compose",le="+Inf"} 2
sfa_test_ns_sum{stage="compose"} 203
sfa_test_ns_count{stage="compose"} 2
`
	if got := b.String(); got != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", got, want)
	}
}

// A sample whose type is not its family's is a table bug, caught on the
// first scrape.
func TestAddKindMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("gauge sample in a counter family did not panic")
		}
	}()
	fams := []Family[int]{{Name: "sfa_test_total", Kind: KindCounter, Read: func(_ int, out *Samples) { Add(out, 1.0) }}}
	WriteProm(io.Discard, 0, fams)
}

func TestWriteRuntimeMetrics(t *testing.T) {
	var b strings.Builder
	if err := WriteProm(&b, struct{}{}, RuntimeFamilies[struct{}]()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"sfa_go_sched_goroutines", "sfa_go_gc_pauses_ns"} {
		if !strings.Contains(out, want) {
			t.Fatalf("runtime exposition missing %q in:\n%s", want, out)
		}
	}
}
