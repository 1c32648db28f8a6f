package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Prometheus text exposition (version 0.0.4), driven by a table of
// families. Each Family is declared once — name, type, help, and how to
// read its samples from a snapshot — and WriteProm writes the families
// in table order, each family's samples together under its one header
// block. This is the scrape path, not the hot path: it allocates freely
// (it runs once per /metrics request).

// Kind is a family's exposition type.
type Kind uint8

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

var kindNames = [...]string{KindCounter: "counter", KindGauge: "gauge", KindHistogram: "histogram"}

// Value is a sample's value; its type picks the family's: an int64 is a
// counter, a float64 a gauge, a HistogramSnapshot a histogram.
type Value interface {
	int64 | float64 | HistogramSnapshot
}

// KindOf returns the family type of a V-valued sample.
func KindOf[V Value]() Kind {
	var v V
	switch any(v).(type) {
	case int64:
		return KindCounter
	case float64:
		return KindGauge
	}
	return KindHistogram
}

// Family declares one metric family read from snapshots of type S.
type Family[S any] struct {
	Name string
	Kind Kind
	Help string
	// Read adds the family's samples from snap to out; a family that
	// adds none prints nothing, not even its header.
	Read func(snap S, out *Samples)
}

// Samples is where one family's Read puts its samples. Their family's
// # HELP and # TYPE lines go out before the first.
type Samples struct {
	w          *bufio.Writer
	name, help string
	kind       Kind
	started    bool
}

// WriteProm writes every family of fams, read from snap, to w.
func WriteProm[S any](w io.Writer, snap S, fams []Family[S]) error {
	bw := bufio.NewWriter(w)
	for _, f := range fams {
		f.Read(snap, &Samples{w: bw, name: f.Name, help: f.Help, kind: f.Kind})
	}
	return bw.Flush()
}

// Add writes one sample of out's family. labels are alternating key,
// value pairs. v's type must be the family's (see Value).
func Add[V Value](out *Samples, v V, labels ...string) {
	if k := KindOf[V](); k != out.kind {
		panic("obs: " + kindNames[k] + " sample for " + kindNames[out.kind] + " family " + out.name)
	}
	if !out.started {
		out.started = true
		if out.help != "" {
			fmt.Fprintf(out.w, "# HELP %s %s\n", out.name, escapeHelp(out.help))
		}
		fmt.Fprintf(out.w, "# TYPE %s %s\n", out.name, kindNames[out.kind])
	}
	switch v := any(v).(type) {
	case int64:
		fmt.Fprintf(out.w, "%s%s %d\n", out.name, labelString(labels), v)
	case float64:
		fmt.Fprintf(out.w, "%s%s %s\n", out.name, labelString(labels), strconv.FormatFloat(v, 'g', -1, 64))
	case HistogramSnapshot:
		out.histogram(v, labels)
	}
}

// histogram writes one histogram sample set: cumulative _bucket series,
// _sum and _count. Empty buckets outside the populated range are elided
// — fewer exposition lines, identical semantics, the le= edges are just
// a subset of the fixed log₂ boundaries.
func (out *Samples) histogram(s HistogramSnapshot, labels []string) {
	bucket := func(le string, n int64) {
		fmt.Fprintf(out.w, "%s_bucket%s %d\n", out.name, labelString(append(labels[:len(labels):len(labels)], "le", le)), n)
	}
	lo, hi := -1, -1
	for i, n := range s.Buckets {
		if n != 0 {
			if lo < 0 {
				lo = i
			}
			hi = i
		}
	}
	var cum int64
	for i := lo; lo >= 0 && i <= hi && i < NumBuckets-1; i++ {
		cum += s.Buckets[i]
		bucket(strconv.FormatInt(BucketUpper(i), 10), cum)
	}
	bucket("+Inf", s.Count)
	fmt.Fprintf(out.w, "%s_sum%s %d\n", out.name, labelString(labels), s.Sum)
	fmt.Fprintf(out.w, "%s_count%s %d\n", out.name, labelString(labels), s.Count)
}

// labelString renders alternating key, value pairs as {k="v",...};
// empty input renders as the empty string.
func labelString(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(kv[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(s)
}
