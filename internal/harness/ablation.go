package harness

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dfa"
	"repro/internal/engine"
	"repro/internal/nfa"
	"repro/internal/syntax"
	"repro/internal/textgen"
)

// Ablations quantifies the implementation's main design choices:
//
//	A1 reduction order (sequential O(p) vs ⊙-tree),
//	A2 table layout (256-wide direct vs byte-class-compressed),
//	A3 precomputed vs on-the-fly SFA (Table III's cost amortized),
//	A4 Glushkov vs Thompson front-end,
//	A5 reduction cost growth with thread count.
func (c Config) Ablations() error {
	c = c.Defaults()
	size := c.TextMB << 20 / 2
	if size < 1<<20 {
		size = 1 << 20
	}

	// A1 + A5: reduction strategies across thread counts.
	c.header("Ablation A1/A5 — reduction order (r50)")
	d := dfa.MustCompilePattern("([0-4]{50}[5-9]{50})*")
	s, err := core.BuildDSFA(d, 0)
	if err != nil {
		return err
	}
	text := textgen.RnText(50, size, c.Seed)
	w := c.table()
	fmt.Fprintf(w, "threads\tseq-reduce GB/s\ttree-reduce GB/s\t\n")
	for p := 2; p <= c.MaxThreads; p *= 2 {
		mSeq := engine.NewSFAParallel(s, p, engine.ReduceSequential)
		mTree := engine.NewSFAParallel(s, p, engine.ReduceTree)
		gbSeq := gbPerSec(len(text), bestOf(c.Repeats, func() { mSeq.Match(text) }))
		gbTree := gbPerSec(len(text), bestOf(c.Repeats, func() { mTree.Match(text) }))
		fmt.Fprintf(w, "%d\t%.3f\t%.3f\t\n", p, gbSeq, gbTree)
	}
	w.Flush()

	// A2: table layout on a big-table pattern (the Fig. 8 regime). The
	// width-specialized layouts change the resident bytes per state —
	// the narrower the entry, the more of the automaton each cache level
	// holds — while LayoutClass trades footprint for an extra indirection.
	c.header(fmt.Sprintf("Ablation A2 — table layout (r%d)", c.Fig8N))
	dBig := dfa.MustCompilePattern(fmt.Sprintf("([0-4]{%d}[5-9]{%d})*", c.Fig8N, c.Fig8N))
	sBig, err := core.BuildDSFA(dBig, 0)
	if err != nil {
		return err
	}
	bigText := textgen.RnText(c.Fig8N, size, c.Seed)
	w2 := c.table()
	fmt.Fprintf(w2, "layout\ttable KiB\tGB/s\t\n")
	for _, l := range []engine.TableLayout{engine.LayoutAuto, engine.LayoutU16, engine.LayoutI32, engine.LayoutClass} {
		m := engine.NewSFAParallel(sBig, 2, engine.ReduceSequential, engine.WithLayout(l))
		gb := gbPerSec(len(bigText), bestOf(c.Repeats, func() { m.Match(bigText) }))
		kib := m.TableBytes() >> 10
		if l == engine.LayoutClass {
			kib = int64(sBig.NumStates*dBig.BC.Count*4) >> 10
		}
		name := l.String()
		if l == engine.LayoutAuto {
			name = fmt.Sprintf("auto→%s", m.Layout())
		}
		fmt.Fprintf(w2, "%s\t%d\t%.3f\t\n", name, kib, gb)
	}
	w2.Flush()

	// A3: precomputed vs lazy, single pass including construction.
	c.header("Ablation A3 — precomputed vs on-the-fly SFA (r50, one pass)")
	start := time.Now()
	sEager, err := core.BuildDSFA(d, 0)
	if err != nil {
		return err
	}
	mEager := engine.NewSFAParallel(sEager, 2, engine.ReduceSequential)
	mEager.Match(text)
	eager := time.Since(start)
	start = time.Now()
	mLazy, err := engine.NewSFALazy(d, 2, 0)
	if err != nil {
		return err
	}
	mLazy.Match(text)
	lazy := time.Since(start)
	c.printf("eager: build(%d states)+match = %.3f s\n", sEager.NumStates, eager.Seconds())
	c.printf("lazy:  match materializing %d states = %.3f s\n", mLazy.Stats().States, lazy.Seconds())

	// A4: front-end construction comparison.
	c.header("Ablation A4 — Glushkov vs Thompson front end")
	w = c.table()
	fmt.Fprintf(w, "pattern\tglushkov |N|\tthompson |N|\tsame min DFA\t\n")
	for _, pat := range []string{"(ab)*", "([0-4]{5}[5-9]{5})*", "(a|b)*abb", "(a|bc)*d?"} {
		node := syntax.MustParse(pat, 0)
		g, err := nfa.Glushkov(node)
		if err != nil {
			return err
		}
		th, err := nfa.Thompson(node)
		if err != nil {
			return err
		}
		dg, err := dfa.Determinize(g, 0)
		if err != nil {
			return err
		}
		dt, err := dfa.Determinize(th, 0)
		if err != nil {
			return err
		}
		same := dfa.Isomorphic(dfa.Minimize(dg), dfa.Minimize(dt))
		fmt.Fprintf(w, "%s\t%d\t%d\t%v\t\n", pat, g.NumStates, th.NumStates, same)
	}
	w.Flush()
	return nil
}
