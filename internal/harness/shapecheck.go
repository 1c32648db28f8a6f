package harness

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dfa"
	"repro/internal/engine"
	"repro/internal/monoid"
	"repro/internal/textgen"
)

// ShapeCheck programmatically verifies the paper's qualitative claims and
// prints PASS/FAIL per claim — a machine-checkable summary of the
// reproduction that CI can gate on (sizes are exact; performance claims
// are checked as inequalities with generous slack so scheduling noise
// does not flake).
func (c Config) ShapeCheck() error {
	c = c.Defaults()
	c.header("Shape check — the paper's claims as assertions")

	pass, fail := 0, 0
	report := func(name string, ok bool, detail string) {
		status := "PASS"
		if !ok {
			status = "FAIL"
			fail++
		} else {
			pass++
		}
		c.printf("%-4s %-58s %s\n", status, name, detail)
	}

	// -- Exact size claims (machine-independent). --
	sizes := []struct {
		pattern string
		d, s    int
		claim   string
	}{
		{"([0-4]{5}[5-9]{5})*", 10, 109, "Fig.6 sizes"},
		{"([0-4]{50}[5-9]{50})*", 100, 10099, "Fig.7 sizes"},
		{"(([02468][13579]){5})*", 10, 21, "Fig.10 sizes"},
		{"([0-4]{5}[5-9]{5})*|a*", 12, 110, "Fig.9 size arithmetic (n=5 analogue)"},
	}
	for _, x := range sizes {
		d := dfa.MustCompilePattern(x.pattern)
		s, err := core.BuildDSFA(d, 0)
		if err != nil {
			return err
		}
		report(x.claim, d.LiveSize() == x.d && s.LiveSize() == x.s,
			fmt.Sprintf("|D|=%d |Sd|=%d", d.LiveSize(), s.LiveSize()))
	}

	// |Sd| = |D|²+|D|−1 for the r_n family.
	lawOK := true
	for n := 1; n <= 12; n++ {
		d := dfa.MustCompilePattern(fmt.Sprintf("([0-4]{%d}[5-9]{%d})*", n, n))
		s, err := core.BuildDSFA(d, 0)
		if err != nil {
			return err
		}
		dl := d.LiveSize()
		if s.LiveSize() != dl*dl+dl-1 {
			lawOK = false
		}
	}
	report("r_n size law |Sd| = |D|²+|D|−1 (n ≤ 12)", lawOK, "")

	// Fact 2: |Sd| = |D|^|D|.
	d4, err := monoid.Fact2DFA(4)
	if err != nil {
		return err
	}
	s4, err := core.BuildDSFA(d4, 0)
	if err != nil {
		return err
	}
	report("Fact 2: |Sd| = |D|^|D| (n=4)", s4.NumStates == 256,
		fmt.Sprintf("|Sd|=%d", s4.NumStates))

	// Fact 1: exponential determinization.
	_, dF1, err := monoid.BuildFact1(8)
	if err != nil {
		return err
	}
	report("Fact 1: |D| = 2^(k+1) (k=8)", dF1.NumStates == 512,
		fmt.Sprintf("|D|=%d", dF1.NumStates))

	// -- Performance-shape claims (inequalities with slack). --
	size := c.TextMB << 20 / 4
	if size < 1<<20 {
		size = 1 << 20
	}

	// Claim: Algorithm 3's throughput decays with |D| (≥3× from |D|=10 to
	// |D|=100 on equal input; the theory says ~10×).
	t5 := specThroughput(t2Pattern(5), textgen.RnText(5, size/4, c.Seed), c.Repeats)
	t50 := specThroughput(t2Pattern(50), textgen.RnText(50, size/4, c.Seed), c.Repeats)
	report("Alg.3 throughput decays ≥3x per 10x |D|", t5 > 3*t50,
		fmt.Sprintf("%.4f vs %.4f GB/s", t5, t50))

	// Claim: Algorithm 5 pays no per-|D| factor while tables fit cache:
	// r5's SFA throughput within cache is far above Alg.3 at the same |D|.
	d5 := dfa.MustCompilePattern(t2Pattern(5))
	s5, err := core.BuildDSFA(d5, 0)
	if err != nil {
		return err
	}
	text5 := textgen.RnText(5, size, c.Seed)
	m5 := engine.NewSFAParallel(s5, 2, engine.ReduceSequential)
	m5.Match(text5) // warm up tables before timing
	sfa5 := gbPerSec(len(text5), bestOf(c.Repeats+1, func() { m5.Match(text5) }))
	report("Alg.5 ≥ Alg.3 at equal |D| and p", sfa5 > t5,
		fmt.Sprintf("%.3f vs %.3f GB/s", sfa5, t5))

	// Claim (Fig. 10): on sufficiently large input, SFA with 2 threads
	// beats the sequential DFA.
	dEO := dfa.MustCompilePattern("(([02468][13579]){5})*")
	sEO, err := core.BuildDSFA(dEO, 0)
	if err != nil {
		return err
	}
	big := textgen.EvenOddText(4<<20, c.Seed)
	seq := engine.NewDFASequential(dEO)
	par := engine.NewSFAParallel(sEO, 2, engine.ReduceSequential)
	tSeq := bestOf(c.Repeats*3, func() { seq.Match(big) })
	tPar := bestOf(c.Repeats*3, func() { par.Match(big) })
	report("Fig.10: SFA(2) beats DFA on 4 MiB input", tPar < tSeq,
		fmt.Sprintf("%.1f vs %.1f ms", float64(tPar.Microseconds())/1000,
			float64(tSeq.Microseconds())/1000))

	// Claim (Sect. V-A): lazy construction materializes ≤ input-length
	// states and far fewer than the full SFA for r50.
	dr50 := dfa.MustCompilePattern(t2Pattern(50))
	lazy, err := engine.NewSFALazy(dr50, 2, 0)
	if err != nil {
		return err
	}
	lt := textgen.RnText(50, 1<<20, c.Seed)
	lazy.Match(lt)
	report("lazy SFA visits ≪ full state set (r50)", lazy.Stats().States < 1000,
		fmt.Sprintf("%d of 10100 states", lazy.Stats().States))

	c.printf("\n%d passed, %d failed\n", pass, fail)
	if fail > 0 {
		return fmt.Errorf("harness: %d shape checks failed", fail)
	}
	return nil
}

func t2Pattern(n int) string {
	return fmt.Sprintf("([0-4]{%d}[5-9]{%d})*", n, n)
}

func specThroughput(pattern string, text []byte, repeats int) float64 {
	d := dfa.MustCompilePattern(pattern)
	m := engine.NewDFASpeculative(d, 2, engine.ReduceSequential)
	m.Match(text[:len(text)/8]) // warm up
	return gbPerSec(len(text), bestOf(repeats, func() { m.Match(text) }))
}
