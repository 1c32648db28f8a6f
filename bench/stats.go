package main

import (
	"math"
	"slices"
	"sort"
)

// percentile returns the p-th percentile (0–100) of xs by linear
// interpolation between closest ranks — the "inclusive" method Python's
// statistics.quantiles(method="inclusive") and NumPy default to. xs need
// not be sorted; it is not modified. An empty sample yields NaN.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentileSorted(s, p)
}

func percentileSorted(s []float64, p float64) float64 {
	if len(s) == 1 {
		return s[0]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// relIQR is the distance between the first and third quartile as a share
// of the median: the spread figure printed beside every windowed metric
// and used for the noisy flag. 0 for fewer than two samples or a zero
// median.
func relIQR(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (percentile(xs, 75) - percentile(xs, 25)) / math.Abs(m)
}

// samplesBeyond is how many of n samples lie beyond the p-th percentile.
func samplesBeyond(n int, p float64) int {
	return int(math.Floor(float64(n) * (100 - p) / 100))
}

// tailCandidates are the percentiles a tail-latency metric may report,
// highest first.
var tailCandidates = []float64{99, 95, 90, 75, 50}

// supportedTail is the "at least ten samples beyond" rule: the highest
// candidate percentile that n samples support, or 50 when none does.
func supportedTail(n int) float64 {
	for _, p := range tailCandidates {
		if samplesBeyond(n, p) >= 10 {
			return p
		}
	}
	return 50
}

// windowed reduces per-window values to the reported figure. On a shared
// box interference only ever slows a window down — it never speeds one
// up — so the best window is the least disturbed one, and it is what the
// benchmark reports and the driver compares: over runs in a noisy hour
// the median window of serve_small spread by 40 %, the best window by
// 18 %. The median across windows and their relative IQR are printed
// beside it; in a quiet hour the three agree within a few percent.
type windowed struct {
	Best    float64   `json:"best"`
	Median  float64   `json:"median"`
	RelIQR  float64   `json:"rel_iqr"`
	Windows int       `json:"windows"`
	Values  []float64 `json:"values"` // per window, in time order
}

// reduceWindows takes the per-window values and which direction is good.
func reduceWindows(vals []float64, better string) windowed {
	w := windowed{Median: median(vals), RelIQR: relIQR(vals), Windows: len(vals), Values: vals}
	if len(vals) > 0 {
		w.Best = slices.Min(vals)
		if better == "higher" {
			w.Best = slices.Max(vals)
		}
	}
	return w
}
