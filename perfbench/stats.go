package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks. xs need not be sorted; it is not modified.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// quartiles matches Python's statistics.quantiles(xs, n=4) with its
// default "exclusive" method, the spread rule the benchmark is judged by.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s)
	if m == 0 {
		return 0, 0, 0
	}
	if m == 1 {
		return s[0], s[0], s[0]
	}
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * (m + 1) / 4
		delta := i*(m+1) - j*4
		j = min(max(j, 1), m-1)
		out[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2]
}

// geomean is the geometric mean of positive values (0 when empty).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// tailPercentile is the highest of p99/p90/p50 with at least ten samples
// beyond it for n samples, the rule every reported tail follows.
func tailPercentile(n int) float64 {
	for _, pct := range []int{99, 90} {
		if n*(100-pct) >= 10*100 {
			return float64(pct) / 100
		}
	}
	return 0.5
}

// msAll converts durations to milliseconds.
func msAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds() * 1e3
	}
	return out
}
