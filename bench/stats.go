package main

import (
	"math"
	"sort"
)

// minTail is the fewest samples a reported percentile must have beyond
// it: a p90 from 50 samples rests on 5 values and moves with each one.
const minTail = 10

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between the closest order statistics (numpy's default),
// or NaN for no samples. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// reportable reports whether the p-th percentile of n samples has at
// least minTail samples beyond it. The median always qualifies.
func reportable(n int, p float64) bool {
	beyond := int(math.Floor(float64(n) * (100 - p) / 100))
	return n > 0 && (p <= 50 || beyond >= minTail)
}

// quartiles returns the first quartile, median and third quartile of xs
// by the method of Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), so spreads computed here match a reader's.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := sorted(xs)
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(k int) float64 {
		m := len(s) + 1
		j := min(max(k*m/4, 1), len(s)-1)
		delta := float64(k*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// allowance is how far a metric may move from base before it counts as a
// change: the relative bound times |base|, but never less than the
// absolute floor (setup times of a few milliseconds would otherwise flag
// scheduler jitter).
func allowance(base, bound, floor float64) float64 {
	return math.Max(bound*math.Abs(base), floor)
}

// worse reports whether b is worse than a by more than allow, in the
// metric's better direction ("lower" or "higher").
func worse(a, b, allow float64, better string) bool {
	if better == "higher" {
		return a-b > allow
	}
	return b-a > allow
}

// beats reports whether b is strictly better than a.
func beats(a, b float64, better string) bool {
	if better == "higher" {
		return b > a
	}
	return b < a
}
