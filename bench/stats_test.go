package main

import (
	"math"
	"testing"
)

func TestPercentile(t *testing.T) {
	xs := []float64{50, 15, 40, 20, 35}
	for _, c := range []struct{ p, want float64 }{
		{0, 15}, {25, 20}, {50, 35}, {90, 46}, {100, 50},
	} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 50 {
		t.Error("percentile reordered its input")
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples is not NaN")
	}
}

func TestReportableNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{1, 50, true}, {0, 50, false},
		{100, 90, true}, {99, 90, false},
		{1000, 99, true}, {999, 99, false},
	} {
		if got := reportable(c.n, c.p); got != c.want {
			t.Errorf("reportable(%d, p%v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{7}, [3]float64{7, 7, 7}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{1, 2, 3}, [3]float64{1, 2, 3}},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, [3]float64{1.75, 3.5, 5.25}},
		{[]float64{10, 20, 30, 40, 50, 60, 70}, [3]float64{20, 40, 60}},
	} {
		q1, med, q3 := quartiles(c.xs)
		if got := [3]float64{q1, med, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestAllowanceFloor(t *testing.T) {
	for _, c := range []struct{ base, bound, floor, want float64 }{
		{2, 0.1, 0.05, 0.2},     // relative bound dominates
		{0.02, 0.1, 0.05, 0.05}, // a few-ms setup time: the floor applies
		{-3, 0.1, 0, 0.3},
		{0, 0, 0, 0}, // fail_frac: any increase
	} {
		if got := allowance(c.base, c.bound, c.floor); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("allowance(%v, %v, %v) = %v, want %v", c.base, c.bound, c.floor, got, c.want)
		}
	}
}

func TestJudge(t *testing.T) {
	latency := metricSpec{Name: "op_s_p50", Better: "lower", Bound: 0.1}
	rate := metricSpec{Name: "jobs_per_s", Better: "higher", Bound: 0.1}
	setup := metricSpec{Name: "setup_s", Better: "lower", Bound: 0.1, Floor: 0.05}
	fails := metricSpec{Name: "fail_frac", Better: "lower"}
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.02, 0.98}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, c := range []struct {
		name string
		m    metricSpec
		a, b []float64
		want string
	}{
		{"slower past the bound", latency, steady, scale(steady, 1.2), "WORSE"},
		{"slower within the bound", latency, steady, scale(steady, 1.05), "same"},
		{"faster past the bound", latency, steady, scale(steady, 0.8), "better"},
		{"parent spread wider than the bound", latency, []float64{0.6, 1.4, 0.8, 1.2, 1.0}, []float64{1.05, 1.1, 0.95, 1.0, 1.0}, "unresolved"},
		{"wide spread but every run better", latency, []float64{0.6, 1.4, 0.8, 1.2, 1.0}, []float64{0.3, 0.4, 0.5, 0.35, 0.45}, "better"},
		{"throughput drop", rate, scale(steady, 100), scale(steady, 85), "WORSE"},
		{"throughput gain", rate, scale(steady, 100), scale(steady, 120), "better"},
		{"setup within the absolute floor", setup, []float64{0.01, 0.011, 0.01}, []float64{0.04, 0.041, 0.04}, "same"},
		{"setup past the absolute floor", setup, []float64{0.01, 0.011, 0.01}, []float64{0.07, 0.071, 0.07}, "WORSE"},
		{"any new failure", fails, []float64{0, 0, 0}, []float64{0.01, 0.01, 0}, "WORSE"},
	} {
		if got := judge(c.m, c.a, c.b); got.result != c.want {
			t.Errorf("%s: %s, want %s (%+v)", c.name, got.result, c.want, got)
		}
	}

	v := judge(latency, []float64{1, 1, 1, 1}, []float64{0.9, 1.1, 0.9, 1})
	if v.wins != 2 || v.pairs != 4 {
		t.Errorf("pair wins %d/%d, want 2/4 (a tie counts for neither side)", v.wins, v.pairs)
	}
}
