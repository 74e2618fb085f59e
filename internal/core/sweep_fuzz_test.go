package core_test

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/workloads"
)

// FuzzParseSweep fuzzes the sweep spec, an input that crosses the HTTP
// trust boundary verbatim. An accepted spec expands to between 2 and
// DefaultSweepPointCap distinct points, and its canonical Spec re-parses
// to the same axis and values. Whatever the spec, PointOptions and the
// planner never panic — the axis apply functions' mustAtoi/mustParseMesh
// guards only hold if validation and expansion agree — and the planner
// rejects every spec PointOptions rejects, since it plans through it. The
// checked-in corpus under testdata/fuzz seeds the spellings of sweep.go's
// header and the specs the CI smoke runs must reject.
func FuzzParseSweep(f *testing.F) {
	bases := []core.MatrixOptions{
		{Size: workloads.Tiny},
		{Size: workloads.Tiny, Router: "vc"},
		{Size: workloads.Tiny, Benchmarks: []string{"FFT"}, Protocols: []string{"MESI"}, MeshWidth: 4, MeshHeight: 4},
	}
	f.Fuzz(func(t *testing.T, spec string) {
		if spec == "" {
			return // RunOptions.Sweep "" means a matrix run, not a sweep spec
		}
		s, parseErr := core.ParseSweep(spec)
		for _, base := range bases {
			if err := core.Plan(base, core.RunOptions{Sweep: spec}); err != nil {
				continue
			}
			if parseErr != nil {
				t.Fatalf("Plan accepted %q, which ParseSweep rejects: %v", spec, parseErr)
			}
			if _, err := s.PointOptions(base); err != nil {
				t.Fatalf("Plan accepted %q over %+v, which PointOptions rejects: %v", spec, base, err)
			}
		}
		if parseErr != nil {
			return
		}
		if n := len(s.Values); n < 2 || n > core.DefaultSweepPointCap {
			t.Fatalf("%q expanded to %d points, want 2..%d", spec, n, core.DefaultSweepPointCap)
		}
		seen := make(map[string]bool, len(s.Values))
		for _, v := range s.Values {
			if seen[v] {
				t.Fatalf("%q expanded to duplicate point %q: %v", spec, v, s.Values)
			}
			seen[v] = true
		}
		again, err := core.ParseSweep(s.Spec)
		if err != nil {
			t.Fatalf("canonical spec %q (of %q) does not re-parse: %v", s.Spec, spec, err)
		}
		if again.Axis != s.Axis || !reflect.DeepEqual(again.Values, s.Values) {
			t.Fatalf("canonical spec %q (of %q) re-parses to %s %v, want %s %v",
				s.Spec, spec, again.Axis, again.Values, s.Axis, s.Values)
		}
	})
}
