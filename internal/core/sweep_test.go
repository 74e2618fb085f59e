package core_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// TestParseSweepExpansion pins the expansion rules: ranges, steps, value
// lists, fixed co-parameters, and the canonical point order.
func TestParseSweepExpansion(t *testing.T) {
	cases := []struct {
		spec     string
		axis     string
		workload string
		values   []string
	}{
		{"topology=mesh,ring,torus", "topology", "", []string{"mesh", "ring", "torus"}},
		{"topology=ring,mesh", "topology", "", []string{"ring", "mesh"}}, // given order, not sorted
		{"router=ideal,vc", "router", "", []string{"ideal", "vc"}},
		{"vcs=2..8..2", "vcs", "", []string{"2", "4", "6", "8"}},
		{"vcdepth=1..4", "vcdepth", "", []string{"1", "2", "3", "4"}},
		{"threads=4,8,16", "threads", "", []string{"4", "8", "16"}},
		{"protocol=MESI,DeNovo+BypL2", "protocol", "", []string{"MESI", "DeNovo+BypL2"}},
		{"hotspot(t=1..4)", "hotspot.t", "hotspot", []string{"1", "2", "3", "4"}},
		{"hotspot(t=1,2,4,p=0.1)", "hotspot.t", "hotspot", []string{"1", "2", "4"}},
		{"uniform(p=0.02..0.06..0.02)", "uniform.p", "uniform", []string{"0.02", "0.04", "0.06"}},
		{"uniform(p=0..1..0.5)", "uniform.p", "uniform", []string{"0", "0.5", "1"}}, // int bounds, float step
		{"vcs=02,4", "vcs", "", []string{"2", "4"}},                                 // numeric values normalize
		{"hotspot(t=1,02,4)", "hotspot.t", "hotspot", []string{"1", "2", "4"}},      // workload values too
		{" hotspot( t = 1..3 ) ", "hotspot.t", "hotspot", []string{"1", "2", "3"}},
		{"prodcons(groups=2,4,8)", "prodcons.groups", "prodcons", []string{"2", "4", "8"}},
	}
	for _, c := range cases {
		s, err := core.ParseSweep(c.spec)
		if err != nil {
			t.Errorf("ParseSweep(%q): %v", c.spec, err)
			continue
		}
		if s.Axis != c.axis {
			t.Errorf("ParseSweep(%q): axis %q, want %q", c.spec, s.Axis, c.axis)
		}
		if s.Workload != c.workload {
			t.Errorf("ParseSweep(%q): workload %q, want %q", c.spec, s.Workload, c.workload)
		}
		if !reflect.DeepEqual(s.Values, c.values) {
			t.Errorf("ParseSweep(%q): values %v, want %v", c.spec, s.Values, c.values)
		}
	}
}

// TestParseSweepErrors pins the loud-failure paths: every malformed or
// unresolvable sweep must error at parse time, before any simulation.
func TestParseSweepErrors(t *testing.T) {
	cases := []struct {
		spec string
		want string // substring of the error
	}{
		{"", "empty sweep"},
		{"hotspot", "neither axis=values nor workload"},
		{"gravity=1,2", "unknown sweep axis"},
		{"topology=mesh", "needs at least 2"},
		{"topology=mesh,hexgrid", "unknown topology"},
		{"topology=mesh,mesh", "duplicate point"},
		{"router=ideal,quantum", "unknown router"},
		{"vcs=2,3", "even count"},
		{"vcs=2,x", "not an integer"},
		{"vcdepth=0..2", ">= 1"},
		{"protocol=MESI,Dragon", "unknown protocol"},
		{"hotspot(t=1..16", "missing ')'"},
		{"hotspot(t=4)", "no parameter has multiple values"},
		{"hotspot(t=1..4,p=0.1..0.3..0.1)", "one axis"},
		{"hotspot(t=4..1)", "hi 1 < lo 4"},
		{"hotspot(t=1..4..0)", "must be positive"},
		{"vcs=4,04", "duplicate point"},
		{"protocol=MESI+MemL1,MESI + MemL1", "duplicate point"}, // normalized before dedup
		{"uniform(p=0.1..0.9)", "explicit step"},
		{"uniform(p=0.1..0.9..-0.1)", "positive number"},
		{"hotspot(t=1,2,4", "missing ')'"},
		{"hotspot(1,2,4)", "before any key="},
		{"warp(t=1..4)", "unknown benchmark"},
		{"hotspot(speed=1..4)", "unknown option"},
		{"hotspot(t=1,2,01)", "duplicate point"},
		{"vcs=2..2048..2", "expands past"},
	}
	for _, c := range cases {
		_, err := core.ParseSweep(c.spec)
		if err == nil {
			t.Errorf("ParseSweep(%q): no error, want %q", c.spec, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("ParseSweep(%q): error %q does not mention %q", c.spec, err, c.want)
		}
	}
}

// TestSweepPointOptionsConflicts: a sweep that owns the benchmark or
// protocol axis must reject an explicit base list for the same axis
// instead of silently overriding it.
func TestSweepPointOptionsConflicts(t *testing.T) {
	s, err := core.ParseSweep("hotspot(t=1,2)")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.PointOptions(core.MatrixOptions{Benchmarks: []string{"FFT"}}); err == nil {
		t.Error("workload sweep with explicit benchmarks: no error")
	}
	if _, err := s.PointOptions(core.MatrixOptions{Protocols: []string{"MESI"}}); err != nil {
		t.Errorf("workload sweep with explicit protocols should be fine: %v", err)
	}
	p, err := core.ParseSweep("protocol=MESI,DeNovo")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.PointOptions(core.MatrixOptions{Protocols: []string{"MESI"}}); err == nil {
		t.Error("protocol sweep with explicit protocols: no error")
	}
	// Every engine axis owns its MatrixOptions field the same way.
	engineAxes := []struct {
		spec   string
		pinned core.MatrixOptions
		clean  core.MatrixOptions
	}{
		{"topology=mesh,ring", core.MatrixOptions{Topology: "torus"}, core.MatrixOptions{}},
		{"router=ideal,vc", core.MatrixOptions{Router: "vc"}, core.MatrixOptions{}},
		{"vcs=2,4", core.MatrixOptions{Router: "vc", VCs: 6}, core.MatrixOptions{Router: "vc"}},
		{"vcdepth=1,2", core.MatrixOptions{Router: "vc", VCDepth: 8}, core.MatrixOptions{Router: "vc"}},
		{"threads=4,8", core.MatrixOptions{Threads: 16}, core.MatrixOptions{}},
	}
	for _, c := range engineAxes {
		sw, err := core.ParseSweep(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sw.PointOptions(c.pinned); err == nil {
			t.Errorf("sweep %q with the axis pinned in base options: no error", c.spec)
		}
		if _, err := sw.PointOptions(c.clean); err != nil {
			t.Errorf("sweep %q with a clean base: %v", c.spec, err)
		}
	}
	// A VC-geometry sweep under the (default) ideal router is a silent
	// no-op and must be rejected by the planner every run goes through.
	for _, spec := range []string{"vcs=2,4", "vcdepth=1,2"} {
		if err := core.Plan(core.MatrixOptions{}, core.RunOptions{Sweep: spec}); err == nil {
			t.Errorf("sweep %q under the ideal router: no error", spec)
		} else if !strings.Contains(err.Error(), "vc router") {
			t.Errorf("sweep %q under ideal: error %q does not mention the vc router", spec, err)
		}
	}
}

// TestPlanKnobRules: the planner every run goes through rejects a
// negative thread count (0 means the default, 16) and VC geometry under
// any router but vc, where the setting would silently do nothing; under
// vc the same geometry plans.
func TestPlanKnobRules(t *testing.T) {
	cases := []struct {
		opt  core.MatrixOptions
		want string // error substring; "" = accepted
	}{
		{core.MatrixOptions{Threads: -3}, "core: threads -3 must be >= 1"},
		{core.MatrixOptions{Threads: 0}, ""},
		{core.MatrixOptions{VCs: 4}, "vc router"},
		{core.MatrixOptions{VCDepth: 9}, "vc router"},
		{core.MatrixOptions{Router: "ideal", VCs: 4}, "vc router"},
		{core.MatrixOptions{Router: "deflection", VCs: 4}, "vc router"},
		{core.MatrixOptions{Router: "deflection", VCDepth: 9}, "vc router"},
		{core.MatrixOptions{Router: "vc", VCs: 4}, ""},
		{core.MatrixOptions{Router: "vc", VCDepth: 9}, ""},
	}
	for _, c := range cases {
		c.opt.Benchmarks, c.opt.Protocols = []string{"FFT"}, []string{"MESI"}
		err := core.Plan(c.opt, core.RunOptions{})
		switch {
		case c.want == "" && err != nil:
			t.Errorf("Plan(%+v): %v, want accepted", c.opt, err)
		case c.want != "" && err == nil:
			t.Errorf("Plan(%+v) accepted, want an error containing %q", c.opt, c.want)
		case c.want != "" && !strings.Contains(err.Error(), c.want):
			t.Errorf("Plan(%+v): error %q does not contain %q", c.opt, err, c.want)
		}
	}
}

// TestSweepPointOptionsApply verifies each engine axis lands on the right
// MatrixOptions field, point by point in sweep order.
func TestSweepPointOptionsApply(t *testing.T) {
	base := core.MatrixOptions{Size: workloads.Tiny, Router: "vc"}
	s, err := core.ParseSweep("vcs=2,4")
	if err != nil {
		t.Fatal(err)
	}
	pts, err := s.PointOptions(base)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 || pts[0].VCs != 2 || pts[1].VCs != 4 {
		t.Fatalf("vcs sweep points: %+v", pts)
	}
	if pts[0].Router != "vc" {
		t.Errorf("base Router not inherited: %q", pts[0].Router)
	}
	w, err := core.ParseSweep("hotspot(t=2,4)")
	if err != nil {
		t.Fatal(err)
	}
	wpts, err := w.PointOptions(base)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{{"hotspot(t=2)"}, {"hotspot"}} // t=4 is the default and folds away
	for i, p := range wpts {
		if !reflect.DeepEqual(p.Benchmarks, want[i]) {
			t.Errorf("point %d benchmarks %v, want %v", i, p.Benchmarks, want[i])
		}
	}
}

// sweepTestOptions is a small but real sweep configuration shared by the
// determinism tests: two points, two protocols, one benchmark per point.
func sweepTestOptions(workers int) core.MatrixOptions {
	return core.MatrixOptions{
		Size:      workloads.Tiny,
		Protocols: []string{"MESI", "DeNovo"},
		Workers:   workers,
	}
}

// TestSweepWorkersDeterminism is the sweep engine's core guarantee,
// inherited from the matrix engine: the assembled table is bit-identical
// between the serial reference (Workers: 1) and the parallel run
// (Workers: 0), field for field.
func TestSweepWorkersDeterminism(t *testing.T) {
	const spec = "hotspot(t=1,2)"
	serial, err := runSweep(sweepTestOptions(1), spec)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := runSweep(sweepTestOptions(0), spec)
	if err != nil {
		t.Fatal(err)
	}
	st, pt := serial.Table(), parallel.Table()
	if !reflect.DeepEqual(st, pt) {
		t.Errorf("sweep table diverges between Workers=1 and Workers=0:\nserial   %+v\nparallel %+v", st, pt)
	}
	// The guarantee covers the full per-point matrices, not just the
	// assembled table columns.
	for i := range serial.Points {
		a, b := serial.Points[i], parallel.Points[i]
		if a.Value != b.Value {
			t.Errorf("point %d: value %q vs %q", i, a.Value, b.Value)
		}
		if !reflect.DeepEqual(a.Matrix, b.Matrix) {
			t.Errorf("point %s: matrices diverge", a.Value)
		}
	}
}

// TestSweepOrderingStable: two identical runs produce identical tables —
// point order, row order, and values — so sweep output is reproducible
// run to run, not just worker count to worker count.
func TestSweepOrderingStable(t *testing.T) {
	const spec = "topology=ring,mesh"
	opt := core.MatrixOptions{
		Size:       workloads.Tiny,
		Protocols:  []string{"MESI"},
		Benchmarks: []string{"LU"},
	}
	first, err := runSweep(opt, spec)
	if err != nil {
		t.Fatal(err)
	}
	second, err := runSweep(opt, spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := []string{first.Points[0].Value, first.Points[1].Value}; !reflect.DeepEqual(got, []string{"ring", "mesh"}) {
		t.Errorf("point order %v, want the spec's order [ring mesh]", got)
	}
	if !reflect.DeepEqual(first.Table(), second.Table()) {
		t.Error("identical sweeps produced different tables")
	}
}

// TestSweepCancelReturnsPartial: cancelling mid-sweep must hand back the
// points that completed — in sweep order, identical to an uninterrupted
// run's — alongside the cancellation error, not discard them.
func TestSweepCancelReturnsPartial(t *testing.T) {
	const spec = "hotspot(t=1,2,4)"
	opt := core.MatrixOptions{Size: workloads.Tiny, Protocols: []string{"MESI"}, Workers: 1}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	partial, err := core.Run(ctx, opt, core.RunOptions{
		Sweep: spec,
		Progress: func(ev core.Event) {
			if ev.Status == core.StatusDone {
				cancel() // first point finished; the serial pool stops at the next job
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if partial == nil {
		t.Fatal("cancelled sweep returned no partial result")
	}
	if partial.Expected != 3 {
		t.Errorf("Expected = %d, want 3", partial.Expected)
	}
	if len(partial.Points) != 1 {
		t.Fatalf("partial result has %d points, want 1", len(partial.Points))
	}
	if partial.Points[0].Value != "1" {
		t.Errorf("partial point value %q, want %q (sweep order)", partial.Points[0].Value, "1")
	}

	full, err := core.Run(context.Background(), opt, core.RunOptions{Sweep: spec})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(partial.Points[0], full.Points[0]) {
		t.Error("the completed point of a cancelled sweep differs from an uninterrupted run")
	}
}

// TestSweepResumeMatchesFresh is the resume acceptance pin: kill a cached
// sweep after its first point, rerun the same sweep against the same
// cache, and the assembled result is deeply equal to an uninterrupted
// fresh run — with the finished point served from disk, not resimulated.
func TestSweepResumeMatchesFresh(t *testing.T) {
	const spec = "hotspot(t=1,2,4)"
	opt := core.MatrixOptions{Size: workloads.Tiny, Protocols: []string{"MESI"}, Workers: 1}
	cache, err := core.OpenPointCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	partial, err := core.Run(ctx, opt, core.RunOptions{
		Sweep: spec,
		Cache: cache,
		Progress: func(ev core.Event) {
			if ev.Status == core.StatusDone {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(partial.Points) != 1 {
		t.Fatalf("interrupted run completed %d points, want 1", len(partial.Points))
	}

	var cachedN, simulatedN int
	resumed, err := core.Run(context.Background(), opt, core.RunOptions{
		Sweep: spec,
		Cache: cache,
		Progress: func(ev core.Event) {
			switch ev.Status {
			case core.StatusCached:
				cachedN++
			case core.StatusSimulating:
				simulatedN++
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if cachedN != 1 || simulatedN != 2 {
		t.Errorf("resume served %d points from cache and simulated %d, want 1 and 2", cachedN, simulatedN)
	}

	fresh, err := core.Run(context.Background(), opt, core.RunOptions{Sweep: spec})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resumed.Table(), fresh.Table()) {
		t.Error("resumed sweep table differs from an uninterrupted fresh run")
	}
	for i := range fresh.Points {
		if !reflect.DeepEqual(resumed.Points[i].Matrix, fresh.Points[i].Matrix) {
			t.Errorf("point %s: resumed matrix differs from fresh simulation", fresh.Points[i].Value)
		}
	}
}

// TestSweepPointFailureReturnsPartial: a mid-sweep point failure (a replay
// whose trace file is missing, only discovered when the point builds)
// names the failing point AND returns the points that completed before it.
func TestSweepPointFailureReturnsPartial(t *testing.T) {
	prog, err := workloads.ByName("FFT", workloads.Tiny, 16)
	if err != nil {
		t.Fatal(err)
	}
	good := filepath.Join(t.TempDir(), "fft.trc")
	if err := trace.WriteFile(good, trace.Record(prog)); err != nil {
		t.Fatal(err)
	}
	missing := filepath.Join(t.TempDir(), "nope.trc")

	opt := core.MatrixOptions{Size: workloads.Tiny, Protocols: []string{"MESI"}, Workers: 1}
	res, err := core.Run(context.Background(), opt,
		core.RunOptions{Sweep: "replay(file=" + good + "," + missing + ")"})
	if err == nil {
		t.Fatal("sweep with a missing trace file ran without error")
	}
	if !strings.Contains(err.Error(), "sweep point replay.file = "+missing) {
		t.Errorf("error %q does not name the failing point", err)
	}
	if res == nil || len(res.Points) != 1 {
		t.Fatalf("partial result = %+v, want the one completed point", res)
	}
	if res.Points[0].Value != good {
		t.Errorf("completed point value %q, want %q", res.Points[0].Value, good)
	}
	if res.Expected != 2 {
		t.Errorf("Expected = %d, want 2", res.Expected)
	}
}

// TestSweepMultiCellPointFailure: a cell failure inside a MULTI-cell point
// must fail the sweep. The pool stops claiming work on the first cell
// error, so the failing point's remaining count never reaches zero and
// finish never runs for it — the error used to be visible only through
// that completion hook, and a two-protocol point's failure was silently
// swallowed (partial result, nil error). The post-run scan of unassembled
// plans is the regression under test, at both worker modes.
func TestSweepMultiCellPointFailure(t *testing.T) {
	prog, err := workloads.ByName("FFT", workloads.Tiny, 16)
	if err != nil {
		t.Fatal(err)
	}
	good := filepath.Join(t.TempDir(), "fft.trc")
	if err := trace.WriteFile(good, trace.Record(prog)); err != nil {
		t.Fatal(err)
	}
	missing := filepath.Join(t.TempDir(), "nope.trc")

	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			opt := core.MatrixOptions{
				Size:      workloads.Tiny,
				Protocols: []string{"MESI", "DeNovo"}, // two cells per point
				Workers:   workers,
			}
			res, err := core.Run(context.Background(), opt,
				core.RunOptions{Sweep: "replay(file=" + good + "," + missing + ")"})
			if err == nil {
				t.Fatal("multi-cell point failure returned a nil error (partial result passed off as complete)")
			}
			if !strings.Contains(err.Error(), "sweep point replay.file = "+missing) {
				t.Errorf("error %q does not name the failing point", err)
			}
			if res == nil || len(res.Points) != 1 || res.Points[0].Value != good {
				t.Errorf("partial result = %+v, want exactly the completed %s point", res, good)
			}
		})
	}
}

// TestSweepCacheStoreFailureIsWarning: a cache that cannot persist points
// must not fail the sweep — every point's result is still in hand, so the
// sweep completes with a nil error and the failure surfaces as
// StatusStoreFailed progress events (a later resume resimulates).
func TestSweepCacheStoreFailureIsWarning(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	cache, err := core.OpenPointCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Replace the cache directory with a regular file: every Load and
	// Store now fails (ENOTDIR), even when the tests run as root — unlike
	// permission bits, which root ignores.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}

	var storeFailed []core.Event
	opt := core.MatrixOptions{Size: workloads.Tiny, Protocols: []string{"MESI"}, Workers: 1}
	res, err := core.Run(context.Background(), opt, core.RunOptions{
		Sweep: "hotspot(t=1,2)",
		Cache: cache,
		Progress: func(ev core.Event) {
			if ev.Status == core.StatusStoreFailed {
				storeFailed = append(storeFailed, ev)
			}
		},
	})
	if err != nil {
		t.Fatalf("a fully completed sweep returned an error for a cache store failure: %v", err)
	}
	if res.Expected != 2 || len(res.Points) != 2 {
		t.Fatalf("got %d/%d points, want the complete sweep", len(res.Points), res.Expected)
	}
	if len(storeFailed) != 2 {
		t.Fatalf("got %d store-failed events, want one per point", len(storeFailed))
	}
	for _, ev := range storeFailed {
		if ev.Error == "" {
			t.Errorf("store-failed event for point %d carries no error", ev.Point)
		}
	}

	// The unpersisted sweep must still match an uncached fresh run.
	fresh, err := core.Run(context.Background(), opt, core.RunOptions{Sweep: "hotspot(t=1,2)"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Table(), fresh.Table()) {
		t.Error("sweep with a failing cache store differs from an uncached run")
	}
}

// TestSweepProgressPointIdentity pins the progress contract in serial
// mode: per point, simulating, the point's cells, then done, in sweep
// order, each point event carrying the point's index, the sweep total and
// the axis value, and Seq numbering the stream from 0.
func TestSweepProgressPointIdentity(t *testing.T) {
	var events []core.Event
	opt := core.MatrixOptions{Size: workloads.Tiny, Protocols: []string{"MESI"}, Workers: 1}
	_, err := core.Run(context.Background(), opt, core.RunOptions{
		Sweep:    "hotspot(t=1,2)",
		Progress: func(ev core.Event) { events = append(events, ev) },
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []core.Event{
		{Seq: 0, Kind: core.KindPoint, Status: core.StatusSimulating, Point: 0, Total: 2, Axis: "hotspot.t", Value: "1"},
		{Seq: 1, Kind: core.KindCell, Bench: "hotspot(t=1)", Protocol: "MESI"},
		{Seq: 2, Kind: core.KindPoint, Status: core.StatusDone, Point: 0, Total: 2, Axis: "hotspot.t", Value: "1"},
		{Seq: 3, Kind: core.KindPoint, Status: core.StatusSimulating, Point: 1, Total: 2, Axis: "hotspot.t", Value: "2"},
		{Seq: 4, Kind: core.KindCell, Bench: "hotspot(t=2)", Protocol: "MESI"},
		{Seq: 5, Kind: core.KindPoint, Status: core.StatusDone, Point: 1, Total: 2, Axis: "hotspot.t", Value: "2"},
	}
	if !reflect.DeepEqual(events, want) {
		t.Errorf("progress events:\ngot  %+v\nwant %+v", events, want)
	}
}

// TestSweepTableStringWidths: every text column's width must come from its
// content. The protocol column was once hardcoded to 18 characters and
// broke alignment for longer composed specs; with computed widths every
// data line of the rendering is the same length.
func TestSweepTableStringWidths(t *testing.T) {
	table := &core.SweepTable{
		Spec:    "protocol=MESI,DValidateL2+DBypL2+FlexL1",
		Axis:    "protocol",
		Columns: []string{"Traffic", "Cycles"},
		Rows: []core.SweepRow{
			{Point: "MESI", Bench: "FFT", Protocol: "MESI", Values: []float64{100, 2000}},
			{Point: "DValidateL2+DBypL2+FlexL1", Bench: "FFT", Protocol: "DValidateL2+DBypL2+FlexL1", Values: []float64{90, 1900}},
		},
	}
	lines := strings.Split(table.String(), "\n")
	width := 0
	for i, line := range lines[1:] { // lines[0] is the title, blank lines separate points
		if line == "" {
			continue
		}
		if width == 0 {
			width = len(line)
		}
		if len(line) != width {
			t.Errorf("line %d is %d chars, want %d:\n%s", i+1, len(line), width, table)
		}
	}
	if got := len("DValidateL2+DBypL2+FlexL1"); width <= got {
		t.Errorf("rendered width %d does not fit the %d-char protocol", width, got)
	}
}

// TestParseSweepLimit: the default cap rejects a 512-point expansion, and
// an explicit limit admits exactly that many points — the cap is
// configurable, up to MaxSweepPointCap, past which no spec is planned.
func TestParseSweepLimit(t *testing.T) {
	const spec = "vcs=2..1024..2" // 512 points
	if _, err := core.ParseSweep(spec); err == nil {
		t.Error("512-point sweep passed the default cap")
	} else if !strings.Contains(err.Error(), "raise the cap") {
		t.Errorf("cap error %q does not say how to raise the cap", err)
	}
	if _, err := core.ParseSweepLimit(spec, 511); err == nil {
		t.Error("512-point sweep passed a 511-point cap")
	}
	s, err := core.ParseSweepLimit(spec, 512)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Values) != 512 {
		t.Errorf("expanded to %d points, want 512", len(s.Values))
	}
	if s2, err := core.ParseSweepLimit("vcs=2,4", 0); err != nil || len(s2.Values) != 2 {
		t.Errorf("limit 0 must mean the default cap: %v", err)
	}
	if s3, err := core.ParseSweepLimit("threads=1..10000", core.MaxSweepPointCap); err != nil || len(s3.Values) != core.MaxSweepPointCap {
		t.Errorf("a sweep of exactly the ceiling's size: %v", err)
	}
	for _, limit := range []int{core.MaxSweepPointCap + 1, 2_000_000_000} {
		if _, err := core.ParseSweepLimit("vcs=2,4", limit); err == nil {
			t.Errorf("cap %d past the %d-point ceiling was accepted", limit, core.MaxSweepPointCap)
		} else if want := fmt.Sprintf("sweep cap %d exceeds the ceiling of %d points", limit, core.MaxSweepPointCap); !strings.Contains(err.Error(), want) {
			t.Errorf("cap %d: error %q does not say %q", limit, err, want)
		}
	}
}

// TestSweepPointFailureIsLoud: a sweep point whose simulation cannot even
// be configured (odd VC count) fails with the point named, not silently.
func TestSweepPointFailureIsLoud(t *testing.T) {
	// vcs=3 is rejected at parse time; force a point failure through a
	// config the parser cannot see: VCDepth works, but an unknown
	// benchmark in the base options only surfaces when the point runs.
	opt := core.MatrixOptions{
		Size:       workloads.Tiny,
		Benchmarks: []string{"FTT"}, // typo: engine rejects it per point
		Protocols:  []string{"MESI"},
	}
	_, err := runSweep(opt, "topology=mesh,ring")
	if err == nil {
		t.Fatal("sweep with an unknown benchmark ran without error")
	}
	if !strings.Contains(err.Error(), "sweep point topology = mesh") {
		t.Errorf("error %q does not name the failing sweep point", err)
	}
}
