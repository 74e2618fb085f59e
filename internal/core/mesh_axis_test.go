package core_test

// The mesh-geometry axis suite: parse/normalize/conflict rules for the
// mesh= engine axis, the dimensions' participation in the point-cache
// preimage, the loud threads-vs-tiles failure, and the
// PR 8 acceptance pin — a mesh=4x4,8x8 sweep end-to-end through the
// cache with an interrupt and a resume.

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/workloads"
)

// TestSweepMeshAxisParse: WxH values normalize to the canonical spelling
// before dedup, arbitrary (non-preset) shapes are admitted, and degenerate
// shapes fail at parse time with the memsys diagnostic.
func TestSweepMeshAxisParse(t *testing.T) {
	s, err := core.ParseSweep("mesh= 4x4 ,8x8,16x16")
	if err != nil {
		t.Fatal(err)
	}
	if s.Axis != "mesh" {
		t.Errorf("axis %q, want mesh", s.Axis)
	}
	if want := []string{"4x4", "8x8", "16x16"}; !reflect.DeepEqual(s.Values, want) {
		t.Errorf("values %v, want %v", s.Values, want)
	}
	// Non-preset shapes parse too: the axis normalizes any valid WxH, the
	// presets are only the enumerable catalog floor.
	if s2, err := core.ParseSweep("mesh=2x8,4x4"); err != nil || s2.Values[0] != "2x8" {
		t.Errorf("non-preset mesh shape: values %v, err %v", s2, err)
	}
	for _, c := range []struct{ spec, want string }{
		{"mesh=4x4", "needs at least 2"},
		{"mesh=04x04,4x4", "duplicate point"}, // normalized before dedup
		{"mesh=0x4,4x4", ">= 1"},
		{"mesh=3x,4x4", "not WxH"},
		{"mesh=1x1,4x4", "no links"},
	} {
		if _, err := core.ParseSweep(c.spec); err == nil {
			t.Errorf("ParseSweep(%q): no error, want %q", c.spec, c.want)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("ParseSweep(%q): error %q does not mention %q", c.spec, err, c.want)
		}
	}
}

// TestSweepMeshAxisConflictAndApply: the mesh axis owns the Mesh field —
// pinned dims in the base options are rejected, and each point lands its
// canonical dimensions on it.
func TestSweepMeshAxisConflictAndApply(t *testing.T) {
	s, err := core.ParseSweep("mesh=4x4,8x8")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.PointOptions(core.MatrixOptions{Mesh: "16x16"}); err == nil {
		t.Error("mesh sweep with pinned dimensions in base options: no error")
	}
	pts, err := s.PointOptions(core.MatrixOptions{Size: workloads.Tiny})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 || pts[0].Mesh != "4x4" || pts[1].Mesh != "8x8" {
		t.Fatalf("mesh sweep points: %+v", pts)
	}
}

// TestPointKeyIncludesMeshDims: the fabric geometry changes every route
// length, so it must be part of the cache preimage — two shapes must never
// collide on one key, and the dims must be visible in the preimage text.
func TestPointKeyIncludesMeshDims(t *testing.T) {
	base := core.MatrixOptions{Size: workloads.Tiny, Benchmarks: []string{"FFT"}, Protocols: []string{"MESI"}}
	k4, err := core.PointKeyFor(base)
	if err != nil {
		t.Fatal(err)
	}
	wide := base
	wide.Mesh = "8x8"
	wide.Threads = 16 // the default thread count, spelled out: dims are the only difference
	k8, err := core.PointKeyFor(wide)
	if err != nil {
		t.Fatal(err)
	}
	if k4.Hash == k8.Hash {
		t.Error("4x4 and 8x8 configurations share a cache key")
	}
	if !strings.Contains(k4.Preimage, "mesh=4x4\n") {
		t.Errorf("default preimage does not record mesh=4x4:\n%s", k4.Preimage)
	}
	if !strings.Contains(k8.Preimage, "mesh=8x8\n") {
		t.Errorf("8x8 preimage does not record mesh=8x8:\n%s", k8.Preimage)
	}
}

// TestMatrixMeshValidation: a thread count exceeding the tile count fails
// loudly before any simulation, naming the shape.
func TestMatrixMeshValidation(t *testing.T) {
	opt := core.MatrixOptions{Size: workloads.Tiny, Benchmarks: []string{"FFT"}, Protocols: []string{"MESI"}}

	tiny := opt
	tiny.Mesh = "2x2"
	tiny.Threads = 16 // 16 cores cannot map one-per-tile onto 4 tiles
	if _, err := runMatrix(tiny); err == nil {
		t.Error("threads > tiles ran without error")
	} else if !strings.Contains(err.Error(), "threads 16 > tiles 4") {
		t.Errorf("threads-vs-tiles error %q does not quote the counts", err)
	}

	// The same shape with a fitting thread count is fine.
	tiny.Threads = 4
	if _, err := runMatrix(tiny); err != nil {
		t.Errorf("2x2 mesh with 4 threads: %v", err)
	}
}

// TestSweepMeshCacheResume is the PR 8 acceptance pin: a mesh=4x4,8x8
// sweep runs end-to-end through the point cache — interrupt it after the
// first point, resume against the same cache, and the resumed result is
// deeply equal to an uninterrupted fresh run with the finished point
// served from disk under the dims-aware key.
func TestSweepMeshCacheResume(t *testing.T) {
	const spec = "mesh=4x4,8x8"
	opt := core.MatrixOptions{
		Size:       workloads.Tiny,
		Benchmarks: []string{"hotspot(t=1)"},
		Protocols:  []string{"MESI"},
		Workers:    1,
	}
	cache, err := core.OpenPointCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	partial, err := core.Run(ctx, opt, core.RunOptions{
		Sweep: spec,
		Cache: cache,
		Progress: func(ev core.SweepProgress) {
			if ev.Status == core.SweepPointDone {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(partial.Points) != 1 || partial.Points[0].Value != "4x4" {
		t.Fatalf("interrupted run completed %+v, want the 4x4 point", partial.Points)
	}

	var cachedN, simulatedN int
	resumed, err := core.Run(context.Background(), opt, core.RunOptions{
		Sweep: spec,
		Cache: cache,
		Progress: func(ev core.SweepProgress) {
			switch ev.Status {
			case core.SweepPointCached:
				cachedN++
			case core.SweepPointStarted:
				simulatedN++
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if cachedN != 1 || simulatedN != 1 {
		t.Errorf("resume served %d points from cache and simulated %d, want 1 and 1", cachedN, simulatedN)
	}

	fresh, err := core.Run(context.Background(), opt, core.RunOptions{Sweep: spec})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resumed.Table(), fresh.Table()) {
		t.Error("resumed mesh sweep table differs from an uninterrupted fresh run")
	}
	for i := range fresh.Points {
		if !reflect.DeepEqual(resumed.Points[i].Matrix, fresh.Points[i].Matrix) {
			t.Errorf("point %s: resumed matrix differs from fresh simulation", fresh.Points[i].Value)
		}
	}
}
