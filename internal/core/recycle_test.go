package core_test

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/memsys"
	"repro/internal/workloads"
)

// cancelledAfter reads as cancelled from its n-th check on. A runner
// checks its context after every 65,536 events, so a cell run under
// cancelledAfter with n = 16 stops after about a million events, mid-run.
type cancelledAfter struct {
	context.Context
	n int
}

func (c *cancelledAfter) Err() error {
	if c.n--; c.n > 0 {
		return nil
	}
	return context.Canceled
}

// recycledCell is one RunOne call of TestRecycledCellsMatchFresh.
type recycledCell struct {
	proto, bench string
	size         workloads.Size // the inputs' scale
	w, h         int            // the mesh; the caches stay Tiny
	threads      int
}

func (c recycledCell) run(ctx context.Context) (*core.Result, error) {
	cfg := memsys.Default().Scaled(workloads.Tiny.ScaleDiv()).WithMesh(c.w, c.h)
	return core.RunOne(ctx, cfg, c.proto, workloads.MustByName(c.bench, c.size, c.threads))
}

// TestRecycledCellsMatchFresh runs cells in one process, each on the
// memory the ones before it recycled, and requires the first cells' reruns
// to report exactly what they reported on fresh memory:
//
//  1. two cells, one per protocol family (DBypFull has Bloom banks);
//  2. a cell of another protocol on a 4x2 mesh, with Small inputs so it
//     is still running when it is cancelled after about a million
//     events: it hands back dirty caches, waste tables, kernel queues and
//     op buffers, its caches of the geometry the first cells use;
//  3. a cell on an 8x8 mesh, so the free lists see a third geometry;
//  4. the first cells again.
func TestRecycledCellsMatchFresh(t *testing.T) {
	if testing.Short() {
		t.Skip("a Small cell's first million events; TestRecycledCellsMatchFreshConcurrent is the short variant")
	}
	first := []recycledCell{
		{"DBypFull", "FFT", workloads.Tiny, 4, 4, 16},
		{"MESI", "LU", workloads.Tiny, 4, 4, 16},
	}
	want := make([][]byte, len(first))
	for i, c := range first {
		res, err := c.run(context.Background())
		if err != nil {
			t.Fatalf("%s/%s: %v", c.proto, c.bench, err)
		}
		if want[i], err = json.Marshal(res); err != nil {
			t.Fatal(err)
		}
	}

	dirty := recycledCell{"MMemL1", "radix", workloads.Small, 4, 2, 8}
	if _, err := dirty.run(&cancelledAfter{context.Background(), 16}); !errors.Is(err, context.Canceled) {
		t.Fatalf("%s/%s under a cancelled context: err %v, want context.Canceled", dirty.proto, dirty.bench, err)
	}
	big := recycledCell{"DFlexL2", "FFT", workloads.Tiny, 8, 8, 16}
	if _, err := big.run(context.Background()); err != nil {
		t.Fatalf("%s/%s on 8x8: %v", big.proto, big.bench, err)
	}

	for i, c := range first {
		res, err := c.run(context.Background())
		if err != nil {
			t.Fatalf("%s/%s rerun: %v", c.proto, c.bench, err)
		}
		got, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want[i]) {
			t.Errorf("%s/%s on recycled memory:\n%s\nfresh:\n%s", c.proto, c.bench, got, want[i])
		}
	}
}

// TestRecycledCellsMatchFreshConcurrent is the short variant, which the
// race detector runs: two workers run a matrix and then the same matrix
// again, handing memory to each other through the free lists, and the
// second matrix must equal the first.
func TestRecycledCellsMatchFreshConcurrent(t *testing.T) {
	opt := core.MatrixOptions{
		Size:       workloads.Tiny,
		Benchmarks: []string{"FFT", "LU"},
		Protocols:  []string{"MESI", "DBypFull"},
		Workers:    2,
	}
	var runs [2]*core.SweepResult
	for i := range runs {
		res, err := core.Run(context.Background(), opt, core.RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = res
	}
	if !reflect.DeepEqual(runs[0].Points[0].Matrix, runs[1].Points[0].Matrix) {
		t.Error("the matrix run on recycled memory differs from the first run")
	}
}
