package core_test

import (
	"context"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/memsys"
	"repro/internal/workloads"
)

// TestParallelMatrixMatchesSerial is the engine's core guarantee: the full
// 9-protocol x 6-benchmark cross product at tiny scale produces a Matrix
// deeply equal to the serial (Workers: 1) reference run at any worker
// count, cell by cell and field by field.
func TestParallelMatrixMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("full 9x6 matrix twice is slow; run without -short")
	}
	serial, err := runMatrix(core.MatrixOptions{Size: workloads.Tiny, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := runMatrix(core.MatrixOptions{Size: workloads.Tiny, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Benchmarks) != 6 || len(serial.Protocols) != 9 {
		t.Fatalf("matrix shape %dx%d, want 6x9", len(serial.Benchmarks), len(serial.Protocols))
	}
	for _, bench := range serial.Benchmarks {
		for _, proto := range serial.Protocols {
			a, b := serial.Get(bench, proto), parallel.Get(bench, proto)
			if a == nil || b == nil {
				t.Fatalf("%s/%s: missing cell (serial %v, parallel %v)", bench, proto, a != nil, b != nil)
			}
			if a.FlitHops != b.FlitHops {
				t.Errorf("%s/%s: FlitHops diverge", bench, proto)
			}
			if a.Waste != b.Waste {
				t.Errorf("%s/%s: Waste diverges", bench, proto)
			}
			if a.ExecCycles != b.ExecCycles {
				t.Errorf("%s/%s: ExecCycles %d vs %d", bench, proto, a.ExecCycles, b.ExecCycles)
			}
			if a.Time != b.Time {
				t.Errorf("%s/%s: TimeBreakdown diverges", bench, proto)
			}
			if a.WasteShare != b.WasteShare {
				t.Errorf("%s/%s: WasteShare %v vs %v", bench, proto, a.WasteShare, b.WasteShare)
			}
		}
	}
}

// The parallel engine must fire a cell event once per cell, like the
// serial loop did. The callback takes no lock: Run delivers progress one
// event at a time, and the race detector holds it to that.
func TestParallelProgressCount(t *testing.T) {
	seen := map[string]int{}
	_, err := core.Run(context.Background(), core.MatrixOptions{
		Size:       workloads.Tiny,
		Protocols:  []string{"MESI", "DeNovo"},
		Benchmarks: []string{"LU", "FFT"},
		Workers:    4,
	}, core.RunOptions{Progress: func(ev core.Event) {
		if ev.Kind == core.KindCell {
			seen[ev.Bench+"/"+ev.Protocol]++
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 4 {
		t.Fatalf("progress saw %d distinct cells, want 4: %v", len(seen), seen)
	}
	for cell, n := range seen {
		if n != 1 {
			t.Fatalf("cell %s announced %d times", cell, n)
		}
	}
}

// TestRunCellEventsInClaimOrder: workers claim cells in point-major
// matrix order and announce each claim before the next worker can claim,
// so at Workers 4 the stream carries every point's "simulating" and then
// its cells in matrix order, and Seq numbers all events from 0. Only the
// "done" events may fall anywhere after their point's cells.
func TestRunCellEventsInClaimOrder(t *testing.T) {
	opt := core.MatrixOptions{
		Size:       workloads.Tiny,
		Benchmarks: []string{"uniform", "hotspot", "transpose", "neighbor"},
		Protocols:  []string{"MESI", "DeNovo", "DBypFull"},
		Workers:    4,
	}
	var (
		got []string
		seq int64
	)
	_, err := core.Run(context.Background(), opt, core.RunOptions{
		Sweep: "topology=mesh,ring",
		Progress: func(ev core.Event) {
			if ev.Seq != seq {
				t.Errorf("event %d has Seq %d", seq, ev.Seq)
			}
			seq++
			switch {
			case ev.Kind == core.KindCell:
				got = append(got, ev.Bench+"/"+ev.Protocol)
			case ev.Status == core.StatusSimulating:
				got = append(got, "point "+ev.Value)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, topo := range []string{"mesh", "ring"} {
		want = append(want, "point "+topo)
		for _, bench := range opt.Benchmarks {
			for _, proto := range opt.Protocols {
				want = append(want, bench+"/"+proto)
			}
		}
	}
	if !slices.Equal(got, want) {
		t.Errorf("stream order:\ngot  %v\nwant %v", got, want)
	}
}

func TestRunMatrixContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		_, err := core.Run(ctx, core.MatrixOptions{
			Size:       workloads.Tiny,
			Protocols:  []string{"MESI"},
			Benchmarks: []string{"LU"},
			Workers:    workers,
		}, core.RunOptions{})
		if err != context.Canceled {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
	}
}

// TestRunCancelStopsRunningCell cancels a single-cell run (a Small radix
// cell that simulates for about 7 s, ten times that under -race) the
// moment its cell starts: Run must return context.Canceled within a
// second, under the race detector too, not when the cell would have ended.
func TestRunCancelStopsRunningCell(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var cancelled time.Time
	_, err := core.Run(ctx, core.MatrixOptions{
		Size:       workloads.Small,
		Protocols:  []string{"MESI"},
		Benchmarks: []string{"radix"},
	}, core.RunOptions{Progress: func(ev core.Event) {
		if ev.Kind == core.KindCell {
			cancelled = time.Now()
			cancel()
		}
	}})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if d := time.Since(cancelled); d > time.Second {
		t.Fatalf("Run returned %v after the cancel, want under 1s", d)
	}
}

// Topologies thread end-to-end: the same workload/protocol cell produces
// valid results on every topology, shorter-routed networks carry fewer
// flit-hops, and the matrix records which topology it ran on.
func TestMatrixTopologies(t *testing.T) {
	totals := map[string]float64{}
	for _, topo := range []string{"mesh", "ring", "torus"} {
		m, err := runMatrix(core.MatrixOptions{
			Size:       workloads.Tiny,
			Protocols:  []string{"MESI"},
			Benchmarks: []string{"FFT"},
			Topology:   topo,
		})
		if err != nil {
			t.Fatalf("%s: %v", topo, err)
		}
		if m.Topology != topo {
			t.Fatalf("matrix topology %q, want %q", m.Topology, topo)
		}
		res := m.Get("FFT", "MESI")
		if res == nil || res.FlitHops.Total() <= 0 || res.ExecCycles <= 0 {
			t.Fatalf("%s: empty result", topo)
		}
		totals[topo] = res.FlitHops.Total()
	}
	// A 4x4 torus averages 2.0 hops vs the mesh's 2.5 and the ring's 4.0,
	// so traffic must be ordered torus < mesh < ring.
	if !(totals["torus"] < totals["mesh"] && totals["mesh"] < totals["ring"]) {
		t.Fatalf("flit-hop totals not ordered torus < mesh < ring: %v", totals)
	}
}

// The engine's parallel-vs-serial guarantee extends to the vc router: the
// same cells at Workers 1 and 4 are deeply equal, including the new
// congestion telemetry, and the matrix records the router it ran.
func TestVCMatrixMatchesSerial(t *testing.T) {
	run := func(workers int) *core.Matrix {
		m, err := runMatrix(core.MatrixOptions{
			Size:       workloads.Tiny,
			Protocols:  []string{"MESI", "DBypFull"},
			Benchmarks: []string{"FFT"},
			Router:     "vc",
			Workers:    workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	serial, parallel := run(1), run(4)
	if serial.Router != "vc" || parallel.Router != "vc" {
		t.Fatalf("matrix router %q/%q, want vc", serial.Router, parallel.Router)
	}
	for _, proto := range serial.Protocols {
		a, b := serial.Get("FFT", proto), parallel.Get("FFT", proto)
		if a == nil || b == nil {
			t.Fatalf("%s: missing cell", proto)
		}
		if a.FlitHops != b.FlitHops || a.ExecCycles != b.ExecCycles ||
			a.Waste != b.Waste || a.Time != b.Time || a.Net != b.Net {
			t.Fatalf("%s: vc cell diverges between serial and parallel runs", proto)
		}
		if a.Net.Router != "vc" {
			t.Fatalf("%s: cell ran router %q", proto, a.Net.Router)
		}
		if a.Net.PeakVCOccupancy <= 0 {
			t.Fatalf("%s: vc run recorded no VC occupancy", proto)
		}
	}
}

// End to end, the cycle-level router makes the same workload see strictly
// higher mean packet latency than the ideal reservation model: credit
// stalls and allocation cycles are no longer invisible.
func TestVCLatencyAboveIdealEndToEnd(t *testing.T) {
	prog := workloads.MustByName("FFT", workloads.Tiny, 16)
	cfg := memsys.Default().Scaled(workloads.Tiny.ScaleDiv())
	ideal, err := core.RunOne(context.Background(), cfg, "MESI", prog)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Router = "vc"
	vc, err := core.RunOne(context.Background(), cfg, "MESI", prog)
	if err != nil {
		t.Fatal(err)
	}
	if !(vc.Net.LatencyMean > ideal.Net.LatencyMean) {
		t.Fatalf("vc mean latency %.2f not above ideal %.2f",
			vc.Net.LatencyMean, ideal.Net.LatencyMean)
	}
	if vc.ExecCycles <= ideal.ExecCycles {
		t.Fatalf("vc execution %d not slower than ideal %d", vc.ExecCycles, ideal.ExecCycles)
	}
}

func TestBadRouterRejected(t *testing.T) {
	_, err := runMatrix(core.MatrixOptions{
		Size:       workloads.Tiny,
		Protocols:  []string{"MESI"},
		Benchmarks: []string{"LU"},
		Router:     "bufferless",
	})
	if err == nil {
		t.Fatal("unknown router accepted")
	}
}

func TestBadTopologyRejected(t *testing.T) {
	_, err := runMatrix(core.MatrixOptions{
		Size:       workloads.Tiny,
		Protocols:  []string{"MESI"},
		Benchmarks: []string{"LU"},
		Topology:   "moebius",
	})
	if err == nil {
		t.Fatal("unknown topology accepted")
	}
}
