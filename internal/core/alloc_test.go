package core_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/memsys"
	"repro/internal/workloads"
)

// TestTinyCellAllocBudget pins the coherence path's heap allocations per
// Tiny cell on the ideal router: the kernel, DRAM, cache, waste profiler
// and both protocol families schedule and index without per-event
// closures or maps, and every message, MSHR, victim-buffer entry and
// directory entry comes from a free list, so what remains is mostly the
// cell's setup, the workload's op streams and the maps that grow with the
// lines in flight. Each budget is the measured count plus about 25%
// headroom; bringing back a closure, map or record per event on the hot
// path overshoots it (radix/MESI made 617k allocations per cell when its
// messages were not recycled).
func TestTinyCellAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budgets are checked by the full (non-short, non-race) run")
	}
	cfg := memsys.Default().Scaled(workloads.Tiny.ScaleDiv())
	for _, tc := range []struct {
		proto, bench string
		budget       float64
	}{
		{"MESI", "LU", 7_800},       // measured 6.2k
		{"DeNovo", "FFT", 11_200},   // measured 8.9k
		{"MESI", "radix", 7_200},    // measured 5.8k
		{"DeNovo", "radix", 30_100}, // measured 24.1k
		{"DBypFull", "FFT", 12_200}, // measured 9.8k
	} {
		prog := workloads.MustByName(tc.bench, workloads.Tiny, 16)
		var err error
		allocs := testing.AllocsPerRun(1, func() {
			_, err = core.RunOne(context.Background(), cfg, tc.proto, prog)
		})
		if err != nil {
			t.Fatalf("%s/%s: %v", tc.proto, tc.bench, err)
		}
		t.Logf("%s/%s: %.0f allocations per cell (budget %.0f)", tc.proto, tc.bench, allocs, tc.budget)
		if allocs > tc.budget {
			t.Errorf("%s/%s: %.0f allocations per cell, budget %.0f", tc.proto, tc.bench, allocs, tc.budget)
		}
	}
}

// TestTinyCellPeakLiveRecords pins that the waste profiler's memory
// follows the live state: radix/MESI, which makes about 1.83M word
// instances in one Tiny cell, never holds more instance records at once
// than the chip has word slots in its L1s and L2 slices.
func TestTinyCellPeakLiveRecords(t *testing.T) {
	cfg := memsys.Default().Scaled(workloads.Tiny.ScaleDiv())
	prog := workloads.MustByName("radix", workloads.Tiny, 16)
	env, err := memsys.NewEnv(cfg, prog.FootprintBytes(), prog.Regions())
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.NewProtocol(env, "MESI")
	if err != nil {
		t.Fatal(err)
	}
	if err := core.NewRunner(env, p, prog).Run(); err != nil {
		t.Fatal(err)
	}
	words := cfg.Tiles * (cfg.L1Bytes + cfg.L2SliceBytes) / memsys.WordBytes
	made, peak := env.Prof.Instances(), env.Prof.PeakLive()
	t.Logf("%d instances, at most %d open at once; %d on-chip words", made, peak, words)
	if made < 1_000_000 {
		t.Fatalf("%d instances: the cell no longer exercises recycling", made)
	}
	if peak >= words {
		t.Errorf("%d records open at once, not below the %d on-chip words", peak, words)
	}
}
