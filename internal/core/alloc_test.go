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
// closures or maps, so what remains is mostly messages and MSHRs. Each
// budget is the measured count plus about 25% headroom; bringing back a
// closure or map per event on the hot path overshoots it.
func TestTinyCellAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budgets are checked by the full (non-short, non-race) run")
	}
	cfg := memsys.Default().Scaled(workloads.Tiny.ScaleDiv())
	for _, tc := range []struct {
		proto, bench string
		budget       float64
	}{
		{"MESI", "LU", 52_000},    // measured 41.7k
		{"DeNovo", "FFT", 35_000}, // measured 28.3k
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
