package core_test

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/memsys"
	"repro/internal/waste"
	"repro/internal/workloads"
)

// TestTinyCellAllocBudget pins the heap allocations of a Tiny cell on
// the ideal router once the process has run one: the kernel, DRAM, cache,
// waste profiler and both protocol families schedule and index without
// per-event closures or maps, every message, MSHR, victim-buffer entry and
// directory entry comes from a free list, and a finished cell hands its
// cache arrays, Bloom banks, waste tables, kernel queues, op buffers,
// oracle and backing store to the next (DESIGN.md, "Free-list ownership
// rules"). What remains is mostly the line tables that grow with the
// lines in flight and the protocol engine's own structures. Each budget
// is the second call's measured count or size plus about 25% headroom;
// bringing back a closure, map or record per event on the hot path
// overshoots the count (radix/MESI made 617k allocations per cell when
// its messages were not recycled), and a structure that stops being
// recycled overshoots the bytes (the five cells allocated 2.9, 2.8, 5.6,
// 7.6 and 3.9 MB each before cells recycled their memory).
func TestTinyCellAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budgets are checked by the full (non-short, non-race) run")
	}
	if raceEnabled {
		t.Skip("a -race build drops a quarter of the free lists' puts at random")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cfg := memsys.Default().Scaled(workloads.Tiny.ScaleDiv())
	for _, tc := range []struct {
		proto, bench string
		allocs, kb   uint64
	}{
		{"MESI", "LU", 2_300, 150},        // measured 1.8k, 116 KB
		{"DeNovo", "FFT", 5_400, 320},     // measured 4.4k, 253 KB
		{"MESI", "radix", 4_200, 390},     // measured 3.4k, 309 KB
		{"DeNovo", "radix", 24_700, 1470}, // measured 19.7k, 1174 KB
		{"DBypFull", "FFT", 4_900, 230},   // measured 3.9k, 184 KB
	} {
		prog := workloads.MustByName(tc.bench, workloads.Tiny, 16)
		if _, err := core.RunOne(context.Background(), cfg, tc.proto, prog); err != nil {
			t.Fatalf("%s/%s: %v", tc.proto, tc.bench, err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := core.RunOne(context.Background(), cfg, tc.proto, prog)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s/%s: %v", tc.proto, tc.bench, err)
		}
		allocs, kb := after.Mallocs-before.Mallocs, (after.TotalAlloc-before.TotalAlloc)/1024
		t.Logf("%s/%s: %d allocations, %d KB (budgets %d, %d KB)", tc.proto, tc.bench, allocs, kb, tc.allocs, tc.kb)
		if allocs > tc.allocs {
			t.Errorf("%s/%s: %d allocations in a second cell, budget %d", tc.proto, tc.bench, allocs, tc.allocs)
		}
		if kb > tc.kb {
			t.Errorf("%s/%s: %d KB allocated in a second cell, budget %d KB", tc.proto, tc.bench, kb, tc.kb)
		}
	}
}

// TestTinyCellPeakLiveRecords pins that the waste profiler's memory
// follows the live state: radix/MESI, which makes about 1.83M word
// instances in one Tiny cell, never holds more instance records at once
// than the chip has word slots in its L1s and L2 slices. Only memory
// instances have records (L1 and L2 instances live in their cache
// words), and the cell peaks at 1,847 of them; with a record per word
// instance it peaked at 5,645.
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
	words := cfg.Tiles() * (cfg.L1Bytes + cfg.L2SliceBytes) / memsys.WordBytes
	made, peak := env.Prof.Instances(), env.Prof.PeakLive()
	t.Logf("%d instances, at most %d open at once; %d on-chip words", made, peak, words)
	if made < 1_000_000 {
		t.Fatalf("%d instances: the cell no longer exercises recycling", made)
	}
	if peak >= words {
		t.Errorf("%d records open at once, not below the %d on-chip words", peak, words)
	}
}

// TestEveryInstanceClassifies pins the invariant the in-word L1 and L2
// instances rest on: a cache word holding an open instance is never
// overwritten, cleared or recycled before it settles. A dropped instance
// would never reach the observer, so on every paper protocol the
// classifications reported by the end of a cell equal the instances made.
// The run's trailing events, such as baseline DeNovo's fetch-on-write
// fills landing after the last barrier, open instances after the run's
// Finish; a second Finish settles those too.
func TestEveryInstanceClassifies(t *testing.T) {
	cfg := memsys.Default().Scaled(workloads.Tiny.ScaleDiv())
	prog := workloads.MustByName("radix", workloads.Tiny, 16)
	for _, proto := range core.ProtocolNames() {
		env, err := memsys.NewEnv(cfg, prog.FootprintBytes(), prog.Regions())
		if err != nil {
			t.Fatal(err)
		}
		p, err := core.NewProtocol(env, proto)
		if err != nil {
			t.Fatal(err)
		}
		classified := 0
		env.Prof.OnClassify(func(waste.Level, uint8, waste.Category, float64, bool) { classified++ })
		if err := core.NewRunner(env, p, prog).Run(); err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		env.Prof.Finish()
		if made := env.Prof.Instances(); classified != made {
			t.Errorf("%s/radix: %d instances classified of %d made", proto, classified, made)
		}
	}
}
