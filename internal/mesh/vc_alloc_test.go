package mesh

import (
	"testing"

	"repro/internal/sim"
)

// TestVCTickZeroAlloc pins the allocation-free steady state of the vc
// router at the paper's 4x4 and at 16x16: once the free lists, rings and
// queue backing arrays are warm, ticking the network — switch allocation,
// credit returns, deliveries and re-injection included — must perform
// zero heap allocations. This is the guard that keeps the PR6 free lists
// (and the PR8 active-node mask, which must not allocate either) from
// silently regressing.
func TestVCTickZeroAlloc(t *testing.T) {
	t.Run("4x4", func(t *testing.T) { testVCTickZeroAlloc(t, 4, 4) })
	t.Run("16x16", func(t *testing.T) { testVCTickZeroAlloc(t, 16, 16) })
}

func testVCTickZeroAlloc(t *testing.T, w, h int) {
	k := &sim.Kernel{}
	m := New(k, Config{Width: w, Height: h, Router: "vc", LinkLatency: 3})
	for tile := 0; tile < m.Tiles(); tile++ {
		m.Register(tile, func(any) {})
	}

	// A deterministic burst of crossing multi-flit packets: corner-to-corner
	// streams plus nearby traffic, enough to exercise VC allocation, credit
	// stalls and the ejection path at once. Corners are computed from the
	// dims so the same shape runs on any grid.
	last := m.Tiles() - 1
	burst := func() {
		m.Send(0, last, 5, nil)
		m.Send(last, 0, 5, nil)
		m.Send(w-1, last-(w-1), 5, nil)
		m.Send(last-(w-1), w-1, 5, nil)
		m.Send(1, last-2, 5, nil)
		m.Send(w+1, w+2, 5, nil)
	}

	// Warm every pool: packet free list, delivery free list, credit ring,
	// injection-queue backing arrays, and the kernel's event slice.
	for i := 0; i < 3; i++ {
		burst()
		k.Run()
	}

	// Dry run to learn how many kernel steps one warm burst takes.
	burst()
	steps := 0
	for k.Step() {
		steps++
	}
	if steps < 20 {
		t.Fatalf("burst drained in %d steps; too short to measure", steps)
	}

	// Measured run over the identical schedule. AllocsPerRun calls the
	// function runs+1 times (one warm-up call), so stay inside the burst.
	burst()
	runs := steps - 2
	avg := testing.AllocsPerRun(runs, func() {
		if !k.Step() {
			t.Fatal("kernel drained mid-measurement")
		}
	})
	k.Run()
	if avg != 0 {
		t.Fatalf("steady-state vc tick allocates: %v allocs per kernel step, want 0", avg)
	}
}
