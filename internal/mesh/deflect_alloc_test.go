package mesh

import (
	"testing"

	"repro/internal/sim"
)

// TestDeflectionTickZeroAlloc pins the allocation-free steady state of
// the deflection router at the paper's 4x4 and at 16x16: once the
// packet/flit free lists, arrival rings and queue backing arrays are
// warm, ticking the network — arbitration, deflections, side-buffer
// parking, ejections and deliveries included — must perform zero heap
// allocations, the same guarantee the vc router pins.
func TestDeflectionTickZeroAlloc(t *testing.T) {
	t.Run("4x4", func(t *testing.T) { testDeflTickZeroAlloc(t, 4, 4) })
	t.Run("16x16", func(t *testing.T) { testDeflTickZeroAlloc(t, 16, 16) })
}

func testDeflTickZeroAlloc(t *testing.T, w, h int) {
	k := &sim.Kernel{}
	m := New(k, Config{Width: w, Height: h, Router: "deflection", LinkLatency: 3})
	for tile := 0; tile < m.Tiles(); tile++ {
		m.Register(tile, func(any) {})
	}

	// The same crossing multi-flit burst the vc test uses: enough
	// head-on contention to force deflections and side-buffer traffic.
	last := m.Tiles() - 1
	burst := func() {
		m.Send(0, last, 5, nil)
		m.Send(last, 0, 5, nil)
		m.Send(w-1, last-(w-1), 5, nil)
		m.Send(last-(w-1), w-1, 5, nil)
		m.Send(1, last-2, 5, nil)
		m.Send(w+1, w+2, 5, nil)
	}

	// Warm every pool: packet and flit free lists, delivery free list,
	// candidate scratch, queue backing arrays, and the kernel's events.
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
		t.Fatalf("steady-state deflection tick allocates: %v allocs per kernel step, want 0", avg)
	}
}
