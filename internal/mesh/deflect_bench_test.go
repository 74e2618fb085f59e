package mesh

import (
	"testing"

	"repro/internal/sim"
)

// Router-isolated deflection benches, the siblings of the vc set in
// vc_bench_test.go: drive the fabric directly (no protocol engines, no
// memory system), so ns/op measures the deflection tick loop itself —
// arbitration, deflections and the endpoint reorder path — under the
// same sparse/hotspot/dense shapes the vc benches pin.

func benchDeflSparseFlow(b *testing.B, w, h int) {
	k := &sim.Kernel{}
	m := New(k, Config{Width: w, Height: h, Router: "deflection", LinkLatency: 3})
	for tile := 0; tile < m.Tiles(); tile++ {
		m.Register(tile, func(any) {})
	}
	last := m.Tiles() - 1
	// Warm the pools (packet/flit free lists, rings, kernel event slice).
	for i := 0; i < 3; i++ {
		m.Send(0, last, 5, nil)
		k.Run()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Send(0, last, 5, nil)
		k.Run()
	}
}

func BenchmarkDeflSparseFlow4x4(b *testing.B)   { benchDeflSparseFlow(b, 4, 4) }
func BenchmarkDeflSparseFlow16x16(b *testing.B) { benchDeflSparseFlow(b, 16, 16) }

// BenchmarkDeflSparseHotspot16x16 is the idle-heavy hotspot shape on the
// large fabric: four corner tiles stream multi-flit packets at one
// central hot tile, so a handful of routers carry all the work — plus,
// unlike vc, real contention at the hot tile forces deflections.
func BenchmarkDeflSparseHotspot16x16(b *testing.B) {
	k := &sim.Kernel{}
	m := New(k, Config{Width: 16, Height: 16, Router: "deflection", LinkLatency: 3})
	for tile := 0; tile < m.Tiles(); tile++ {
		m.Register(tile, func(any) {})
	}
	hot := 16*8 + 8 // central tile
	burst := func() {
		for _, src := range []int{0, 15, 240, 255} {
			m.Send(src, hot, 5, nil)
		}
	}
	for i := 0; i < 3; i++ {
		burst()
		k.Run()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		burst()
		k.Run()
	}
}

// BenchmarkDeflDense4x4 saturates the paper's 4x4 fabric with crossing
// streams — every router active, heavy deflection traffic, the dense
// regression guard for the arbitration loop.
func BenchmarkDeflDense4x4(b *testing.B) {
	k := &sim.Kernel{}
	m := New(k, Config{Width: 4, Height: 4, Router: "deflection", LinkLatency: 3})
	for tile := 0; tile < m.Tiles(); tile++ {
		m.Register(tile, func(any) {})
	}
	burst := func() {
		for t := 0; t < 16; t++ {
			m.Send(t, 15-t, 5, nil)
		}
	}
	for i := 0; i < 3; i++ {
		burst()
		k.Run()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		burst()
		k.Run()
	}
}
