package mesh

import (
	"testing"

	"repro/internal/sim"
)

// Router-isolated vc benches: drive the fabric directly (no protocol
// engines, no memory system), so ns/op measures the tick loop itself.
// The end-to-end SimThroughputVC* benches at the repo root are dominated
// by the cache/DRAM simulation; these are the ones that expose the
// per-tick O(tiles)-scan vs O(active)-mask difference the PR 8 rewrite
// targets.

// benchVCSparseFlow measures one warm corner-to-corner packet traversal
// per iteration: a single 5-flit packet crosses the full diameter and
// drains. On a 16x16 mesh this is the sparse extreme — at most two of the
// 256 routers hold work at any cycle, so under the old full-scan tick
// nearly all per-tick work was skipping idle nodes.
func benchVCSparseFlow(b *testing.B, w, h int) {
	k := &sim.Kernel{}
	m := New(k, Config{Width: w, Height: h, Router: "vc", LinkLatency: 3})
	for tile := 0; tile < m.Tiles(); tile++ {
		m.Register(tile, func(any) {})
	}
	last := m.Tiles() - 1
	// Warm the pools (packet free list, rings, kernel event slice).
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

func BenchmarkVCSparseFlow4x4(b *testing.B)   { benchVCSparseFlow(b, 4, 4) }
func BenchmarkVCSparseFlow16x16(b *testing.B) { benchVCSparseFlow(b, 16, 16) }

// BenchmarkVCSparseHotspot16x16 is the idle-heavy hotspot shape on the
// large fabric: the four corner tiles stream multi-flit packets at one
// central hot tile. A handful of routers along the four routes carry all
// the work while ~240 tiles idle — the case the active-node mask turns
// from O(tiles) into O(active) per tick.
func BenchmarkVCSparseHotspot16x16(b *testing.B) {
	k := &sim.Kernel{}
	m := New(k, Config{Width: 16, Height: 16, Router: "vc", LinkLatency: 3})
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

// BenchmarkVCDense4x4 saturates the paper's 4x4 fabric with crossing
// streams — the dense regression guard: with every router active the mask
// iteration must cost no more than the old full scan did.
func BenchmarkVCDense4x4(b *testing.B) {
	k := &sim.Kernel{}
	m := New(k, Config{Width: 4, Height: 4, Router: "vc", LinkLatency: 3})
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
