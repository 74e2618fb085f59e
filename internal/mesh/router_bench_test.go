package mesh

import (
	"testing"

	"repro/internal/sim"
)

// Router-isolated benches of the two cycle-level routers: they drive the
// fabric directly (no protocol engines, no memory system), so ns/op
// measures the tick loop itself, and steps/op reports the node steps
// behind it (tickVisits), so that a change in time can be traced to a
// change in work. Each shape runs under both routers: a sparse single
// flow, a sparse hotspot, a dense 4x4 burst and a uniform 8x8 round. One
// op is one round of sends and the drain that follows, so CI's fixed
// -benchtime counts rounds.

// newBenchMesh builds a w x h mesh under router with a no-op handler on
// every tile.
func newBenchMesh(router string, w, h int) (*sim.Kernel, *Mesh) {
	k := &sim.Kernel{}
	m := New(k, Config{Width: w, Height: h, Router: router, LinkLatency: 3})
	for tile := 0; tile < m.Tiles(); tile++ {
		m.Register(tile, func(any) {})
	}
	return k, m
}

// benchRounds times b.N rounds, each send(i) followed by a drain, after
// three rounds that warm the pools (packet and flit free lists, rings,
// queue backing arrays, the kernel's event slice), and reports the node
// steps per round.
func benchRounds(b *testing.B, k *sim.Kernel, m *Mesh, send func(i int)) {
	for i := 0; i < 3; i++ {
		send(i)
		k.Run()
	}
	var c *cycleNet
	switch r := m.r.(type) {
	case *vcRouter:
		c = &r.cycleNet
	case *deflRouter:
		c = &r.cycleNet
	}
	steps := c.tickVisits
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		send(i)
		k.Run()
	}
	b.ReportMetric(float64(c.tickVisits-steps)/float64(b.N), "steps/op")
}

// benchSparseFlow is one 5-flit packet crossing the full diameter: on
// 16x16 the sparse extreme, where at most a few of the 256 routers hold
// work at any cycle.
func benchSparseFlow(b *testing.B, router string, w, h int) {
	k, m := newBenchMesh(router, w, h)
	last := m.Tiles() - 1
	benchRounds(b, k, m, func(int) { m.Send(0, last, 5, nil) })
}

func BenchmarkVCSparseFlow4x4(b *testing.B)     { benchSparseFlow(b, "vc", 4, 4) }
func BenchmarkVCSparseFlow16x16(b *testing.B)   { benchSparseFlow(b, "vc", 16, 16) }
func BenchmarkDeflSparseFlow4x4(b *testing.B)   { benchSparseFlow(b, "deflection", 4, 4) }
func BenchmarkDeflSparseFlow16x16(b *testing.B) { benchSparseFlow(b, "deflection", 16, 16) }

// benchSparseHotspot has the four corner tiles of a 16x16 mesh stream
// multi-flit packets at the central tile: a handful of routers along the
// four routes carry all the work while about 240 idle, and the
// deflection router deflects at the hot tile.
func benchSparseHotspot(b *testing.B, router string) {
	k, m := newBenchMesh(router, 16, 16)
	hot := 16*8 + 8
	benchRounds(b, k, m, func(int) {
		for _, src := range []int{0, 15, 240, 255} {
			m.Send(src, hot, 5, nil)
		}
	})
}

func BenchmarkVCSparseHotspot16x16(b *testing.B)   { benchSparseHotspot(b, "vc") }
func BenchmarkDeflSparseHotspot16x16(b *testing.B) { benchSparseHotspot(b, "deflection") }

// benchDense saturates the paper's 4x4 fabric with crossing streams, the
// dense regression guard: every router is busy.
func benchDense(b *testing.B, router string) {
	k, m := newBenchMesh(router, 4, 4)
	benchRounds(b, k, m, func(int) {
		for t := 0; t < 16; t++ {
			m.Send(t, 15-t, 5, nil)
		}
	})
}

func BenchmarkVCDense4x4(b *testing.B)   { benchDense(b, "vc") }
func BenchmarkDeflDense4x4(b *testing.B) { benchDense(b, "deflection") }

// benchUniform is the NoC workloads' shape without the protocol engines:
// on an 8x8 mesh, every tile sends one packet to a uniformly drawn other
// tile, a 1-flit control message or a 5-flit line with equal odds. The
// rounds are drawn once from a fixed seed, and op i runs round i mod 16.
func benchUniform(b *testing.B, router string) {
	k, m := newBenchMesh(router, 8, 8)
	n := m.Tiles()
	type send struct{ dst, flits int }
	var rounds [16][]send
	next := splitmix64(1)
	for i := range rounds {
		rounds[i] = make([]send, n)
		for src := range rounds[i] {
			dst := int(next() % uint64(n-1))
			if dst >= src {
				dst++ // any tile but src
			}
			rounds[i][src] = send{dst, 1 + 4*int(next()%2)}
		}
	}
	benchRounds(b, k, m, func(i int) {
		for src, s := range rounds[i%len(rounds)] {
			m.Send(src, s.dst, s.flits, nil)
		}
	})
}

func BenchmarkVCUniform8x8(b *testing.B)   { benchUniform(b, "vc") }
func BenchmarkDeflUniform8x8(b *testing.B) { benchUniform(b, "deflection") }
