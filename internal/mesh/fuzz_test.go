package mesh

import (
	"testing"

	"repro/internal/sim"
)

// FuzzRouteMinimality fuzzes the routing contract every fabric model
// leans on: for an arbitrary registered topology, geometry and tile pair,
// iterating NextPort from src must terminate at dst in exactly
// Hops(src, dst) steps, with every step crossing a link the topology
// enumerates. The checked-in corpus under testdata/fuzz seeds the edge
// geometries (1-wide grids, wraparound tie-breaks, corner-to-corner
// routes).
func FuzzRouteMinimality(f *testing.F) {
	f.Add(0, 4, 4, 0, 15)  // mesh corner to corner
	f.Add(1, 4, 4, 0, 8)   // ring antipode (tie goes clockwise)
	f.Add(2, 4, 4, 0, 10)  // torus diameter route
	f.Add(2, 1, 7, 3, 5)   // degenerate 1-wide torus
	f.Add(1, 16, 1, 15, 0) // long ring wrap
	f.Fuzz(func(t *testing.T, kindIdx, w, h, srcRaw, dstRaw int) {
		kinds := TopologyKinds()
		kind := kinds[((kindIdx%len(kinds))+len(kinds))%len(kinds)]
		width := ((w%8)+8)%8 + 1
		height := ((h%8)+8)%8 + 1
		topo, err := NewTopology(kind, width, height)
		if err != nil {
			t.Fatalf("%s %dx%d rejected: %v", kind, width, height, err)
		}
		n := topo.Tiles()
		src := ((srcRaw % n) + n) % n
		dst := ((dstRaw % n) + n) % n

		links := make(map[Link]bool, len(topo.Links()))
		for _, l := range topo.Links() {
			links[l] = true
		}
		steps, cur := 0, src
		for cur != dst {
			port, next := topo.NextPort(cur, dst)
			if port < 0 || port >= topo.Ports() {
				t.Fatalf("%s %dx%d: NextPort(%d,%d) port %d out of range",
					kind, width, height, cur, dst, port)
			}
			if !links[Link{cur, port, next}] {
				t.Fatalf("%s %dx%d: route %d->%d uses unlisted link %d -[%d]-> %d",
					kind, width, height, src, dst, cur, port, next)
			}
			cur = next
			steps++
			if steps > n {
				t.Fatalf("%s %dx%d: route %d->%d does not terminate", kind, width, height, src, dst)
			}
		}
		if want := topo.Hops(src, dst); steps != want {
			t.Fatalf("%s %dx%d: route %d->%d took %d steps, Hops says %d",
				kind, width, height, src, dst, steps, want)
		}
	})
}

// splitmix64 returns a tiny deterministic PRNG seeded with seed, so a
// fuzz schedule is a pure function of the fuzz input (no math/rand state
// to leak between runs).
func splitmix64(seed uint64) func() uint64 {
	return func() uint64 {
		seed += 0x9e3779b97f4a7c15
		z := seed
		z ^= z >> 30
		z *= 0xbf58476d1ce4e5b9
		z ^= z >> 27
		z *= 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
}

// schedPkt is a fuzz schedule's payload: the packet's position on its
// (src, dst) channel and the earliest cycle its minimal route allows.
type schedPkt struct {
	src, seq int
	minAt    int64
}

// randomSchedule is the cycle-level router fuzzers' shared traffic: it
// registers a handler on every tile of m and schedules npkts packets
// drawn from seed — random sources and destinations, 1-5 flits,
// injection cycles spread over a 200-cycle window — so arbitration sees
// every mix of ages. Every delivery must arrive in its channel's
// injection order and no earlier than its minimal route allows: the
// wormhole latency hops*LinkLatency + flits - 1 plus firstHop, the
// router's least delay from injection to the header's first departure.
// Deflection gates a same-cycle injection to the next cycle (firstHop 1);
// vc forwards it in the injection cycle when the injecting event runs
// before that cycle's tick (firstHop 0). It returns the delivered-packet
// counter.
func randomSchedule(t *testing.T, k *sim.Kernel, m *Mesh, seed uint64, npkts int, firstHop int64) *int {
	t.Helper()
	next := splitmix64(seed)
	n := m.Tiles()
	sent := make([]int, n*n) // per (src, dst) channel
	got := make([]int, n*n)
	delivered := new(int)
	for tile := 0; tile < n; tile++ {
		dst := tile
		m.Register(tile, func(p any) {
			v := p.(schedPkt)
			if k.Now() < v.minAt {
				t.Fatalf("%s %s: delivery at %d beats minimal-route bound %d",
					m.Router(), m.Topology().Kind(), k.Now(), v.minAt)
			}
			ch := v.src*n + dst
			if v.seq != got[ch] {
				t.Fatalf("%s %s: packet %d of channel %d->%d delivered, want %d",
					m.Router(), m.Topology().Kind(), v.seq, v.src, dst, got[ch])
			}
			got[ch]++
			*delivered++
		})
	}
	for i := 0; i < npkts; i++ {
		src := int(next() % uint64(n))
		dst := int(next() % uint64(n))
		flits := 1 + int(next()%5)
		at := int64(next() % 200)
		k.At(at, func() {
			minAt := k.Now() + int64(m.Hops(src, dst))*m.cfg.LinkLatency + int64(flits) - 1 + firstHop
			if src == dst {
				minAt = k.Now() + localLatency // no fabric involved
			}
			m.Send(src, dst, flits, schedPkt{src, sent[src*n+dst], minAt})
			sent[src*n+dst]++
		})
	}
	return delivered
}
