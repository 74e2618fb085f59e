package mesh

import (
	"testing"

	"repro/internal/sim"
)

// FuzzDeflectionPermutation fuzzes the deflection router's safety
// contract under arbitrary topologies, geometries and injection
// schedules: after every kernel step the per-tick output assignment must
// have been a permutation (no two flits on one link in one cycle, pinned
// by strictly increasing arrival-ring stamps), no flit may be dropped or
// duplicated (the global flit ledger balances), the active-node mask
// must track exactly the staged nodes, and a tick must have skipped no
// node with a flit that could move (the step rule). After the drain every injected
// packet must have been delivered, in channel order and none earlier than
// its minimal route allows, and the link-traversal ledger must balance:
// actual traversals equal minimal flit-hops plus reported deflected hops.
// The checked-in corpus under testdata/fuzz seeds the edge geometries
// (1-wide grids, hotspot schedules, single-packet runs).
func FuzzDeflectionPermutation(f *testing.F) {
	f.Add(uint64(1), 0, 4, 4, 32)  // paper mesh, mixed traffic
	f.Add(uint64(7), 1, 4, 4, 48)  // ring under load
	f.Add(uint64(9), 2, 4, 4, 48)  // torus wrap contention
	f.Add(uint64(3), 0, 1, 6, 16)  // degenerate 1-wide mesh (single axis)
	f.Add(uint64(11), 2, 1, 7, 24) // degenerate 1-wide torus
	f.Add(uint64(42), 0, 6, 6, 64) // bigger grid, heavier schedule
	f.Add(uint64(5), 1, 16, 1, 1)  // long ring, lone packet
	f.Fuzz(func(t *testing.T, seed uint64, kindIdx, w, h, npkts int) {
		kinds := TopologyKinds()
		kind := kinds[((kindIdx%len(kinds))+len(kinds))%len(kinds)]
		width := ((w%6)+6)%6 + 1
		height := ((h%6)+6)%6 + 1
		npkts = ((npkts%64)+64)%64 + 1

		k := &sim.Kernel{}
		m := New(k, Config{Width: width, Height: height, Topology: kind,
			Router: "deflection", LinkLatency: 3})
		r := m.r.(*deflRouter)
		delivered := randomSchedule(t, k, m, seed, npkts, 1)
		log := newStepLog(&r.cycleNet, deflMovable(r))

		steps := 0
		for k.Step() {
			log.check(t)
			checkDeflConservation(t, r)
			steps++
			if steps > 2_000_000 {
				t.Fatalf("%s %dx%d: schedule of %d packets did not drain (livelock)",
					kind, width, height, npkts)
			}
		}
		if *delivered != npkts {
			t.Fatalf("%s %dx%d: delivered %d of %d packets", kind, width, height, *delivered, npkts)
		}
		checkDeflDrained(t, r)
		var traversals uint64
		for _, l := range m.Topology().Links() {
			traversals += uint64(m.linkBusy[l.From][l.Port])
		}
		if s := m.Stats(); traversals != m.FlitHops()+s.DeflectedHops {
			t.Fatalf("%s %dx%d: %d link traversals, want minimal %d + deflected %d",
				kind, width, height, traversals, m.FlitHops(), s.DeflectedHops)
		}
	})
}
