package mesh

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// TestDeflectionTickWorkIsOActive pins the step rule for the deflection
// router with the same work counter the vc test uses: a tick steps only
// the routers a link arrival reaches or that hold a local flit, so a
// single flow crossing a 16x16 mesh costs one step per flit per router
// it crosses — not a step per flit per cycle it spends on a link, and
// not the 256 tiles a full scan walks.
func TestDeflectionTickWorkIsOActive(t *testing.T) {
	k := &sim.Kernel{}
	m := New(k, Config{Width: 16, Height: 16, Router: "deflection", LinkLatency: 3})
	for tile := 0; tile < m.Tiles(); tile++ {
		m.Register(tile, func(any) {})
	}
	r := m.r.(*deflRouter)

	// One 5-flit packet corner to corner: 30 hops on the 16x16 mesh.
	hops := m.Send(0, m.Tiles()-1, 5, nil)

	maxPerStep, ticks := uint64(0), 0
	prev := r.tickVisits
	for k.Step() {
		if d := r.tickVisits - prev; d > 0 {
			ticks++
			if d > maxPerStep {
				maxPerStep = d
			}
		}
		prev = r.tickVisits
	}

	if ticks == 0 {
		t.Fatal("no ticks fired; the traversal did not run")
	}
	// Flits leave the source one per cycle and then keep their spacing,
	// so in one cycle at most the source and one downstream router hold a
	// flit that can move.
	if maxPerStep > 2 {
		t.Errorf("a single 5-flit flow stepped %d nodes in one tick, want <= 2", maxPerStep)
	}
	// One step per flit per router crossed (31 x 5 = 155).
	total := r.tickVisits
	if bound := uint64(5 * (hops + 1)); total > bound {
		t.Errorf("traversal stepped %d nodes over %d hops, want <= %d", total, hops, bound)
	}
}

// deflMovable is the deflection router's side of the step-rule audit
// (stepLog): a node can move a flit at cycle now only from a due ring
// front, its injection backlog (a gated injection included: stepping it
// is what gates it) or its side buffer.
func deflMovable(r *deflRouter) func(n int, now int64) string {
	return func(n int, now int64) string {
		nd := &r.nodes[n]
		for p := range nd.rings {
			if ring := &nd.rings[p]; ring.n > 0 && ring.front().at <= now {
				return fmt.Sprintf("input %d has a flit due at %d", p, ring.front().at)
			}
		}
		switch {
		case nd.injHead < len(nd.injQ):
			return "its injection backlog holds a flit"
		case len(nd.sideQ) > 0:
			return "its side buffer holds a flit"
		}
		return ""
	}
}

// TestDeflectionActiveMaskInvariant steps contended bursts on a 16x16
// mesh and torus, and on a mesh of 1-cycle links (a two-slot arrival
// wheel), and runs the full conservation audit and the step rule after
// every kernel step: mask membership, staged counts, ring-stamp
// monotonicity, the global flit ledger, and no skipped node with a flit
// that could move. Run under -race in CI.
func TestDeflectionActiveMaskInvariant(t *testing.T) {
	for _, c := range []struct {
		name, topo string
		latency    int64
	}{
		{"mesh", "mesh", 3},
		{"torus", "torus", 3},
		{"mesh-latency1", "mesh", 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			k := &sim.Kernel{}
			m := New(k, Config{Width: 16, Height: 16, Topology: c.topo, Router: "deflection",
				LinkLatency: c.latency})
			for tile := 0; tile < m.Tiles(); tile++ {
				m.Register(tile, func(any) {})
			}
			r := m.r.(*deflRouter)
			log := newStepLog(&r.cycleNet, deflMovable(r))
			hot := 16*8 + 8
			for round := 0; round < 3; round++ {
				// Crossing streams, a hotspot, and wraparound-adjacent
				// sources so torus wrap ports carry traffic.
				for _, src := range []int{0, 15, 240, 255, 7, 248} {
					m.Send(src, hot, 5, nil)
					m.Send(hot, src, 3, nil)
				}
				m.Send(0, 255, 5, nil)
				m.Send(255, 0, 5, nil)
				for k.Step() {
					log.check(t)
					checkDeflConservation(t, r)
				}
				checkDeflConservation(t, r)
			}
			checkDeflDrained(t, r)
		})
	}
}
