package mesh

import (
	"fmt"
	"math"
	"math/bits"
	"testing"

	"repro/internal/sim"
)

// TestVCTickWorkIsOActive pins the step rule with a work counter: a
// single flow crossing a 16x16 mesh has a flit ready at no more than a
// few routers at any cycle, and a tick steps only those (a router that a
// link arrival reaches, or that still holds a ready flit), not the 256
// tiles a full scan walks nor every router with a staged stage.
func TestVCTickWorkIsOActive(t *testing.T) {
	k := &sim.Kernel{}
	m := New(k, Config{Width: 16, Height: 16, Router: "vc", LinkLatency: 3})
	for tile := 0; tile < m.Tiles(); tile++ {
		m.Register(tile, func(any) {})
	}
	r := m.r.(*vcRouter)

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
	// The packet pipelines: while its head streams ahead its tail is
	// still crossing earlier routers, and a link of 3 cycles holds a new
	// flit every cycle, so at most 3 routers receive or still hold a
	// ready flit in one cycle.
	if maxPerStep > 3 {
		t.Errorf("a single 5-flit flow stepped %d nodes in one tick, want <= 3", maxPerStep)
	}
	// Each flit is stepped once per router it crosses (31 routers x 5
	// flits = 155), plus two steps of the source stalled on credit: its
	// fifth flit waits for the first hop's 4-flit VC to free a slot one
	// link round trip later: 157 steps.
	total := r.tickVisits
	if bound := uint64(5*(hops+1) + 2); total > bound {
		t.Errorf("traversal stepped %d nodes over %d hops, want <= %d", total, hops, bound)
	}
}

// checkActiveMask verifies the membership invariant the O(active) tick
// relies on: activeMask bit n is set exactly while node n's count is
// positive, the count matches the node's live stages, and the candidate
// masks and their per-output summary are the per-output view of the same
// stages — at every VC count, however many words the masks take.
func checkActiveMask(t *testing.T, r *vcRouter) {
	t.Helper()
	checkMaskCount(t, &r.cycleNet)
	for n := range r.nodes {
		nd := &r.nodes[n]
		staged := 0
		for id := range nd.in {
			s := &nd.in[id]
			if s.pkt != nil {
				staged++
			}
			front := int64(math.MaxInt64)
			switch {
			case s.vc < 0 && s.pkt != nil:
				front = math.MinInt64
			case s.arrLen > 0:
				front = s.arr[s.arrHead]
			}
			if s.front != front {
				t.Fatalf("node %d stage %d: cached front %d, want %d", n, id, s.front, front)
			}
		}
		if staged != r.count[n] {
			t.Fatalf("node %d: count = %d but %d stages hold packets", n, r.count[n], staged)
		}
		cand := 0
		for out := 0; out <= r.eject; out++ {
			words := nd.cand[out*r.words : (out+1)*r.words]
			nonzero := false
			for _, w := range words {
				cand += bits.OnesCount64(w)
				nonzero = nonzero || w != 0
			}
			if summary := nd.outs>>uint(out)&1 == 1; summary != nonzero {
				t.Fatalf("node %d: output %d summary bit %v but candidate words %#x", n, out, summary, words)
			}
		}
		if cand != r.count[n] {
			t.Fatalf("node %d: count = %d but %d candidate bits set", n, r.count[n], cand)
		}
	}
}

// vcMovable is the vc router's side of the step-rule audit (stepLog): a
// node can move a flit at cycle now only from a staged source packet or
// from an input VC whose front flit is due.
func vcMovable(r *vcRouter) func(n int, now int64) string {
	return func(n int, now int64) string {
		for id := range r.nodes[n].in {
			s := &r.nodes[n].in[id]
			switch {
			case s.pkt == nil:
			case s.vc < 0:
				return "a source packet is staged"
			case s.arrLen > 0 && s.arr[s.arrHead] <= now:
				return fmt.Sprintf("input %d VC %d has a flit due at %d", s.port, s.vc, s.arr[s.arrHead])
			}
		}
		return ""
	}
}

// TestVCActiveMaskInvariant steps busy bursts on a 16x16 mesh and torus
// and checks the mask invariant and the step rule after every kernel step
// — including the dateline (wraparound) allocation path the torus
// exercises, 32 VCs, whose candidate masks take three words, and a
// 1-cycle link, whose arrival wheel has only two slots. Run under -race
// in CI.
func TestVCActiveMaskInvariant(t *testing.T) {
	for _, c := range []struct {
		name, topo string
		vcs        int
		latency    int64
	}{
		{"mesh", "mesh", 0, 3},
		{"torus", "torus", 0, 3},
		{"torus-vcs32", "torus", 32, 3},
		{"mesh-latency1", "mesh", 0, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			k := &sim.Kernel{}
			m := New(k, Config{Width: 16, Height: 16, Topology: c.topo, Router: "vc", VCs: c.vcs,
				LinkLatency: c.latency})
			for tile := 0; tile < m.Tiles(); tile++ {
				m.Register(tile, func(any) {})
			}
			r := m.r.(*vcRouter)
			log := newStepLog(&r.cycleNet, vcMovable(r))
			hot := 16*8 + 8
			for round := 0; round < 3; round++ {
				// Crossing streams, a hotspot, and wraparound-adjacent
				// sources so torus datelines are crossed.
				for _, src := range []int{0, 15, 240, 255, 7, 248} {
					m.Send(src, hot, 5, nil)
					m.Send(hot, src, 3, nil)
				}
				m.Send(0, 255, 5, nil)
				m.Send(255, 0, 5, nil)
				for k.Step() {
					log.check(t)
					checkActiveMask(t, r)
				}
				checkActiveMask(t, r)
			}
			checkDrained(t, &r.cycleNet)
		})
	}
}
