package mesh

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// checkDeflConservation is the white-box no-drop/no-duplicate audit the
// deflection property and fuzz tests run after every kernel step: every
// live flit record sits in exactly one place (a link arrival ring, an
// injection queue, or a side buffer), per-node counts and the active-node
// bitmask agree with the structures, and each ring's arrival
// stamps are strictly increasing (at most one flit enters a link per
// cycle — the per-tick output-port assignment was a permutation).
func checkDeflConservation(t *testing.T, r *deflRouter) {
	t.Helper()
	total := 0
	for n := range r.nodes {
		nd := &r.nodes[n]
		staged := 0
		for p := range nd.rings {
			ring := &nd.rings[p]
			prev := int64(-1)
			for i := 0; i < ring.n; i++ {
				slot := &ring.s[(ring.head+i)%len(ring.s)]
				if slot.f == nil {
					t.Fatalf("node %d port %d: nil flit in ring slot %d", n, p, i)
				}
				if slot.at <= prev {
					t.Fatalf("node %d port %d: ring stamps not strictly increasing (%d after %d) — two flits on one link in one cycle", n, p, slot.at, prev)
				}
				prev = slot.at
			}
			staged += ring.n
		}
		for i := nd.injHead; i < len(nd.injQ); i++ {
			if nd.injQ[i] == nil {
				t.Fatalf("node %d: nil flit in live injection queue", n)
			}
		}
		for _, f := range nd.sideQ {
			if f == nil {
				t.Fatalf("node %d: nil flit in side buffer", n)
			}
		}
		staged += nd.localLen()
		if staged != r.count[n] {
			t.Fatalf("node %d: count = %d but %d flits present", n, r.count[n], staged)
		}
		total += staged
	}
	checkMaskCount(t, &r.cycleNet)
	if total != r.flits {
		t.Fatalf("%d flit records on the network, router accounts %d (drop or duplicate)", total, r.flits)
	}
}

// checkDeflDrained asserts a fully drained network: no live flits, no
// in-flight or parked packets, no active bits and no wake marks.
func checkDeflDrained(t *testing.T, r *deflRouter) {
	t.Helper()
	if r.flits != 0 {
		t.Fatalf("drained network still accounts %d flits", r.flits)
	}
	checkDrained(t, &r.cycleNet)
}

// An uncontended flit pays one arbitration cycle at injection plus
// LinkLatency per hop — the same formula as the vc router, so latencies
// are directly comparable across the two cycle-level models.
func TestDeflectionUncontendedSingleFlitLatency(t *testing.T) {
	k, m, delivered := newRouterTest(t, "deflection", "mesh", 4, 4)
	m.Send(0, 15, 1, nil) // 6 hops
	k.Run()
	if *delivered != 1 {
		t.Fatal("not delivered")
	}
	s := m.Stats()
	if s.LatencyMax != 6*3+1 {
		t.Fatalf("deflection 1-flit latency = %d, want 19", s.LatencyMax)
	}
	if s.DeflectedHops != 0 {
		t.Fatalf("uncontended flit deflected %d hops", s.DeflectedHops)
	}
}

// Multi-flit packets inject one flit per cycle and eject one per cycle:
// hops*L + flits, matching the vc pipeline formula.
func TestDeflectionUncontendedMultiFlitLatency(t *testing.T) {
	k, m, _ := newRouterTest(t, "deflection", "mesh", 4, 4)
	m.Send(0, 2, 4, "a") // 2 hops, 4 flits
	k.Run()
	if got := m.Stats().LatencyMax; got != 2*3+4 {
		t.Fatalf("deflection 4-flit 2-hop latency = %d, want 10", got)
	}
}

// The deflection router is deterministic: identical injection sequences
// yield identical delivery times, latencies and telemetry (deflected
// hops included) on every topology.
func TestDeflectionSendDeterministicPerTopology(t *testing.T) {
	for _, kind := range TopologyKinds() {
		run := func() (int64, NetStats) {
			k, m, _ := newRouterTest(t, "deflection", kind, 4, 4)
			for i := 0; i < 40; i++ {
				m.Send(i%16, (i*7+3)%16, 1+i%5, nil)
			}
			k.Run()
			return k.Now(), m.Stats()
		}
		t1, s1 := run()
		t2, s2 := run()
		if t1 != t2 || s1 != s2 {
			t.Fatalf("%s: nondeterministic deflection delivery: %d/%d %+v %+v", kind, t1, t2, s1, s2)
		}
	}
}

// All-to-all traffic drains on every topology — oldest-first priority is
// the livelock-freedom argument (the globally oldest flit always wins its
// arbitration, so it advances productively every cycle it is staged).
// Every packet completes, no faster than its minimal route allows, and
// after the drain the traversal ledger balances: actual link traversals
// equal the minimal flit-hops charged at injection plus the deflected
// hops reported as waste.
func TestDeflectionAllToAllDrainsEveryTopology(t *testing.T) {
	for _, kind := range TopologyKinds() {
		k, m, delivered := newRouterTest(t, "deflection", kind, 4, 4)
		r := m.r.(*deflRouter)
		want := 0
		for s := 0; s < 16; s++ {
			for d := 0; d < 16; d++ {
				if s == d {
					continue
				}
				m.Send(s, d, 5, nil)
				want++
			}
		}
		if steps := k.RunLimit(5_000_000); steps == 5_000_000 {
			t.Fatalf("%s: deflection network livelocked", kind)
		}
		if *delivered != want {
			t.Fatalf("%s: delivered %d of %d packets", kind, *delivered, want)
		}
		checkDeflDrained(t, r)
		s := m.Stats()
		var traversals uint64
		for _, l := range m.Topology().Links() {
			traversals += uint64(m.linkBusy[l.From][l.Port])
		}
		if traversals != m.FlitHops()+s.DeflectedHops {
			t.Fatalf("%s: %d link traversals, want minimal %d + deflected %d",
				kind, traversals, m.FlitHops(), s.DeflectedHops)
		}
		if kind == "mesh" && s.DeflectedHops == 0 {
			t.Errorf("mesh all-to-all saw no deflections; contention model suspect")
		}
	}
}

// Per-packet minimality: a packet can never be delivered before its
// minimal route allows (injection + hops*L + flits). The payload carries
// the bound and the handler checks it against the kernel clock.
func TestDeflectionDeliveryNeverBeatsMinimalRoute(t *testing.T) {
	for _, kind := range TopologyKinds() {
		k := &sim.Kernel{}
		m := New(k, Config{Width: 4, Height: 4, Topology: kind, Router: "deflection",
			LinkLatency: 3})
		for tile := 0; tile < m.Tiles(); tile++ {
			m.Register(tile, func(p any) {
				if minAt := p.(int64); k.Now() < minAt {
					t.Fatalf("%s: delivery at %d beats minimal-route bound %d", kind, k.Now(), minAt)
				}
			})
		}
		for i := 0; i < 60; i++ {
			s, d, flits := i%16, (i*11+5)%16, 1+i%5
			if s == d {
				continue
			}
			m.Send(s, d, flits, k.Now()+int64(m.Hops(s, d))*3+int64(flits))
		}
		k.Run()
	}
}

// Starvation: a saturating hotspot cannot livelock a crossing flow. The
// cross packet is injected while the hotspot traffic is already in
// flight, so it is strictly the youngest traffic on the fabric — and it
// still delivers within the age-priority bound: every older flit
// advances productively each cycle it is staged, so once the older
// traffic drains the cross packet's own minimal route is all that
// remains. The bound is loose but finite: a constant factor over the
// older flits' ejection-serialized drain time plus the cross route.
func TestDeflectionHotspotCannotStarveCrossFlow(t *testing.T) {
	k := &sim.Kernel{}
	m := New(k, Config{Width: 4, Height: 4, Topology: "mesh", Router: "deflection",
		LinkLatency: 3})
	crossAt := int64(-1)
	for tile := 0; tile < m.Tiles(); tile++ {
		m.Register(tile, func(p any) {
			if s, ok := p.(string); ok && s == "cross" {
				crossAt = k.Now()
			}
		})
	}
	olderFlits := 0
	for round := 0; round < 12; round++ {
		for src := 1; src < 16; src++ {
			m.Send(src, 0, 5, nil)
			olderFlits += 5
		}
	}
	k.At(40, func() { m.Send(3, 12, 1, "cross") })
	if steps := k.RunLimit(2_000_000); steps == 2_000_000 {
		t.Fatal("hotspot traffic never drained (livelock)")
	}
	if crossAt < 0 {
		t.Fatal("cross packet starved: hotspot drained but it was never delivered")
	}
	bound := 40 + int64(olderFlits)*8 + int64(m.Hops(3, 12))*3 + 1
	if crossAt > bound {
		t.Fatalf("cross packet delivered at %d, beyond age-priority bound %d", crossAt, bound)
	}
}

// Point-to-point ordering: packets between one (src, dst) pair must
// deliver in injection order even when the fabric reorders them — the
// skeleton's per-channel in-order delivery is what lets the coherence
// protocols run unchanged on both cycle-level routers. Deflections
// reorder flits on detours; the vc router reorders packets once a
// dateline class holds more than one VC (VCs >= 4), because its
// round-robin allocators let a younger packet on one VC overtake an older
// one stalled on another. The background cross traffic makes detours and
// stalls likely.
func TestDeflectionDeliveryInOrderPerPair(t *testing.T) {
	type config struct {
		router, topo string
		vcs          int
	}
	cases := []config{{"deflection", "mesh", 0}}
	for _, topo := range TopologyKinds() {
		for _, vcs := range []int{2, 4, 8} {
			cases = append(cases, config{"vc", topo, vcs})
		}
	}
	for _, c := range cases {
		name := c.router + "/" + c.topo
		if c.vcs != 0 {
			name += fmt.Sprintf("/vcs%d", c.vcs)
		}
		t.Run(name, func(t *testing.T) {
			k := &sim.Kernel{}
			m := New(k, Config{Width: 4, Height: 4, Topology: c.topo, Router: c.router, VCs: c.vcs,
				LinkLatency: 3})
			lastSeq := make([]int, m.Tiles()) // per source, at the one destination
			for tile := 0; tile < m.Tiles(); tile++ {
				m.Register(tile, func(p any) {
					if p == nil {
						return
					}
					v := p.([2]int)
					src, seq := v[0], v[1]
					if seq != lastSeq[src]+1 {
						t.Fatalf("packet %d from tile %d delivered after %d", seq, src, lastSeq[src])
					}
					lastSeq[src] = seq
				})
			}
			for round := 1; round <= 10; round++ {
				for src := 1; src < 16; src++ {
					m.Send(src, 0, 1+(src+round)%5, [2]int{src, round})
					// Background cross traffic to force detours and stalls.
					m.Send((src+5)%16, (src*3)%16, 2, nil)
				}
			}
			if steps := k.RunLimit(2_000_000); steps == 2_000_000 {
				t.Fatal("network did not drain")
			}
			for src := 1; src < 16; src++ {
				if lastSeq[src] != 10 {
					t.Fatalf("tile %d delivered %d of 10 ordered packets", src, lastSeq[src])
				}
			}
		})
	}
}

// A saturating hotspot must both deflect (contention at the hot tile's
// inbound ports) and report strictly higher mean latency than the ideal
// reservation model — congestion is visible, not hidden.
func TestDeflectionHotspotTelemetry(t *testing.T) {
	ideal := hotspotMeanLatency(t, "ideal")
	defl := hotspotMeanLatency(t, "deflection")
	if !(defl > ideal) {
		t.Fatalf("deflection mean latency %.2f not strictly above ideal %.2f", defl, ideal)
	}
	k, m, _ := newRouterTest(t, "deflection", "mesh", 4, 4)
	for round := 0; round < 8; round++ {
		for src := 1; src < 16; src++ {
			m.Send(src, 0, 5, nil)
		}
	}
	k.Run()
	s := m.Stats()
	if s.Router != "deflection" {
		t.Fatalf("stats router = %q", s.Router)
	}
	if s.DeflectedHops == 0 {
		t.Fatal("saturating hotspot produced zero deflected hops")
	}
	if s.PeakVCOccupancy <= 0 {
		t.Fatalf("peak local-queue occupancy %d; injection backlog must register", s.PeakVCOccupancy)
	}
	if s.LinkUtilMax <= s.LinkUtilMean || s.LinkUtilMax > 1 {
		t.Fatalf("link utilization mean %.3f max %.3f implausible", s.LinkUtilMean, s.LinkUtilMax)
	}
	var histTotal uint64
	for _, c := range s.LatencyHist {
		histTotal += c
	}
	if histTotal != s.Delivered {
		t.Fatalf("latency histogram counts %d packets, delivered %d", histTotal, s.Delivered)
	}
}
