package mesh

import (
	"testing"

	"repro/internal/sim"
)

func newRouterTest(t *testing.T, router, topo string, w, h int) (*sim.Kernel, *Mesh, *int) {
	t.Helper()
	k := &sim.Kernel{}
	m := New(k, Config{Width: w, Height: h, Topology: topo, Router: router,
		LinkLatency: 3})
	delivered := new(int)
	for tile := 0; tile < m.Tiles(); tile++ {
		m.Register(tile, func(any) { *delivered++ })
	}
	return k, m, delivered
}

func TestRouterRegistry(t *testing.T) {
	for _, kind := range RouterKinds() {
		if err := ValidRouter(kind); err != nil {
			t.Errorf("registered router %q rejected: %v", kind, err)
		}
		if desc, err := RouterDescription(kind); err != nil || desc == "" {
			t.Errorf("registered router %q has no description (err %v)", kind, err)
		}
		k := &sim.Kernel{}
		m := New(k, Config{Width: 2, Height: 2, Router: kind, LinkLatency: 1})
		if m.Router() != kind {
			t.Errorf("router %q reports kind %q", kind, m.Router())
		}
	}
	if err := ValidRouter(""); err != nil {
		t.Errorf("empty router rejected: %v", err)
	}
	if desc, err := RouterDescription(""); err != nil || desc == "" {
		t.Errorf("default router description missing (err %v)", err)
	}
	if err := ValidRouter("bufferless"); err == nil {
		t.Error("unknown router accepted")
	}
	// Regression: an unregistered kind used to describe itself as "",
	// which printed an empty inventory row instead of failing.
	if desc, err := RouterDescription("bufferless"); err == nil {
		t.Errorf("unknown router described as %q; want a loud error", desc)
	}
	defer func() {
		if recover() == nil {
			t.Error("New did not panic on unknown router")
		}
	}()
	New(&sim.Kernel{}, Config{Width: 2, Height: 2, Router: "bufferless"})
}

// Regression for the silent dateline imbalance: an odd VC count used to
// be accepted and split unevenly between the two dateline classes. The vc
// router now refuses to construct (user input is validated earlier by
// memsys.Config.Validate; reaching New with a bad count is a bug). The
// same holds above MaxVCs, where an unbounded count could exhaust memory.
func TestVCOddCountPanics(t *testing.T) {
	for _, cfg := range []Config{{VCs: 1}, {VCs: 3}, {VCs: 5}, {VCs: -2}, {VCs: MaxVCs + 2}, {VCDepth: MaxVCDepth + 1}} {
		cfg.Width, cfg.Height, cfg.Router, cfg.LinkLatency = 2, 2, "vc", 1
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("VCs=%d VCDepth=%d accepted; want a construction panic", cfg.VCs, cfg.VCDepth)
				}
			}()
			New(&sim.Kernel{}, cfg)
		}()
	}
	// Even counts up to the bound and the zero default still construct.
	for _, vcs := range []int{0, 2, 6, MaxVCs} {
		New(&sim.Kernel{}, Config{Width: 2, Height: 2, Router: "vc", VCs: vcs, LinkLatency: 1})
	}
	New(&sim.Kernel{}, Config{Width: 2, Height: 2, Router: "vc", VCDepth: MaxVCDepth, LinkLatency: 1})
}

// A single flit through an idle vc network pays exactly one allocation
// cycle at injection plus LinkLatency per hop: hops*L + 1, one cycle more
// than the ideal router's hops*L.
func TestVCUncontendedSingleFlitLatency(t *testing.T) {
	k, m, delivered := newRouterTest(t, "vc", "mesh", 4, 4)
	m.Send(0, 15, 1, nil) // 6 hops
	k.Run()
	if *delivered != 1 {
		t.Fatal("not delivered")
	}
	if got := m.Stats().LatencyMax; got != 6*3+1 {
		t.Fatalf("vc 1-flit latency = %d, want 19", got)
	}
}

// Multi-flit packets pipeline one flit per cycle behind the header:
// hops*L + flits, again exactly one cycle over the ideal formula.
func TestVCUncontendedMultiFlitLatency(t *testing.T) {
	k, m, _ := newRouterTest(t, "vc", "mesh", 4, 4)
	m.Send(0, 2, 4, "a") // 2 hops, 4 flits (= VCDepth, so no credit stall)
	k.Run()
	if got := m.Stats().LatencyMax; got != 2*3+4 {
		t.Fatalf("vc 4-flit 2-hop latency = %d, want 10", got)
	}
}

// The vc router is deterministic: identical injection sequences yield
// identical delivery times, latencies and telemetry on every topology.
func TestVCSendDeterministicPerTopology(t *testing.T) {
	for _, kind := range TopologyKinds() {
		run := func() (int64, NetStats) {
			k, m, _ := newRouterTest(t, "vc", kind, 4, 4)
			for i := 0; i < 40; i++ {
				m.Send(i%16, (i*7+3)%16, 1+i%5, nil)
			}
			k.Run()
			return k.Now(), m.Stats()
		}
		t1, s1 := run()
		t2, s2 := run()
		if t1 != t2 || s1 != s2 {
			t.Fatalf("%s: nondeterministic vc delivery: %d/%d %+v %+v", kind, t1, t2, s1, s2)
		}
	}
}

// All-to-all traffic drains on every topology: the dateline VC classes
// break the ring/torus wraparound dependency cycles, so the credit-based
// router cannot deadlock. RunLimit bounds the test against livelock.
func TestVCAllToAllDrainsEveryTopology(t *testing.T) {
	for _, kind := range TopologyKinds() {
		k, m, delivered := newRouterTest(t, "vc", kind, 4, 4)
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
			t.Fatalf("%s: vc network livelocked", kind)
		}
		if *delivered != want {
			t.Fatalf("%s: delivered %d of %d packets (deadlock)", kind, *delivered, want)
		}
		checkDrained(t, &m.r.(*vcRouter).cycleNet)
	}
}

// hotspotMeanLatency drives the acceptance scenario: every tile repeatedly
// fires packets at tile 0 and the mean delivery latency is measured.
func hotspotMeanLatency(t *testing.T, router string) float64 {
	t.Helper()
	k, m, delivered := newRouterTest(t, router, "mesh", 4, 4)
	want := 0
	for round := 0; round < 8; round++ {
		for src := 1; src < 16; src++ {
			m.Send(src, 0, 5, nil)
			want++
		}
	}
	k.Run()
	if *delivered != want {
		t.Fatalf("%s: delivered %d of %d", router, *delivered, want)
	}
	s := m.Stats()
	if s.Delivered != uint64(want) || s.LatencyMean <= 0 {
		t.Fatalf("%s: bad stats %+v", router, s)
	}
	return s.LatencyMean
}

// The headline congestion claim: on a hotspot pattern the cycle-level vc
// router reports strictly higher mean packet latency than the ideal
// injection-time reservation on the same topology — buffers, credits and
// allocation stalls are visible instead of hidden.
func TestVCHotspotLatencyExceedsIdeal(t *testing.T) {
	ideal := hotspotMeanLatency(t, "ideal")
	vc := hotspotMeanLatency(t, "vc")
	if !(vc > ideal) {
		t.Fatalf("vc mean latency %.2f not strictly above ideal %.2f", vc, ideal)
	}
}

// Congestion telemetry: the hotspot saturates tile 0's inbound links and
// backs flits up in the VC buffers.
func TestVCStatsTelemetry(t *testing.T) {
	k, m, _ := newRouterTest(t, "vc", "mesh", 4, 4)
	for round := 0; round < 8; round++ {
		for src := 1; src < 16; src++ {
			m.Send(src, 0, 5, nil)
		}
	}
	k.Run()
	s := m.Stats()
	if s.Router != "vc" {
		t.Fatalf("stats router = %q", s.Router)
	}
	if s.PeakVCOccupancy <= 0 || s.PeakVCOccupancy > defaultVCDepth {
		t.Fatalf("peak VC occupancy %d outside (0, %d]", s.PeakVCOccupancy, defaultVCDepth)
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

// ResetStats opens a fresh measurement window without touching the
// cumulative packet/flit-hop counters.
func TestResetStatsWindow(t *testing.T) {
	k, m, _ := newRouterTest(t, "ideal", "mesh", 4, 4)
	m.Send(0, 15, 5, nil)
	k.Run()
	if m.Stats().Delivered != 1 {
		t.Fatal("warm-up delivery not counted before reset")
	}
	m.ResetStats()
	if s := m.Stats(); s.Delivered != 0 || s.LatencyMax != 0 || s.LinkUtilMax != 0 {
		t.Fatalf("stats not zeroed: %+v", s)
	}
	m.Send(0, 3, 2, nil)
	k.Run()
	s := m.Stats()
	if s.Delivered != 1 || s.LatencyMax != 3*3+1 {
		t.Fatalf("measured window wrong: %+v", s)
	}
	if m.Packets() != 2 || m.FlitHops() != 30+6 {
		t.Fatalf("cumulative counters disturbed: %d packets, %d flit-hops",
			m.Packets(), m.FlitHops())
	}
}

// Dateline bookkeeping: exactly the wraparound links are flagged, and
// every port maps to a sane axis.
func TestWrapLinkDetection(t *testing.T) {
	for _, kind := range TopologyKinds() {
		topo, _ := NewTopology(kind, 4, 4)
		wraps := 0
		for _, l := range topo.Links() {
			if topo.Wraparound(l.From, l.Port) {
				wraps++
			}
		}
		want := map[string]int{"mesh": 0, "ring": 2, "torus": 16}[kind]
		if wraps != want {
			t.Errorf("%s: %d wraparound links, want %d", kind, wraps, want)
		}
		for p := 0; p < topo.Ports(); p++ {
			if a := topo.PortAxis(p); a < 0 || a > 1 {
				t.Errorf("%s: port %d axis %d out of range", kind, p, a)
			}
		}
	}
}

// The ideal router still matches the historical wormhole formula after the
// refactor (the golden suite pins the full matrices; this pins the fabric).
func TestIdealLatencyUnchanged(t *testing.T) {
	k, m, _ := newRouterTest(t, "ideal", "mesh", 4, 4)
	m.Send(0, 15, 5, nil)
	k.Run()
	if k.Now() != 6*3+4 {
		t.Fatalf("ideal latency = %d, want 22", k.Now())
	}
	if s := m.Stats(); s.LatencyMax != 22 || s.PeakVCOccupancy != 0 {
		t.Fatalf("ideal stats wrong: %+v", s)
	}
}
