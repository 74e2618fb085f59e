package mesh

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func newTopoTest(t *testing.T, kind string, w, h int) (*sim.Kernel, *Mesh) {
	t.Helper()
	k := &sim.Kernel{}
	m := New(k, Config{Width: w, Height: h, Topology: kind, LinkLatency: 3})
	for tile := 0; tile < m.Tiles(); tile++ {
		m.Register(tile, func(any) {})
	}
	return k, m
}

func TestNewTopologyRegistry(t *testing.T) {
	for _, kind := range TopologyKinds() {
		topo, err := NewTopology(kind, 4, 4)
		if err != nil {
			t.Fatalf("NewTopology(%s): %v", kind, err)
		}
		if topo.Kind() != kind {
			t.Fatalf("topology %q reports kind %q", kind, topo.Kind())
		}
		if topo.Tiles() != 16 {
			t.Fatalf("%s: %d tiles, want 16", kind, topo.Tiles())
		}
	}
	if topo, err := NewTopology("", 4, 4); err != nil || topo.Kind() != "mesh" {
		t.Fatalf("empty kind: topo=%v err=%v, want mesh", topo, err)
	}
	if _, err := NewTopology("moebius", 4, 4); err == nil {
		t.Fatal("unknown topology accepted")
	}
	if _, err := NewTopology("mesh", 0, 4); err == nil {
		t.Fatal("degenerate geometry accepted")
	}
}

func TestRingHops(t *testing.T) {
	r, _ := NewTopology("ring", 4, 4) // 16-tile ring
	cases := []struct{ src, dst, want int }{
		{0, 0, 0}, {0, 1, 1}, {1, 0, 1}, {0, 8, 8}, {0, 9, 7}, {15, 0, 1}, {0, 15, 1}, {3, 13, 6},
	}
	for _, c := range cases {
		if got := r.Hops(c.src, c.dst); got != c.want {
			t.Errorf("ring Hops(%d,%d) = %d, want %d", c.src, c.dst, got, c.want)
		}
	}
}

func TestTorusHops(t *testing.T) {
	to, _ := NewTopology("torus", 4, 4)
	cases := []struct{ src, dst, want int }{
		{0, 0, 0},
		{0, 3, 1},  // X wraparound
		{0, 12, 1}, // Y wraparound
		{0, 15, 2}, // both wraparounds
		{0, 5, 2},  // interior, same as mesh
		{0, 10, 4}, // worst case: 2+2 (the diameter)
		{5, 10, 2},
	}
	for _, c := range cases {
		if got := to.Hops(c.src, c.dst); got != c.want {
			t.Errorf("torus Hops(%d,%d) = %d, want %d", c.src, c.dst, got, c.want)
		}
	}
}

// Torus routes are never longer than mesh routes between the same tiles:
// the torus only adds links.
func TestTorusNeverWorseThanMesh(t *testing.T) {
	me, _ := NewTopology("mesh", 4, 4)
	to, _ := NewTopology("torus", 4, 4)
	for s := 0; s < 16; s++ {
		for d := 0; d < 16; d++ {
			if to.Hops(s, d) > me.Hops(s, d) {
				t.Fatalf("torus Hops(%d,%d)=%d > mesh %d", s, d, to.Hops(s, d), me.Hops(s, d))
			}
		}
	}
}

// Property: for every topology and tile pair, walking NextPort reaches the
// destination in exactly Hops steps, every step crosses a real link, and a
// Send reports the same hop count.
func TestRoutesMatchHopsProperty(t *testing.T) {
	for _, kind := range TopologyKinds() {
		topo, _ := NewTopology(kind, 4, 4)
		links := map[Link]bool{}
		for _, l := range topo.Links() {
			links[l] = true
		}
		for s := 0; s < topo.Tiles(); s++ {
			for d := 0; d < topo.Tiles(); d++ {
				steps, cur := 0, s
				for cur != d {
					port, next := topo.NextPort(cur, d)
					if port < 0 || port >= topo.Ports() {
						t.Fatalf("%s: NextPort(%d,%d) port %d out of range", kind, cur, d, port)
					}
					if !links[Link{cur, port, next}] {
						t.Fatalf("%s: route %d->%d uses unlisted link %d -[%d]-> %d", kind, s, d, cur, port, next)
					}
					cur = next
					steps++
					if steps > topo.Tiles() {
						t.Fatalf("%s: route %d->%d does not terminate", kind, s, d)
					}
				}
				if want := topo.Hops(s, d); steps != want {
					t.Fatalf("%s: route %d->%d took %d steps, Hops says %d", kind, s, d, steps, want)
				}
			}
		}
	}
}

func TestLinkCounts(t *testing.T) {
	cases := []struct {
		kind string
		want int
	}{
		{"mesh", 48},  // 2 * 2 * (3*4) directed links in a 4x4 grid
		{"ring", 32},  // 2 per tile
		{"torus", 64}, // 4 per tile
	}
	for _, c := range cases {
		topo, _ := NewTopology(c.kind, 4, 4)
		if got := len(topo.Links()); got != c.want {
			t.Errorf("%s: %d directed links, want %d", c.kind, got, c.want)
		}
	}
}

func TestDiameterAndAvgHops(t *testing.T) {
	cases := []struct {
		kind     string
		diameter int
		avg      float64
	}{
		{"mesh", 6, 2.5},
		{"ring", 8, 4.0},
		{"torus", 4, 2.0},
	}
	for _, c := range cases {
		topo, _ := NewTopology(c.kind, 4, 4)
		if got := Diameter(topo); got != c.diameter {
			t.Errorf("%s diameter = %d, want %d", c.kind, got, c.diameter)
		}
		if got := AvgHops(topo); got != c.avg {
			t.Errorf("%s avg hops = %f, want %f", c.kind, got, c.avg)
		}
	}
}

// Uncontended latency on every topology follows the wormhole formula:
// hops*linkLatency + flits-1.
func TestLatencyFormulaPerTopology(t *testing.T) {
	for _, kind := range TopologyKinds() {
		f := func(a, b, fl uint8) bool {
			src, dst := int(a)%16, int(b)%16
			flits := int(fl)%5 + 1
			if src == dst {
				return true
			}
			k, m := newTopoTest(t, kind, 4, 4)
			m.Send(src, dst, flits, nil)
			k.Run()
			return k.Now() == int64(m.Hops(src, dst))*3+int64(flits-1)
		}
		if err := quick.Check(f, nil); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
	}
}

// The ring serializes contending packets on its single clockwise channel.
func TestRingContentionSerializes(t *testing.T) {
	k, m := newTopoTest(t, "ring", 4, 1)
	// 0 -> 1 is one clockwise hop. Two 4-flit packets share link (0, CW):
	// a: start 0, header arrives 3, tail 3+3 = 6.
	// b: link busy until 4, header arrives 7, tail 10.
	m.Send(0, 1, 4, "a")
	m.Send(0, 1, 4, "b")
	k.Run()
	if k.Now() != 10 {
		t.Fatalf("contended ring delivery finished at %d, want 10", k.Now())
	}
}

// Opposite ring directions use independent channels: no cross-contention.
func TestRingDirectionsIndependent(t *testing.T) {
	k, m := newTopoTest(t, "ring", 4, 1)
	m.Send(0, 1, 4, "cw")  // port CW, tail at 6
	m.Send(0, 3, 4, "ccw") // port CCW, also 1 hop, tail at 6
	k.Run()
	if k.Now() != 6 {
		t.Fatalf("independent ring channels finished at %d, want 6", k.Now())
	}
}

// Flit-hop telemetry tracks the per-topology route lengths.
func TestFlitHopsFollowTopology(t *testing.T) {
	wants := map[string]uint64{"mesh": 6 * 5, "ring": 1 * 5, "torus": 2 * 5}
	for _, kind := range TopologyKinds() {
		k, m := newTopoTest(t, kind, 4, 4)
		m.Send(0, 15, 5, nil)
		k.Run()
		if got := m.FlitHops(); got != wants[kind] {
			t.Errorf("%s: FlitHops = %d, want %d", kind, got, wants[kind])
		}
	}
}

func TestSendDeterministicPerTopology(t *testing.T) {
	for _, kind := range TopologyKinds() {
		k1, m1 := newTopoTest(t, kind, 4, 4)
		m1.Send(2, 13, 3, "p")
		m1.Send(7, 4, 2, "q")
		k1.Run()
		k2, m2 := newTopoTest(t, kind, 4, 4)
		m2.Send(2, 13, 3, "p")
		m2.Send(7, 4, 2, "q")
		k2.Run()
		if k1.Now() != k2.Now() || m1.FlitHops() != m2.FlitHops() {
			t.Fatalf("%s: nondeterministic delivery", kind)
		}
	}
}

// BenchmarkTopologyWalk routes every ordered tile pair of a 4x4 grid of
// each kind: one Hops call, then NextPort hop by hop to the destination,
// as a message's accounting and the ideal router's reservation do.
func BenchmarkTopologyWalk(b *testing.B) {
	for _, kind := range TopologyKinds() {
		b.Run(kind, func(b *testing.B) {
			topo, _ := NewTopology(kind, 4, 4)
			n := topo.Tiles()
			for b.Loop() {
				for s := 0; s < n; s++ {
					for d := 0; d < n; d++ {
						topo.Hops(s, d)
						for cur := s; cur != d; {
							_, cur = topo.NextPort(cur, d)
						}
					}
				}
			}
		})
	}
}
