package mesh

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func newTest(w, h int) (*sim.Kernel, *Mesh, *[]any) {
	k := &sim.Kernel{}
	m := New(k, Config{Width: w, Height: h, LinkLatency: 3})
	delivered := &[]any{}
	for t := 0; t < m.Tiles(); t++ {
		m.Register(t, func(p any) { *delivered = append(*delivered, p) })
	}
	return k, m, delivered
}

func TestHopsManhattan(t *testing.T) {
	_, m, _ := newTest(4, 4)
	cases := []struct{ src, dst, want int }{
		{0, 0, 0}, {0, 1, 1}, {0, 3, 3}, {0, 15, 6}, {5, 10, 2}, {3, 12, 6},
	}
	for _, c := range cases {
		if got := m.Hops(c.src, c.dst); got != c.want {
			t.Errorf("Hops(%d,%d) = %d, want %d", c.src, c.dst, got, c.want)
		}
	}
}

func TestLocalDelivery(t *testing.T) {
	k, m, got := newTest(4, 4)
	hops := m.Send(5, 5, 3, "x")
	if hops != 0 {
		t.Fatalf("same-tile hops = %d, want 0", hops)
	}
	k.Run()
	if len(*got) != 1 || (*got)[0] != "x" {
		t.Fatalf("delivery = %v", *got)
	}
	if k.Now() != 1 {
		t.Fatalf("local delivery at %d, want 1", k.Now())
	}
}

func TestUncontendedLatency(t *testing.T) {
	k, m, got := newTest(4, 4)
	// 0 -> 3: 3 hops. 1-flit packet: 3 hops * 3 cycles = 9.
	m.Send(0, 3, 1, "a")
	k.Run()
	if len(*got) != 1 {
		t.Fatal("not delivered")
	}
	if k.Now() != 9 {
		t.Fatalf("1-flit latency = %d, want 9", k.Now())
	}
}

func TestMultiFlitTail(t *testing.T) {
	k, m, _ := newTest(4, 4)
	// 5 flits over 2 hops: header 2*3=6, tail +4 => 10.
	var at int64
	m2 := m
	_ = m2
	m.Send(0, 2, 5, "a")
	k.At(0, func() {})
	k.Run()
	at = k.Now()
	if at != 10 {
		t.Fatalf("5-flit 2-hop latency = %d, want 10", at)
	}
}

func TestFlitHopAccounting(t *testing.T) {
	k, m, _ := newTest(4, 4)
	m.Send(0, 15, 5, "a") // 6 hops * 5 flits = 30
	m.Send(1, 1, 5, "b")  // local: 0
	k.Run()
	if m.FlitHops() != 30 {
		t.Fatalf("FlitHops = %d, want 30", m.FlitHops())
	}
	if m.Packets() != 2 {
		t.Fatalf("Packets = %d, want 2", m.Packets())
	}
}

func TestLinkContentionSerializes(t *testing.T) {
	k, m, got := newTest(4, 1)
	// Two 4-flit packets over the same first link (0->1...): the second
	// header cannot start until the first has fully serialized (4 cycles).
	m.Send(0, 3, 4, "a")
	m.Send(0, 3, 4, "b")
	k.Run()
	if len(*got) != 2 {
		t.Fatal("not all delivered")
	}
	// First: start 0, per-hop start times 0,4?? — each hop reserves flits
	// cycles; header latency 3 but serialization 4 dominates pipelining.
	// a: hop starts 0,3,6 (no contention downstream since a leads), tail
	// arrival = 6+3+3 = 12.
	// b: first hop start = 4 (link busy until 4), then contends with a's
	// reservations downstream: link1 free at 3+4=7, b header arrives at
	// 4+3=7 -> start 7; link2 free at 6+4=10, b at 7+3=10 -> start 10;
	// arrival = 10+3+3 = 16.
	if k.Now() != 16 {
		t.Fatalf("contended delivery finished at %d, want 16", k.Now())
	}
}

func TestXYRouteDeterministic(t *testing.T) {
	// Sending the same packet twice yields identical timing state.
	k1, m1, _ := newTest(4, 4)
	m1.Send(2, 13, 3, "p")
	k1.Run()
	t1 := k1.Now()
	k2, m2, _ := newTest(4, 4)
	m2.Send(2, 13, 3, "p")
	k2.Run()
	if k2.Now() != t1 {
		t.Fatalf("nondeterministic delivery: %d vs %d", k2.Now(), t1)
	}
}

func TestRegisterTwicePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on duplicate Register")
		}
	}()
	k := &sim.Kernel{}
	m := New(k, Config{Width: 2, Height: 2, LinkLatency: 1})
	m.Register(0, func(any) {})
	m.Register(0, func(any) {})
}

func TestZeroFlitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on zero-flit send")
		}
	}()
	k := &sim.Kernel{}
	m := New(k, Config{Width: 2, Height: 2, LinkLatency: 1})
	m.Register(0, func(any) {})
	m.Register(1, func(any) {})
	m.Send(0, 1, 0, nil)
}

// Property: hops equals Manhattan distance for all tile pairs in a 4x4 mesh,
// and a send's reported hops matches Hops().
func TestHopsProperty(t *testing.T) {
	f := func(a, b uint8) bool {
		src, dst := int(a)%16, int(b)%16
		k, m, _ := newTest(4, 4)
		hops := m.Send(src, dst, 1, nil)
		k.Run()
		sx, sy := src%4, src/4
		dx, dy := dst%4, dst/4
		man := abs(sx-dx) + abs(sy-dy)
		return hops == man && m.Hops(src, dst) == man
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: uncontended latency = hops*linkLatency + flits-1 for any route.
func TestLatencyFormulaProperty(t *testing.T) {
	f := func(a, b, fl uint8) bool {
		src, dst := int(a)%16, int(b)%16
		flits := int(fl)%5 + 1
		if src == dst {
			return true
		}
		k, m, _ := newTest(4, 4)
		m.Send(src, dst, flits, nil)
		k.Run()
		want := int64(m.Hops(src, dst))*3 + int64(flits-1)
		return k.Now() == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMeshSend(b *testing.B) {
	k := &sim.Kernel{}
	m := New(k, Config{Width: 4, Height: 4, LinkLatency: 3})
	for t := 0; t < 16; t++ {
		m.Register(t, func(any) {})
	}
	for i := 0; i < b.N; i++ {
		m.Send(i%16, (i*7)%16, 1+i%5, nil)
		if k.Pending() > 4096 {
			k.Run()
		}
	}
	k.Run()
}
