package bloom

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestH3Deterministic(t *testing.T) {
	a, b := NewH3(7), NewH3(7)
	for k := uint32(0); k < 1000; k += 13 {
		if a.Hash(k) != b.Hash(k) {
			t.Fatalf("H3 not deterministic at key %d", k)
		}
	}
	if NewH3(7).Hash(12345) == NewH3(8).Hash(12345) &&
		NewH3(7).Hash(54321) == NewH3(8).Hash(54321) {
		t.Fatal("different seeds produced identical hashes")
	}
}

func TestH3ZeroKey(t *testing.T) {
	if NewH3(1).Hash(0) != 0 {
		t.Fatal("H3(0) must be 0 (empty XOR)")
	}
}

func TestFilterBasics(t *testing.T) {
	f := NewFilter(512, NewH3(1))
	if f.MayContain(42) {
		t.Fatal("empty filter claims containment")
	}
	f.Insert(42)
	if !f.MayContain(42) {
		t.Fatal("false negative after insert")
	}
	f.Clear()
	if f.MayContain(42) {
		t.Fatal("Clear did not clear")
	}
	if f.SizeBytes() != 64 {
		t.Fatalf("512-entry filter = %d bytes, want 64", f.SizeBytes())
	}
}

func TestNoFalseNegativesFilter(t *testing.T) {
	f := func(keys []uint32) bool {
		fl := NewFilter(512, NewH3(3))
		for _, k := range keys {
			fl.Insert(k)
		}
		for _, k := range keys {
			if !fl.MayContain(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestNoFalseNegativesCounting(t *testing.T) {
	f := func(keys []uint32, removeIdx []uint8) bool {
		c := NewCounting(512, NewH3(3))
		for _, k := range keys {
			c.Insert(k)
		}
		// Remove a subset; the rest must still be present.
		removed := map[int]bool{}
		for _, ri := range removeIdx {
			if len(keys) == 0 {
				break
			}
			i := int(ri) % len(keys)
			if !removed[i] {
				removed[i] = true
				c.Remove(keys[i])
			}
		}
		for i, k := range keys {
			if removed[i] {
				continue
			}
			if !c.MayContain(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCountingRemove(t *testing.T) {
	c := NewCounting(512, NewH3(5))
	c.Insert(100)
	c.Insert(100)
	c.Remove(100)
	if !c.MayContain(100) {
		t.Fatal("count 2 - 1 should still contain")
	}
	c.Remove(100)
	if c.MayContain(100) {
		t.Fatal("count 0 should not contain (assuming no collision at this key)")
	}
}

func TestCountingSaturation(t *testing.T) {
	c := NewCounting(64, NewH3(5))
	for i := 0; i < 300; i++ {
		c.Insert(7)
	}
	for i := 0; i < 300; i++ {
		c.Remove(7)
	}
	if !c.MayContain(7) {
		t.Fatal("saturated counter was decremented; false negatives possible")
	}
}

func TestSnapshotMatchesCounting(t *testing.T) {
	c := NewCounting(512, NewH3(9))
	keys := []uint32{1, 64, 777, 4096, 99999}
	for _, k := range keys {
		c.Insert(k)
	}
	s := c.Snapshot()
	for _, k := range keys {
		if !s.MayContain(k) {
			t.Fatalf("snapshot lost key %d", k)
		}
	}
}

func TestUnionPreservesMembers(t *testing.T) {
	h := NewH3(2)
	a, b := NewFilter(512, h), NewFilter(512, h)
	a.Insert(10)
	b.Insert(20)
	a.Union(b)
	if !a.MayContain(10) || !a.MayContain(20) {
		t.Fatal("union lost members")
	}
}

func TestFalsePositiveRateReasonable(t *testing.T) {
	// 512-entry filter with ~50 inserted keys should have fpr well under 20%.
	f := NewFilter(512, NewH3(11))
	rng := rand.New(rand.NewSource(4))
	inserted := map[uint32]bool{}
	for len(inserted) < 50 {
		k := rng.Uint32()
		inserted[k] = true
		f.Insert(k)
	}
	fp, probes := 0, 0
	for i := 0; i < 10000; i++ {
		k := rng.Uint32()
		if inserted[k] {
			continue
		}
		probes++
		if f.MayContain(k) {
			fp++
		}
	}
	if rate := float64(fp) / float64(probes); rate > 0.20 {
		t.Fatalf("false positive rate %.3f too high", rate)
	}
}

func TestBankGeometryMatchesPaper(t *testing.T) {
	cfg := DefaultBankConfig()
	l2 := NewL2Bank(cfg)
	l1 := NewL1Bank(cfg, 16)
	// Paper: 32*512*8 bits = 16KB per L2 slice; 32*512*16 filters at 1 bit
	// = 32KB per L1.
	if l2.SizeBytes() != 16*1024 {
		t.Fatalf("L2 bank = %d bytes, want 16384", l2.SizeBytes())
	}
	if l1.SizeBytes() != 32*1024 {
		t.Fatalf("L1 bank = %d bytes, want 32768", l1.SizeBytes())
	}
}

func TestL1BankDemandCopyFlow(t *testing.T) {
	cfg := DefaultBankConfig()
	l2 := NewL2Bank(cfg)
	l1 := NewL1Bank(cfg, 4)
	line := uint32(0x1234)
	l2.Insert(line)

	valid, _ := l1.Query(2, line)
	if valid {
		t.Fatal("copy valid before fetch")
	}
	idx := l1.FilterIndex(line)
	if idx != l2.FilterIndex(line) {
		t.Fatal("L1/L2 disagree on filter index")
	}
	l1.LoadCopy(2, idx, l2.Snapshot(idx))
	valid, may := l1.Query(2, line)
	if !valid || !may {
		t.Fatalf("after copy: valid=%v may=%v, want true/true", valid, may)
	}

	// A local writeback must be visible without refetching.
	wbLine := uint32(0xff00)
	for l1.FilterIndex(wbLine) != idx { // pick a line mapping to same filter
		wbLine += 64
	}
	l1.InsertLocal(2, wbLine)
	_, may = l1.Query(2, wbLine)
	if !may {
		t.Fatal("local writeback not visible in L1 copy")
	}

	l1.ClearAll()
	valid, _ = l1.Query(2, line)
	if valid {
		t.Fatal("ClearAll did not invalidate copies")
	}
}

// TestRecycledBanksMatchFresh fills an L1 and an L2 bank the way a run
// leaves them, recycles both, and requires the next banks of the same
// config to equal fresh ones, and an L1 bank of another slice count
// never to be a recycled one.
func TestRecycledBanksMatchFresh(t *testing.T) {
	cfg := DefaultBankConfig()
	// A -race build drops a quarter of the pools' puts at random, so try
	// until one of each is taken back.
	var l1ok, l2ok bool
	for attempt := 0; attempt < 20 && !(l1ok && l2ok); attempt++ {
		l1, l2 := NewL1Bank(cfg, 4), NewL2Bank(cfg)
		for line := uint32(0); line < 200; line += 3 {
			l2.Insert(line)
			idx := l1.FilterIndex(line)
			l1.LoadCopy(int(line%4), idx, l2.Snapshot(idx))
			l1.InsertLocal(int(line%4), line+1)
		}
		l1.Recycle()
		l2.Recycle()
		if got := NewL1Bank(cfg, 8); got == l1 || got.SizeBytes() != 2*l1.SizeBytes() {
			t.Fatalf("an 8-slice L1 bank has %d bytes, from a recycled 4-slice bank: %v", got.SizeBytes(), got == l1)
		}
		if got := NewL1Bank(cfg, 4); got == l1 {
			l1ok = true
			if !reflect.DeepEqual(got, NewL1Bank(cfg, 4)) {
				t.Fatal("a recycled L1 bank differs from a fresh one")
			}
		}
		if got := NewL2Bank(cfg); got == l2 {
			l2ok = true
			if !reflect.DeepEqual(got, NewL2Bank(cfg)) {
				t.Fatal("a recycled L2 bank differs from a fresh one")
			}
		}
	}
	if !l1ok || !l2ok {
		t.Fatalf("banks taken back: L1 %v, L2 %v", l1ok, l2ok)
	}
}

// Property: the end-to-end bypass-safety guarantee — if the L2 bank
// contains a line (dirty on-chip), an L1 that has fetched the relevant copy
// and applied its own writebacks can never conclude "definitely absent".
func TestBypassSafetyProperty(t *testing.T) {
	f := func(dirty []uint32, local []uint32) bool {
		cfg := DefaultBankConfig()
		l2 := NewL2Bank(cfg)
		l1 := NewL1Bank(cfg, 1)
		for _, ln := range dirty {
			l2.Insert(ln)
		}
		// L1 fetches every filter copy.
		for i := 0; i < cfg.FiltersPerSlice; i++ {
			l1.LoadCopy(0, i, l2.Snapshot(i))
		}
		for _, ln := range local {
			l1.InsertLocal(0, ln)
		}
		for _, ln := range dirty {
			if valid, may := l1.Query(0, ln); valid && !may {
				return false // unsafe: would bypass a dirty line
			}
		}
		for _, ln := range local {
			if valid, may := l1.Query(0, ln); valid && !may {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkFilterInsert(b *testing.B) {
	f := NewFilter(512, NewH3(1))
	for i := 0; i < b.N; i++ {
		f.Insert(uint32(i))
	}
}

func BenchmarkCountingQuery(b *testing.B) {
	c := NewCounting(512, NewH3(1))
	for i := 0; i < 256; i++ {
		c.Insert(uint32(i * 64))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.MayContain(uint32(i))
	}
}
