package waste

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func newMeasuring() *Profiler {
	p := NewProfiler()
	p.StartMeasurement()
	return p
}

// fillWord and releaseWord drive the line entry points one word at a
// time: a one-bit mask over word 0 of a line based at addr. fillWord's
// word arrives in a message of class class carrying share flit-hops; it
// returns the new instance's id, 0 for a word already present (its
// arrival classifies as Fetch at once).
func fillWord(p *Profiler, level Level, addr uint32, present bool, class uint8, share float64) uint64 {
	var inst [1]uint64
	var pres uint16
	if present {
		pres = 1
	}
	p.Fill(level, addr, 1, pres, class, share, inst[:], nil, false)
	return inst[0]
}

func releaseWord(p *Profiler, id uint64, cat Category) {
	p.Release(1, cat, []uint64{id}, nil, false)
}

func TestL1FSMAllPaths(t *testing.T) {
	p := newMeasuring()

	// load -> Used
	id := fillWord(p, LevelL1, 0, false, 0, 0)
	p.L1Load(id)
	// store before load -> Write
	id = fillWord(p, LevelL1, 4, false, 0, 0)
	p.L1Store(id)
	// invalidate before use -> Invalidate
	id = fillWord(p, LevelL1, 8, false, 0, 0)
	releaseWord(p, id, Invalidate)
	// evict before use -> Evict
	id = fillWord(p, LevelL1, 12, false, 0, 0)
	releaseWord(p, id, Evict)
	// already present -> Fetch immediately
	fillWord(p, LevelL1, 16, true, 0, 0)
	// nothing -> Unevicted at Finish
	fillWord(p, LevelL1, 20, false, 0, 0)
	p.Finish()

	for _, c := range []Category{Used, Write, Invalidate, Evict, Fetch, Unevicted} {
		if got := p.Count(LevelL1, c); got != 1 {
			t.Errorf("L1 %v = %d, want 1", c, got)
		}
	}
}

func TestClassifyOnce(t *testing.T) {
	p := newMeasuring()
	id := fillWord(p, LevelL1, 0, false, 0, 0)
	p.L1Load(id)              // Used (terminal)
	releaseWord(p, id, Evict) // must not reclassify
	p.L1Store(id)
	if p.Count(LevelL1, Used) != 1 || p.Count(LevelL1, Evict) != 0 || p.Count(LevelL1, Write) != 0 {
		t.Fatal("instance reclassified after terminal state")
	}
}

func TestL2FSMAllPaths(t *testing.T) {
	p := newMeasuring()
	p.L2Served(fillWord(p, LevelL2, 0, false, 0, 0))
	releaseWord(p, fillWord(p, LevelL2, 4, false, 0, 0), Write)
	releaseWord(p, fillWord(p, LevelL2, 8, false, 0, 0), Evict)
	fillWord(p, LevelL2, 12, true, 0, 0) // Fetch
	fillWord(p, LevelL2, 16, false, 0, 0)
	p.Finish()
	for _, c := range []Category{Used, Write, Evict, Fetch, Unevicted} {
		if got := p.Count(LevelL2, c); got != 1 {
			t.Errorf("L2 %v = %d, want 1", c, got)
		}
	}
}

func TestMemFSMUsed(t *testing.T) {
	p := newMeasuring()
	id := p.MemFetch(0, false)
	p.MemAddRef(id) // placed in L2
	p.MemAddRef(id) // copy to L1
	p.MemLoad(id)
	if p.Count(LevelMem, Used) != 1 {
		t.Fatal("mem load not Used")
	}
	// Releasing after classification changes nothing.
	p.MemRelease(id, false)
	p.MemRelease(id, false)
	if p.Count(LevelMem, Evict) != 0 {
		t.Fatal("released copies reclassified a Used instance")
	}
}

func TestMemFSMEvictLastCopy(t *testing.T) {
	p := newMeasuring()
	id := p.MemFetch(0, false)
	p.MemAddRef(id)
	p.MemAddRef(id)
	p.MemRelease(id, false)
	if p.Count(LevelMem, Evict) != 0 {
		t.Fatal("classified Evict while a copy remains")
	}
	p.MemRelease(id, false)
	if p.Count(LevelMem, Evict) != 1 {
		t.Fatal("last-copy eviction not classified Evict")
	}
}

func TestMemFSMInvalidate(t *testing.T) {
	p := newMeasuring()
	id := p.MemFetch(0, false)
	p.MemAddRef(id)
	p.MemRelease(id, true)
	if p.Count(LevelMem, Invalidate) != 1 {
		t.Fatal("invalidated last copy not classified Invalidate")
	}
}

func TestMemStoreClassifiesAllOpenInstances(t *testing.T) {
	p := newMeasuring()
	a := p.MemFetch(64, false)
	b := p.MemFetch(64, false) // second fetch of same address (non-inclusive L2)
	c := p.MemFetch(68, false) // different address
	p.MemAddRef(a)
	p.MemAddRef(b)
	p.MemAddRef(c)
	p.MemStore(64)
	if p.Count(LevelMem, Write) != 2 {
		t.Fatalf("MemStore classified %d instances, want 2", p.Count(LevelMem, Write))
	}
	p.MemLoad(c)
	if p.Count(LevelMem, Used) != 1 {
		t.Fatal("unrelated address affected by MemStore")
	}
}

// MemStore classifies an address's open instances in their list order,
// and releasing one swaps the last into its place. The traffic recorder
// sums float shares in OnClassify order, so that order is part of the
// results and is pinned here: open 1,2,3,4; release 2 -> 1,4,3; also a
// slot freed by one address and reused by another keeps the order.
func TestMemStoreClassifyOrder(t *testing.T) {
	p := newMeasuring()
	var got []uint8
	p.OnClassify(func(level Level, class uint8, cat Category, share float64, measured bool) {
		if cat == Write {
			got = append(got, class)
		}
	})
	fetch := func(addr uint32, tag uint8) uint64 {
		id := p.MemFetch(addr, false)
		p.MemAddRef(id)
		p.recs[uint32(id)].class = tag // the class tag names the instance
		return id
	}
	check := func(want ...uint8) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("Write order %v, want %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Write order %v, want %v", got, want)
			}
		}
		got = got[:0]
	}

	var ids [5]uint64
	for i := 1; i <= 4; i++ {
		ids[i] = fetch(128, uint8(i))
	}
	p.MemRelease(ids[2], false) // Evict: 4 moves into 2's place
	p.MemStore(128)
	check(1, 4, 3)

	// 128's emptied list is reused for 256; the order must not leak.
	for i := 5; i <= 7; i++ {
		fetch(256, uint8(i))
	}
	p.MemStore(256)
	check(5, 6, 7)
	p.MemStore(128) // nothing open any more
	p.MemStore(130) // unaligned addresses are never fetched
	check()
}

func TestMemFetchPresentInL2(t *testing.T) {
	p := newMeasuring()
	p.MemFetch(0, true)
	if p.Count(LevelMem, Fetch) != 1 {
		t.Fatal("refetch of L2-present address not Fetch waste")
	}
}

func TestMemExcess(t *testing.T) {
	p := newMeasuring()
	p.MemExcess(0)
	if p.Count(LevelMem, Excess) != 1 {
		t.Fatal("Excess not counted")
	}
}

func TestWarmupNotCounted(t *testing.T) {
	p := NewProfiler() // warm-up mode
	warm := fillWord(p, LevelL1, 0, false, 0, 0)
	p.StartMeasurement()
	p.L1Load(warm) // classification lands after measurement starts
	if p.TotalWords(LevelL1) != 0 {
		t.Fatal("warm-up instance counted")
	}
	meas := fillWord(p, LevelL1, 4, false, 0, 0)
	p.L1Load(meas)
	if p.Count(LevelL1, Used) != 1 {
		t.Fatal("measured instance not counted")
	}
}

func TestOnClassifyObserver(t *testing.T) {
	p := newMeasuring()
	var gotLevel Level
	var gotCat Category
	var gotShare float64
	var gotClass uint8
	p.OnClassify(func(level Level, class uint8, cat Category, share float64, measured bool) {
		gotLevel, gotClass, gotCat, gotShare = level, class, cat, share
	})
	id := fillWord(p, LevelL1, 0, false, 3, 2)
	p.L1Load(id)
	if gotLevel != LevelL1 || gotCat != Used || gotShare != 2.0 || gotClass != 3 {
		t.Fatalf("observer got level=%v cat=%v share=%v class=%d", gotLevel, gotCat, gotShare, gotClass)
	}
}

// TestPresentWordReportsShare fills a word at each level while it is
// already valid there: each arrival is Fetch waste at once and reports
// its class and share, so the flits that carried it are not dropped.
func TestPresentWordReportsShare(t *testing.T) {
	p := newMeasuring()
	var got []classified
	p.OnClassify(func(l Level, c uint8, cat Category, share float64, m bool) {
		got = append(got, classified{l, c, cat, share, m})
	})
	fillWord(p, LevelL1, 0, true, 1, 0.75)
	fillWord(p, LevelL2, 4, true, 2, 1.5)
	want := []classified{{LevelL1, 1, Fetch, 0.75, true}, {LevelL2, 2, Fetch, 1.5, true}}
	if !slices.Equal(got, want) {
		t.Fatalf("classified %+v, want %+v", got, want)
	}
}

func TestZeroIDIgnored(t *testing.T) {
	p := newMeasuring()
	p.L1Load(0)
	p.MemAddRef(0)
	p.MemRelease(0, false)
	if p.TotalWords(LevelL1) != 0 {
		t.Fatal("id 0 must be inert")
	}
}

// Property: conservation — every created instance ends in exactly one
// terminal category, so per-level totals equal per-level creations.
func TestConservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := newMeasuring()
		created := [3]uint64{}
		var l1IDs, l2IDs, memIDs []uint64
		for i := 0; i < 300; i++ {
			addr := uint32(rng.Intn(64)) * 4
			switch rng.Intn(9) {
			case 0:
				l1IDs = append(l1IDs, fillWord(p, LevelL1, addr, rng.Intn(4) == 0, 0, 0))
				created[LevelL1]++
			case 1:
				l2IDs = append(l2IDs, fillWord(p, LevelL2, addr, rng.Intn(4) == 0, 0, 0))
				created[LevelL2]++
			case 2:
				id := p.MemFetch(addr, rng.Intn(4) == 0)
				p.MemAddRef(id)
				memIDs = append(memIDs, id)
				created[LevelMem]++
			case 3:
				if len(l1IDs) > 0 {
					p.L1Load(l1IDs[rng.Intn(len(l1IDs))])
				}
			case 4:
				if len(l1IDs) > 0 {
					releaseWord(p, l1IDs[rng.Intn(len(l1IDs))], Evict)
				}
			case 5:
				if len(l2IDs) > 0 {
					p.L2Served(l2IDs[rng.Intn(len(l2IDs))])
				}
			case 6:
				if len(memIDs) > 0 {
					p.MemRelease(memIDs[rng.Intn(len(memIDs))], rng.Intn(2) == 0)
				}
			case 7:
				p.MemStore(addr)
			case 8:
				if len(memIDs) > 0 {
					p.MemLoad(memIDs[rng.Intn(len(memIDs))])
				}
			}
		}
		p.Finish()
		for lvl := Level(0); lvl < 3; lvl++ {
			if p.TotalWords(lvl) != created[lvl] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkProfilerLifecycle(b *testing.B) {
	p := newMeasuring()
	for i := 0; i < b.N; i++ {
		id := fillWord(p, LevelL1, uint32(i)*4, false, 0, 0)
		if i%2 == 0 {
			p.L1Load(id)
		} else {
			releaseWord(p, id, Evict)
		}
	}
}

func TestSnapshot(t *testing.T) {
	p := newMeasuring()
	p.L1Load(fillWord(p, LevelL1, 0, false, 0, 0))
	releaseWord(p, fillWord(p, LevelL2, 4, false, 0, 0), Evict)
	p.MemExcess(8)
	s := p.Snapshot()
	if s[LevelL1][Used] != 1 || s[LevelL2][Evict] != 1 || s[LevelMem][Excess] != 1 {
		t.Fatalf("snapshot = %v", s)
	}
	// Detached: later events do not mutate the snapshot.
	p.L1Load(fillWord(p, LevelL1, 12, false, 0, 0))
	if s[LevelL1][Used] != 1 {
		t.Fatal("snapshot not detached")
	}
}

func TestChunkGrowth(t *testing.T) {
	p := newMeasuring()
	// Keep enough instances open at once that the record table grows many
	// times, and verify ids stay addressable across the moves.
	n := 1<<17 + 37
	ids := make([]uint64, 0, n)
	for i := 0; i < n; i++ {
		ids = append(ids, fillWord(p, LevelL1, uint32(i)*4, false, 0, 0))
	}
	for _, id := range ids {
		p.L1Load(id)
	}
	if got := p.Count(LevelL1, Used); got != uint64(n) {
		t.Fatalf("classified %d of %d across chunks", got, n)
	}
	if got := p.PeakLive(); got != n {
		t.Fatalf("PeakLive = %d, want %d", got, n)
	}
}
