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
// time: a one-bit mask over a line of one word, which the profiler
// tracks. fillWord's word arrives in a message of class class carrying
// share flit-hops; it returns the line, whose word holds the new
// instance, or 0 for a word already present (its arrival classifies as
// Fetch at once).
func fillWord(p *Profiler, level Level, present bool, class uint8, share float64) []uint64 {
	inst := make([]uint64, 1)
	p.Track(inst)
	var pres uint16
	if present {
		pres = 1
	}
	p.Fill(level, 1, pres, class, share, inst, nil, false)
	return inst
}

func releaseWord(p *Profiler, inst []uint64, cat Category) {
	p.Release(1, cat, inst, nil, false)
}

func TestL1FSMAllPaths(t *testing.T) {
	p := newMeasuring()

	// load -> Used
	id := fillWord(p, LevelL1, false, 0, 0)
	p.L1Load(&id[0])
	// store before load -> Write
	id = fillWord(p, LevelL1, false, 0, 0)
	p.L1Store(&id[0])
	// invalidate before use -> Invalidate
	id = fillWord(p, LevelL1, false, 0, 0)
	releaseWord(p, id, Invalidate)
	// evict before use -> Evict
	id = fillWord(p, LevelL1, false, 0, 0)
	releaseWord(p, id, Evict)
	// already present -> Fetch immediately
	fillWord(p, LevelL1, true, 0, 0)
	// nothing -> Unevicted at Finish
	fillWord(p, LevelL1, false, 0, 0)
	p.Finish()

	for _, c := range []Category{Used, Write, Invalidate, Evict, Fetch, Unevicted} {
		if got := p.Count(LevelL1, c); got != 1 {
			t.Errorf("L1 %v = %d, want 1", c, got)
		}
	}
}

func TestClassifyOnce(t *testing.T) {
	p := newMeasuring()
	id := fillWord(p, LevelL1, false, 0, 0)
	p.L1Load(&id[0])          // Used (terminal)
	releaseWord(p, id, Evict) // must not reclassify
	p.L1Store(&id[0])
	if p.Count(LevelL1, Used) != 1 || p.Count(LevelL1, Evict) != 0 || p.Count(LevelL1, Write) != 0 {
		t.Fatal("instance reclassified after terminal state")
	}
}

func TestL2FSMAllPaths(t *testing.T) {
	p := newMeasuring()
	p.L2Served(&fillWord(p, LevelL2, false, 0, 0)[0])
	releaseWord(p, fillWord(p, LevelL2, false, 0, 0), Write)
	releaseWord(p, fillWord(p, LevelL2, false, 0, 0), Evict)
	fillWord(p, LevelL2, true, 0, 0) // Fetch
	fillWord(p, LevelL2, false, 0, 0)
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
// and releasing one swaps the last into its place. FuzzProfilerRecycle
// compares the classification stream in order with the reference's, so
// that order is pinned here: open 1,2,3,4; release 2 -> 1,4,3; also a
// list freed by one address and reused by another keeps the order.
func TestMemStoreClassifyOrder(t *testing.T) {
	p := newMeasuring()
	fetch := func(addr uint32) uint64 {
		id := p.MemFetch(addr, false)
		p.MemAddRef(id)
		return id
	}
	open := func(addr uint32) []uint64 {
		ids, _ := p.openList(addr)
		return slices.Clone(ids)
	}

	var ids [8]uint64
	for i := 1; i <= 4; i++ {
		ids[i] = fetch(128)
	}
	p.MemRelease(ids[2], false) // Evict: 4 moves into 2's place
	if got, want := open(128), []uint64{ids[1], ids[4], ids[3]}; !slices.Equal(got, want) {
		t.Fatalf("open list %x, want %x", got, want)
	}
	p.MemStore(128)
	if got := p.Count(LevelMem, Write); got != 3 {
		t.Fatalf("MemStore classified %d instances, want 3", got)
	}

	// 128's emptied list is reused for 256; the order must not leak.
	for i := 5; i <= 7; i++ {
		ids[i] = fetch(256)
	}
	if got, want := open(256), ids[5:8]; !slices.Equal(got, want) {
		t.Fatalf("open list %x, want %x", got, want)
	}
	p.MemStore(256)
	p.MemStore(128) // nothing open any more
	p.MemStore(130) // unaligned addresses are never fetched
	if got := p.Count(LevelMem, Write); got != 6 {
		t.Fatalf("%d Write classifications, want 6", got)
	}
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
	warm := fillWord(p, LevelL1, false, 0, 0)
	p.StartMeasurement()
	p.L1Load(&warm[0]) // classification lands after measurement starts
	if p.TotalWords(LevelL1) != 0 {
		t.Fatal("warm-up instance counted")
	}
	meas := fillWord(p, LevelL1, false, 0, 0)
	p.L1Load(&meas[0])
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
	id := fillWord(p, LevelL1, false, 3, 2)
	p.L1Load(&id[0])
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
	fillWord(p, LevelL1, true, 1, 0.75)
	fillWord(p, LevelL2, true, 2, 1.5)
	want := []classified{{LevelL1, 1, Fetch, 0.75, true}, {LevelL2, 2, Fetch, 1.5, true}}
	if !slices.Equal(got, want) {
		t.Fatalf("classified %+v, want %+v", got, want)
	}
}

func TestZeroIDIgnored(t *testing.T) {
	p := newMeasuring()
	var settled uint64
	p.L1Load(&settled)
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
		var l1Words, l2Words [][]uint64
		var memIDs []uint64
		for i := 0; i < 300; i++ {
			addr := uint32(rng.Intn(64)) * 4
			switch rng.Intn(9) {
			case 0:
				l1Words = append(l1Words, fillWord(p, LevelL1, rng.Intn(4) == 0, 0, 0))
				created[LevelL1]++
			case 1:
				l2Words = append(l2Words, fillWord(p, LevelL2, rng.Intn(4) == 0, 0, 0))
				created[LevelL2]++
			case 2:
				id := p.MemFetch(addr, rng.Intn(4) == 0)
				p.MemAddRef(id)
				memIDs = append(memIDs, id)
				created[LevelMem]++
			case 3:
				if len(l1Words) > 0 {
					p.L1Load(&l1Words[rng.Intn(len(l1Words))][0])
				}
			case 4:
				if len(l1Words) > 0 {
					releaseWord(p, l1Words[rng.Intn(len(l1Words))], Evict)
				}
			case 5:
				if len(l2Words) > 0 {
					p.L2Served(&l2Words[rng.Intn(len(l2Words))][0])
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
	inst := make([]uint64, 1)
	p.Track(inst)
	for i := 0; i < b.N; i++ {
		p.Fill(LevelL1, 1, 0, 0, 0, inst, nil, false)
		if i%2 == 0 {
			p.L1Load(&inst[0])
		} else {
			releaseWord(p, inst, Evict)
		}
	}
}

func TestSnapshot(t *testing.T) {
	p := newMeasuring()
	p.L1Load(&fillWord(p, LevelL1, false, 0, 0)[0])
	releaseWord(p, fillWord(p, LevelL2, false, 0, 0), Evict)
	p.MemExcess(8)
	s := p.Snapshot()
	if s[LevelL1][Used] != 1 || s[LevelL2][Evict] != 1 || s[LevelMem][Excess] != 1 {
		t.Fatalf("snapshot = %v", s)
	}
	// Detached: later events do not mutate the snapshot.
	p.L1Load(&fillWord(p, LevelL1, false, 0, 0)[0])
	if s[LevelL1][Used] != 1 {
		t.Fatal("snapshot not detached")
	}
}

func TestChunkGrowth(t *testing.T) {
	p := newMeasuring()
	// Keep enough memory instances open at once that the record table
	// grows many times, and verify ids stay addressable across the moves.
	n := 1<<17 + 37
	ids := make([]uint64, 0, n)
	for i := 0; i < n; i++ {
		ids = append(ids, p.MemFetch(uint32(i)*4, false))
	}
	for _, id := range ids {
		p.MemLoad(id)
	}
	if got := p.Count(LevelMem, Used); got != uint64(n) {
		t.Fatalf("classified %d of %d across chunks", got, n)
	}
	if got := p.PeakLive(); got != n {
		t.Fatalf("PeakLive = %d, want %d", got, n)
	}
}

// TestFinishSweepsTrackedWords pins where Finish finds the open L1 and L2
// instances: in the words Track registered, which it settles to 0, and
// only while the profiler's run lasts. A word left open in an array a
// recycled profiler tracked is not the next run's.
func TestFinishSweepsTrackedWords(t *testing.T) {
	p := newMeasuring()
	line := make([]uint64, 16)
	p.Track(line)
	p.Fill(LevelL2, 0x0f0f, 0x0003, 1, 0.5, line, nil, false)
	p.L2Served(&line[2])
	p.Finish()
	if got := p.Count(LevelL2, Unevicted); got != 5 {
		t.Fatalf("%d words Unevicted, want the 5 still open", got)
	}
	if got := p.Count(LevelL2, Fetch); got != 2 {
		t.Fatalf("%d words Fetch, want the 2 present", got)
	}
	if !slices.Equal(line, make([]uint64, 16)) {
		t.Fatalf("words %x left open after Finish", line)
	}
	p.Fill(LevelL1, 1, 0, 0, 0, line, nil, false)
	p.Recycle()
	q := newMeasuring()
	q.Finish()
	if q.TotalWords(LevelL1) != 0 || line[0] == 0 {
		t.Fatal("a recycled profiler's tracked words reached the next run")
	}
}
