package cache

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// resident counts the valid lines ForEach visits.
func resident(c *Cache) int {
	n := 0
	c.ForEach(func(*Line) { n++ })
	return n
}

func TestGeometry(t *testing.T) {
	c := New(32*1024, 8, 64)
	if c.Sets() != 64 || c.Assoc() != 8 || c.WordsPerLine() != 16 {
		t.Fatalf("geometry = %d sets / %d ways / %d words", c.Sets(), c.Assoc(), c.WordsPerLine())
	}
}

func TestBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for non-power-of-two sets")
		}
	}()
	New(3*64*5, 5, 64)
}

func TestLookupAllocate(t *testing.T) {
	c := New(1024, 2, 64) // 8 sets
	if c.Lookup(100) != nil {
		t.Fatal("lookup hit in empty cache")
	}
	l := c.Allocate(100)
	if got := c.Lookup(100); got != l {
		t.Fatal("lookup missed allocated line")
	}
	if l.Tag != 100 || !l.Valid {
		t.Fatalf("line tag/valid = %d/%v", l.Tag, l.Valid)
	}
	if n := resident(c); n != 1 {
		t.Fatalf("%d resident lines, want 1", n)
	}
	// Idempotent allocate.
	if c.Allocate(100) != l {
		t.Fatal("re-allocate did not return resident line")
	}
}

func TestLRUVictim(t *testing.T) {
	c := New(2*64, 2, 64) // 1 set, 2 ways
	a := c.Allocate(0)
	b := c.Allocate(1)
	c.Touch(a) // a now MRU; b is LRU
	v := c.Victim(2)
	if v != b {
		t.Fatal("victim is not the LRU line")
	}
	c.Allocate(2)
	if c.Lookup(1) != nil {
		t.Fatal("LRU line not evicted")
	}
	if c.Lookup(0) == nil {
		t.Fatal("MRU line wrongly evicted")
	}
	if n := resident(c); n != 2 {
		t.Fatalf("%d resident lines after an eviction, want 2", n)
	}
}

func TestVictimPrefersInvalid(t *testing.T) {
	c := New(2*64, 2, 64)
	a := c.Allocate(0)
	v := c.Victim(1)
	if v == a || v.Valid {
		t.Fatal("victim should be the invalid way")
	}
}

func TestAllocateResetsWordState(t *testing.T) {
	c := New(2*64, 2, 64)
	l := c.Allocate(0)
	l.WState[3] = 7
	l.Data[3] = 99
	l.Owner[3] = 2
	l.Inst[3] = 55
	l.State = 9
	c.Remove(l)
	l2 := c.Allocate(0)
	if l2.WState[3] != 0 || l2.Data[3] != 0 || l2.Owner[3] != 0 || l2.Inst[3] != 0 || l2.State != 0 {
		t.Fatal("Allocate did not reset line contents")
	}
}

func TestRemove(t *testing.T) {
	c := New(1024, 2, 64)
	l := c.Allocate(5)
	c.Remove(l)
	if c.Lookup(5) != nil || resident(c) != 0 {
		t.Fatal("Remove left the line resident")
	}
	c.Remove(l) // double-remove is a no-op
}

func TestForEach(t *testing.T) {
	c := New(4*64, 2, 64) // 2 sets x 2 ways
	c.Allocate(0)
	c.Allocate(1)
	c.Allocate(2)
	n := 0
	c.ForEach(func(l *Line) { n++ })
	if n != 3 {
		t.Fatalf("ForEach visited %d, want 3", n)
	}
}

func TestSetConflictsOnly(t *testing.T) {
	// Lines mapping to different sets never evict each other.
	c := New(4*64, 1, 64) // 4 sets, direct-mapped
	c.Allocate(0)
	c.Allocate(1)
	c.Allocate(2)
	c.Allocate(3)
	if n := resident(c); n != 4 {
		t.Fatalf("%d resident lines, want 4 (no conflicts)", n)
	}
	c.Allocate(4) // conflicts with 0
	if c.Lookup(0) != nil {
		t.Fatal("conflicting line not evicted")
	}
	if n := resident(c); n != 4 {
		t.Fatalf("%d resident lines, want 4", n)
	}
}

// Property: the cache agrees with a reference model (map + per-set LRU
// lists) under a random stream of allocate/remove/touch operations.
func TestReferenceModelProperty(t *testing.T) {
	type ref struct {
		order []uint32 // resident line addrs per set, LRU first
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const sets, ways = 4, 2
		c := New(sets*ways*64, ways, 64)
		refs := make([]ref, sets)
		find := func(r *ref, a uint32) int {
			for i, x := range r.order {
				if x == a {
					return i
				}
			}
			return -1
		}
		for op := 0; op < 400; op++ {
			addr := uint32(rng.Intn(16))
			s := addr % sets
			r := &refs[s]
			switch rng.Intn(3) {
			case 0: // allocate
				if i := find(r, addr); i == -1 {
					if len(r.order) == ways { // evict LRU
						victim := r.order[0]
						r.order = r.order[1:]
						if c.Lookup(victim) == nil {
							return false
						}
					}
					r.order = append(r.order, addr)
				} else { // already resident: MRU
					r.order = append(append(r.order[:i:i], r.order[i+1:]...), addr)
				}
				c.Allocate(addr)
			case 1: // touch if resident
				if l := c.Lookup(addr); l != nil {
					c.Touch(l)
					i := find(r, addr)
					r.order = append(append(r.order[:i:i], r.order[i+1:]...), addr)
				}
			case 2: // remove if resident
				if l := c.Lookup(addr); l != nil {
					c.Remove(l)
					i := find(r, addr)
					r.order = append(r.order[:i:i], r.order[i+1:]...)
				}
			}
			// Check residency agreement both ways: every resident address
			// finds a valid line tagged with that address (a stale tag
			// would hand back the wrong line), and every other address
			// misses.
			for a := uint32(0); a < 16; a++ {
				l := c.Lookup(a)
				if find(&refs[a%sets], a) == -1 {
					if l != nil {
						return false
					}
					continue
				}
				if l == nil || !l.Valid || l.Tag != a {
					return false
				}
			}
			total := 0
			for _, rr := range refs {
				total += len(rr.order)
			}
			if resident(c) != total {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestRecycledCacheMatchesFresh dirties a cache the way a cancelled run
// leaves one (resident lines with words, owners, instance ids, states and
// recency), recycles it, and requires the next cache of its line count to
// equal a fresh one in every field, whatever its associativity.
func TestRecycledCacheMatchesFresh(t *testing.T) {
	const size, lineBytes = 8 * 64, 64
	rng := rand.New(rand.NewSource(1))
	// A -race build drops a quarter of the pool's puts at random, so try
	// until one is taken back.
	for attempt := 0; attempt < 20; attempt++ {
		dirty := New(size, 2, lineBytes)
		for i := 0; i < 100; i++ {
			l := dirty.Allocate(uint32(rng.Intn(32)))
			w := rng.Intn(len(l.Data))
			l.State, l.Region = 3, 2
			l.WState[w], l.Data[w], l.Owner[w], l.Inst[w], l.MInst[w] = 1, uint32(i), 4, uint64(i), uint64(i)
			if i%7 == 0 {
				dirty.Remove(l)
			}
		}
		dirty.Recycle()
		if other := New(2*size, 2, lineBytes); other == dirty {
			t.Fatal("a cache of twice the lines took the recycled arrays")
		}
		got := New(size, 4, lineBytes)
		if got != dirty {
			continue
		}
		if !reflect.DeepEqual(got, New(size, 4, lineBytes)) {
			t.Fatal("a recycled cache differs from a fresh one")
		}
		if got.Sets() != 2 || got.Assoc() != 4 || resident(got) != 0 {
			t.Fatalf("recycled cache: %d sets x %d ways, %d resident lines; want 2 x 4, empty",
				got.Sets(), got.Assoc(), resident(got))
		}
		return
	}
	t.Fatal("no recycled cache was ever taken back")
}

func BenchmarkLookupHit(b *testing.B) {
	c := New(32*1024, 8, 64)
	for i := uint32(0); i < 512; i++ {
		c.Allocate(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(uint32(i) & 511)
	}
}

func BenchmarkAllocateEvict(b *testing.B) {
	c := New(32*1024, 8, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Allocate(uint32(i) & 4095)
	}
}
