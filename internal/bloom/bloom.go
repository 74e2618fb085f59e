// Package bloom implements the Bloom filters used by the paper's "L2
// Request Bypass" optimization (§4.4): plain 1-bit-per-entry filters at the
// L1 caches and 8-bit counting filters at the L2 slices, both indexed with
// an H3 hash function.
//
// The paper's configuration is 512 entries per filter, one H3 hash, 32
// filters per L2 slice (selected by a second hash of the line address), and
// an L1-side copy of every L2 filter populated on demand. The key property
// the protocol relies on is that Bloom filters never return false
// negatives; TestNoFalseNegatives* verify it.
package bloom

// H3 is an H3-class universal hash: the hash of a key is the XOR of fixed
// random rows selected by the set bits of the key.
type H3 struct {
	rows [32]uint32
}

// NewH3 builds a deterministic H3 hash from a seed (xorshift-generated
// rows, so the module stays stdlib-only and reproducible).
func NewH3(seed uint64) *H3 {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	h := &H3{}
	s := seed
	for i := range h.rows {
		// xorshift64*
		s ^= s >> 12
		s ^= s << 25
		s ^= s >> 27
		h.rows[i] = uint32((s * 0x2545f4914f6cdd1d) >> 32)
	}
	return h
}

// Hash returns the 32-bit H3 hash of key.
func (h *H3) Hash(key uint32) uint32 {
	var v uint32
	for i := 0; key != 0; i++ {
		if key&1 != 0 {
			v ^= h.rows[i]
		}
		key >>= 1
	}
	return v
}

// Filter is a plain Bloom filter with 1-bit entries.
type Filter struct {
	bits    []uint64
	entries uint32
	h       *H3
}

// NewFilter creates a filter with the given number of entries (rounded up
// to a multiple of 64).
func NewFilter(entries int, h *H3) *Filter {
	words := filterWords(entries)
	return &Filter{bits: make([]uint64, words), entries: uint32(words * 64), h: h}
}

// filterWords is the bit-array length of a filter of the given number of
// entries: at least one word, rounded up to whole words.
func filterWords(entries int) int { return (max(entries, 64) + 63) / 64 }

// Entries returns the filter capacity in bits.
func (f *Filter) Entries() int { return int(f.entries) }

// SizeBytes returns the storage size of the filter.
func (f *Filter) SizeBytes() int { return len(f.bits) * 8 }

func (f *Filter) idx(key uint32) (int, uint64) {
	i := f.h.Hash(key) % f.entries
	return int(i >> 6), 1 << (i & 63)
}

// Insert adds key to the filter.
func (f *Filter) Insert(key uint32) {
	w, m := f.idx(key)
	f.bits[w] |= m
}

// MayContain reports whether key may have been inserted. False means
// definitely not present.
func (f *Filter) MayContain(key uint32) bool {
	w, m := f.idx(key)
	return f.bits[w]&m != 0
}

// Clear resets the filter to empty.
func (f *Filter) Clear() {
	for i := range f.bits {
		f.bits[i] = 0
	}
}

// Union ORs other into f. Both filters must share geometry and hash.
func (f *Filter) Union(other *Filter) {
	if other == nil {
		return
	}
	if len(f.bits) != len(other.bits) {
		panic("bloom: union of mismatched filters")
	}
	for i := range f.bits {
		f.bits[i] |= other.bits[i]
	}
}

// Counting is a Bloom filter with 8-bit saturating counters, used at the L2
// so that entries can be removed when lines are cleaned or evicted.
type Counting struct {
	counts  []uint8
	entries uint32
	h       *H3
}

// NewCounting creates a counting filter with the given number of entries
// (rounded up to a multiple of 64 so Snapshot indices align with Filter).
func NewCounting(entries int, h *H3) *Counting {
	if entries < 64 {
		entries = 64
	}
	entries = (entries + 63) / 64 * 64
	return &Counting{counts: make([]uint8, entries), entries: uint32(entries), h: h}
}

// SizeBytes returns the storage size of the filter.
func (c *Counting) SizeBytes() int { return len(c.counts) }

func (c *Counting) idx(key uint32) int { return int(c.h.Hash(key) % c.entries) }

// Insert increments the counter for key (saturating at 255; a saturated
// counter is never decremented, preserving the no-false-negative property).
func (c *Counting) Insert(key uint32) {
	i := c.idx(key)
	if c.counts[i] < 255 {
		c.counts[i]++
	}
}

// Remove decrements the counter for key. Removing a key that was never
// inserted is a caller bug; the counter floors at zero to stay safe.
func (c *Counting) Remove(key uint32) {
	i := c.idx(key)
	if c.counts[i] > 0 && c.counts[i] < 255 {
		c.counts[i]--
	}
}

// MayContain reports whether key may be present.
func (c *Counting) MayContain(key uint32) bool { return c.counts[c.idx(key)] > 0 }

// Snapshot renders the counting filter as a plain filter (counter>0 => bit
// set), sharing the same hash, as sent to L1s in a copy response.
func (c *Counting) Snapshot() *Filter {
	f := NewFilter(int(c.entries), c.h)
	c.snapshotInto(f)
	return f
}

// snapshotInto overwrites f, which has c's geometry and hash, with c's
// snapshot.
func (c *Counting) snapshotInto(f *Filter) {
	f.Clear()
	for i, v := range c.counts {
		if v > 0 {
			f.bits[i>>6] |= 1 << (uint(i) & 63)
		}
	}
}
