package bloom

import "repro/internal/recycle"

// BankConfig describes the filter banks of §4.4: one bank per L2 slice,
// and one copy of every slice's bank per L1.
type BankConfig struct {
	FiltersPerSlice int // number of Bloom filters at each L2 slice
	Entries         int // entries per filter
	Seed            uint64
}

// DefaultBankConfig returns the paper's idealized geometry: 32 filters per
// slice, 512 entries each, one H3 hash. For a 16-tile processor this is
// 32*512*16 bits = 32 KB per L1 and 32*512*8 bits = 16 KB per L2 slice.
func DefaultBankConfig() BankConfig {
	return BankConfig{FiltersPerSlice: 32, Entries: 512, Seed: 0xb10f}
}

// L2Bank is the set of counting Bloom filters at one L2 slice. It tracks
// the line addresses that have dirty (registered or modified) words in that
// slice's portion of the address space.
type L2Bank struct {
	cfg     BankConfig
	sel     *H3
	filters []*Counting
}

// Recycled banks, by geometry: an L2 bank's arrays and hashes follow its
// config alone, an L1 bank's its config and slice count.
var (
	recycledL2 recycle.Pool[BankConfig, L2Bank]
	recycledL1 recycle.Pool[l1Key, L1Bank]
)

// l1Key is an L1 bank's geometry: its config and the number of slices it
// copies.
type l1Key struct {
	BankConfig
	slices int
}

// NewL2Bank creates the counting-filter bank for one slice, from a
// recycled bank of the same config when one is free, emptied.
func NewL2Bank(cfg BankConfig) *L2Bank {
	if b := recycledL2.Get(cfg); b != nil {
		for _, f := range b.filters {
			clear(f.counts)
		}
		return b
	}
	sel := NewH3(cfg.Seed ^ 0x5e1ec7)
	h := NewH3(cfg.Seed)
	b := &L2Bank{cfg: cfg, sel: sel, filters: make([]*Counting, cfg.FiltersPerSlice)}
	for i := range b.filters {
		b.filters[i] = NewCounting(cfg.Entries, h)
	}
	return b
}

// Recycle hands the bank to the next NewL2Bank of its config. The caller
// must not use the bank again.
func (b *L2Bank) Recycle() { recycledL2.Put(b.cfg, b) }

// FilterIndex returns which filter within a slice a line address maps to.
func (b *L2Bank) FilterIndex(line uint32) int {
	return int(b.sel.Hash(line)) % len(b.filters)
}

// Insert records that line now has dirty data in this slice.
func (b *L2Bank) Insert(line uint32) { b.filters[b.FilterIndex(line)].Insert(line) }

// Remove records that line no longer has dirty data in this slice.
func (b *L2Bank) Remove(line uint32) { b.filters[b.FilterIndex(line)].Remove(line) }

// MayContain reports whether line may have dirty data in this slice.
func (b *L2Bank) MayContain(line uint32) bool {
	return b.filters[b.FilterIndex(line)].MayContain(line)
}

// Snapshot returns a plain-filter copy of filter idx, as shipped to an L1
// in a 64-byte Bloom-copy response.
func (b *L2Bank) Snapshot(idx int) *Filter { return b.filters[idx].Snapshot() }

// SnapshotInto overwrites f, a filter an earlier Snapshot of this bank
// returned, with a copy of filter idx: a Bloom-copy response's filter can
// be recycled once its receiver has merged it.
func (b *L2Bank) SnapshotInto(idx int, f *Filter) { b.filters[idx].snapshotInto(f) }

// SizeBytes is the storage footprint of the bank (8-bit counters).
func (b *L2Bank) SizeBytes() int {
	n := 0
	for _, f := range b.filters {
		n += f.SizeBytes()
	}
	return n
}

// L1Bank is one L1 cache's conservative copy of every L2 slice's filters.
// Filters are copied on demand (valid bits track which copies exist), local
// writebacks are inserted eagerly, and everything is cleared at barriers.
// Every copy's bits are carved from one array, so a bank costs a handful
// of allocations whatever its slice count.
type L1Bank struct {
	key     l1Key
	sel     *H3
	bits    []uint64 // backs every copy
	filters []Filter // [slice*FiltersPerSlice + filterIdx]
	valid   []bool   // indexed like filters
}

// NewL1Bank creates the L1-side copies of the filters of slices L2 banks,
// from a recycled bank of the same config and slice count when one is
// free, emptied.
func NewL1Bank(cfg BankConfig, slices int) *L1Bank {
	key := l1Key{cfg, slices}
	if b := recycledL1.Get(key); b != nil {
		b.ClearAll()
		return b
	}
	h := NewH3(cfg.Seed)
	n, words := slices*cfg.FiltersPerSlice, filterWords(cfg.Entries)
	b := &L1Bank{
		key:     key,
		sel:     NewH3(cfg.Seed ^ 0x5e1ec7),
		bits:    make([]uint64, n*words),
		filters: make([]Filter, n),
		valid:   make([]bool, n),
	}
	for i := range b.filters {
		b.filters[i] = Filter{bits: b.bits[i*words : (i+1)*words : (i+1)*words], entries: uint32(words * 64), h: h}
	}
	return b
}

// FilterIndex returns the per-slice filter index for a line address.
func (b *L1Bank) FilterIndex(line uint32) int { return int(b.sel.Hash(line)) % b.key.FiltersPerSlice }

// copyIndex returns the index of slice's copy of filter idx.
func (b *L1Bank) copyIndex(slice, idx int) int { return slice*b.key.FiltersPerSlice + idx }

// Query checks a line address against the copy for the line's home slice.
// valid=false means the copy has not been fetched yet (the caller must
// request a Bloom copy from the L2 before deciding).
func (b *L1Bank) Query(slice int, line uint32) (valid, mayContain bool) {
	i := b.copyIndex(slice, b.FilterIndex(line))
	if !b.valid[i] {
		return false, true
	}
	return true, b.filters[i].MayContain(line)
}

// LoadCopy unions a snapshot received from slice's L2 into the local copy
// and marks it valid.
func (b *L1Bank) LoadCopy(slice, idx int, snap *Filter) {
	i := b.copyIndex(slice, idx)
	b.filters[i].Union(snap)
	b.valid[i] = true
}

// InsertLocal records a local writeback of line (whose home is slice) so
// the copy stays conservative without refetching.
func (b *L1Bank) InsertLocal(slice int, line uint32) {
	b.filters[b.copyIndex(slice, b.FilterIndex(line))].Insert(line)
}

// ClearAll resets every copy and valid bit (done at barriers).
func (b *L1Bank) ClearAll() { clear(b.bits); clear(b.valid) }

// Recycle hands the bank to the next NewL1Bank of its config and slice
// count. The caller must not use the bank again.
func (b *L1Bank) Recycle() { recycledL1.Put(b.key, b) }

// SizeBytes is the storage footprint of all copies (1-bit entries).
func (b *L1Bank) SizeBytes() int { return len(b.bits) * 8 }
