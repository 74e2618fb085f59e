// Package waste implements the paper's detailed waste characterization
// (§4.1): every word moved into the L1, into the L2, or fetched from
// memory becomes an *instance* that is classified by a small finite-state
// machine into one of the categories Used, Write, Fetch, Invalidate,
// Evict, Unevicted (plus Excess for words dropped at the memory controller
// by the L2 Flex optimization).
//
// The three FSMs are those of Figures 4.1 (L1), 4.2 (L2) and 4.3 (memory).
// An L1 or L2 instance lives in the cache word it was filled into. Memory
// instances are identified by (address, identifier) pairs and
// reference-counted across all on-chip copies, because a non-inclusive
// DeNovo L2 can hold several copies of the same word from different memory
// fetches at once.
//
// Classification is single-shot: once an instance reaches a terminal
// category it never changes. Words fetched during the warm-up period are
// tracked (so later events resolve) but excluded from the counts.
package waste

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
)

// Category is the terminal classification of a word instance.
type Category uint8

// Classification categories (§4.1).
const (
	Open       Category = iota // not yet classified
	Used                       // read by the program / returned by the L2
	Write                      // overwritten before being used
	Fetch                      // fetched while already present
	Invalidate                 // invalidated by the protocol before use
	Evict                      // evicted before use
	Unevicted                  // still cached, unclassified, at end of run
	Excess                     // fetched from DRAM, dropped at the MC (L2 Flex)
	numCategories
)

// Categories lists the terminal categories in display order.
var Categories = []Category{Used, Fetch, Write, Invalidate, Evict, Unevicted, Excess}

func (c Category) String() string {
	switch c {
	case Open:
		return "Open"
	case Used:
		return "Used"
	case Write:
		return "Write"
	case Fetch:
		return "Fetch"
	case Invalidate:
		return "Invalidate"
	case Evict:
		return "Evict"
	case Unevicted:
		return "Unevicted"
	case Excess:
		return "Excess"
	}
	return fmt.Sprintf("Category(%d)", uint8(c))
}

// Level identifies which hierarchy level an instance was fetched into.
type Level uint8

// Hierarchy levels for instance creation.
const (
	LevelL1 Level = iota
	LevelL2
	LevelMem
	numLevels
)

func (l Level) String() string {
	switch l {
	case LevelL1:
		return "L1"
	case LevelL2:
		return "L2"
	case LevelMem:
		return "Mem"
	}
	return fmt.Sprintf("Level(%d)", uint8(l))
}

// ClassifyFunc observes classifications; the traffic recorder uses it to
// settle deferred Used/Waste flit-hop attribution. share is the flit-hop
// share Fill attached when the instance was made, class its message class
// tag.
type ClassifyFunc func(level Level, class uint8, cat Category, share float64, measured bool)

// An L1 or L2 instance lives in its cache word (cache.Line.Inst), not in
// a record: Fill writes an open word, and the entry point that classifies
// the instance zeroes it. A settled word is therefore 0, and every entry
// point ignores it. An open word packs what the instance reports:
//
//	bits 0-31   the share, as float32 bits
//	bits 32-39  the class tag
//	bits 40-41  the level
//	bit  42     measured
//	bit  63     set, so an open word is never 0
const (
	wordMeasured = 1 << 42
	wordOpen     = 1 << 63
)

// memInst is one open memory instance, packed to 16 bytes. A record lives
// only while its instance is open: classification settles it, and its
// slot goes back to the free list for the next instance.
type memInst struct {
	addr  uint32
	refs  int32  // live on-chip copies
	gen   uint32 // the slot's generation: bumped each time the slot is freed
	flags uint8  // flagMeasured, flagLive
}

const (
	flagMeasured uint8 = 1 << iota
	flagLive
)

// Profiler owns the open word instances of one simulation run. L1 and L2
// instances live in the cache words Track registers. A memory instance id
// is its record's slot in the low 32 bits and the slot's generation in
// the high 32, so an id that outlives its instance (a cache word or a
// message still holds it after classification) names a slot whose
// generation has moved on: every entry point ignores it, exactly as it
// ignores a classified instance, and never touches the slot's next
// tenant. The record table grows only with the peak number of open memory
// instances.
type Profiler struct {
	recs       []memInst // recs[0] is reserved: id 0 means "none"
	free       []uint32  // free slots, reused last-freed first
	tracked    [][]uint64
	made       uint64 // instances created, at every level
	counts     [numLevels][numCategories]uint64
	measuring  bool
	onClassify ClassifyFunc

	// The open memory instances of each word address, in the order
	// MemStore classifies them. openSlot maps a word index (addr>>2) to
	// 1 + the index of its list in openLists, 0 for none; it grows to the
	// highest word fetched. An emptied list's slot goes on openFree with
	// its array, so a fetch allocates only when every free list is full.
	openSlot  []int32
	openLists [][]uint64
	openFree  []int32
}

// recycled holds the profilers of ended runs, for their tables.
var recycled sync.Pool

// NewProfiler creates an empty profiler (warm-up mode: not measuring). It
// takes the tables of a recycled profiler when one is free, emptied: its
// ids restart from slot 1, generation 0, as in a new profiler.
func NewProfiler() *Profiler {
	p, _ := recycled.Get().(*Profiler)
	if p == nil {
		return &Profiler{recs: make([]memInst, 1, 256)}
	}
	// MemFetch grows the index into capacity it expects to be zero.
	clear(p.openSlot[:cap(p.openSlot)])
	*p = Profiler{
		recs:      append(p.recs[:0], memInst{}),
		free:      p.free[:0],
		tracked:   p.tracked[:0],
		openSlot:  p.openSlot[:0],
		openLists: p.openLists[:0],
		openFree:  p.openFree[:0],
	}
	return p
}

// Recycle hands the profiler's tables to the next NewProfiler and drops
// the cache words it tracks. The caller must not use the profiler again.
func (p *Profiler) Recycle() {
	p.onClassify = nil // the observer holds the ended run's traffic recorder
	clear(p.tracked)
	recycled.Put(p)
}

// Track adds a cache's instance words, the Inst words of every line, to
// the words Finish sweeps. Every L1 and L2 instance lives in a tracked
// word from Fill until it classifies.
func (p *Profiler) Track(words []uint64) { p.tracked = append(p.tracked, words) }

// get returns id's record while its instance is open, nil otherwise (id 0,
// or an id whose instance has been classified).
func (p *Profiler) get(id uint64) *memInst {
	slot := uint32(id)
	if slot == 0 || int(slot) >= len(p.recs) {
		return nil
	}
	in := &p.recs[slot]
	if in.gen != uint32(id>>32) || in.flags&flagLive == 0 {
		return nil
	}
	return in
}

// OnClassify installs the classification observer.
func (p *Profiler) OnClassify(f ClassifyFunc) { p.onClassify = f }

// StartMeasurement switches from warm-up to measured mode: instances
// created from now on count toward the category totals.
func (p *Profiler) StartMeasurement() { p.measuring = true }

// Count returns the number of measured words classified as cat at level.
func (p *Profiler) Count(level Level, cat Category) uint64 { return p.counts[level][cat] }

// TotalWords returns all measured words fetched into level.
func (p *Profiler) TotalWords(level Level) uint64 {
	var n uint64
	for _, c := range Categories {
		n += p.counts[level][c]
	}
	return n
}

// Instances returns the number of instances created so far at every
// level, open or classified.
func (p *Profiler) Instances() int { return int(p.made) }

// PeakLive returns the most memory instances that were open at once: the
// size of the record table.
func (p *Profiler) PeakLive() int { return len(p.recs) - 1 }

// report counts a classification and passes it to the observer.
func (p *Profiler) report(level Level, class uint8, cat Category, share float32, measured bool) {
	if measured {
		p.counts[level][cat]++
	}
	if p.onClassify != nil {
		p.onClassify(level, class, cat, float64(share), measured)
	}
}

// reportWord reports the classification of the instance an open word
// describes.
func (p *Profiler) reportWord(open uint64, cat Category) {
	p.report(Level(open>>40&3), uint8(open>>32), cat, math.Float32frombits(uint32(open)), open&wordMeasured != 0)
}

// settle classifies the open word *w as cat and zeroes it. A settled word
// is 0, and callers skip it before the call.
func (p *Profiler) settle(w *uint64, cat Category) {
	open := *w
	*w = 0
	p.reportWord(open, cat)
}

func (p *Profiler) newMem(addr uint32) uint64 {
	p.made++
	var slot uint32
	if n := len(p.free); n > 0 {
		slot = p.free[n-1]
		p.free = p.free[:n-1]
	} else {
		slot = uint32(len(p.recs))
		p.recs = append(p.recs, memInst{})
	}
	in := &p.recs[slot]
	*in = memInst{addr: addr, gen: in.gen, flags: flagLive}
	if p.measuring {
		in.flags |= flagMeasured
	}
	return uint64(in.gen)<<32 | uint64(slot)
}

// classify settles an open memory instance and frees its record; a stale
// id is ignored.
func (p *Profiler) classify(id uint64, cat Category) {
	in := p.get(id)
	if in == nil {
		return
	}
	addr, measured := in.addr, in.flags&flagMeasured != 0
	in.flags = 0
	// A slot whose generation would wrap is retired, so no id is ever
	// reissued.
	if in.gen++; in.gen != ^uint32(0) {
		p.free = append(p.free, uint32(id))
	}
	p.report(LevelMem, 0, cat, 0, measured)
	p.dropOpenMem(addr, id)
}

// Fill records the words of mask arriving at one line of an L1 or L2
// (level) in a message of traffic class class, each carrying share
// flit-hops. It is the only way an L1 or L2 instance is made, and every
// instance gets its class and share here, to be reported when it
// classifies. A word in present was already valid there: its copy is
// Fetch waste at once, share and all, and inst[w] keeps the cached copy's
// instance. Every other word's instance opens in inst[w], which must be
// settled (0), and its memory instance minst[w] gains an on-chip copy
// when ref is set (an ownership transfer moves the copy instead).
func (p *Profiler) Fill(level Level, mask, present uint16, class uint8, share float64, inst, minst []uint64, ref bool) {
	open := wordOpen | uint64(level)<<40 | uint64(class)<<32 | uint64(math.Float32bits(float32(share)))
	if p.measuring {
		open |= wordMeasured
	}
	for m := mask; m != 0; m &= m - 1 {
		w := bits.TrailingZeros16(m)
		p.made++
		if present&(1<<w) != 0 {
			p.reportWord(open, Fetch)
			continue
		}
		inst[w] = open
		if ref {
			p.MemAddRef(minst[w])
		}
	}
}

// Release closes the words of mask of one cache line: each word's open
// instance inst[w] classifies as cat, then its memory instance minst[w],
// if any, loses this on-chip copy (comm marks a loss caused by another
// core's write, which Figure 4.3 classifies as Invalidate) and is
// cleared. A nil minst releases no memory instance: an ownership transfer
// hands the copies on.
func (p *Profiler) Release(mask uint16, cat Category, inst, minst []uint64, comm bool) {
	for m := mask; m != 0; m &= m - 1 {
		w := bits.TrailingZeros16(m)
		if inst[w] != 0 {
			p.settle(&inst[w], cat)
		}
		if minst != nil && minst[w] != 0 {
			p.MemRelease(minst[w], comm)
			minst[w] = 0
		}
	}
}

// --- L1 FSM (Figure 4.1) ---
//
// Arrivals go through Fill, and evictions and invalidations through
// Release. The word entry points take the cache word the instance lives
// in, and settle it.

// L1Load marks the word's instance as read by the program (Used).
func (p *Profiler) L1Load(w *uint64) {
	if *w != 0 {
		p.settle(w, Used)
	}
}

// L1Store marks the word's instance overwritten before use (Write).
func (p *Profiler) L1Store(w *uint64) {
	if *w != 0 {
		p.settle(w, Write)
	}
}

// --- L2 FSM (Figure 4.2) ---
//
// Arrivals go through Fill, and overwrites and evictions through Release.

// L2Served marks the word returned to an L1 as part of a response (Used).
func (p *Profiler) L2Served(w *uint64) {
	if *w != 0 {
		p.settle(w, Used)
	}
}

// --- Memory FSM (Figure 4.3) ---

// MemFetch records a word of address addr leaving the memory controller
// toward the chip, creating a new (addr, id) instance with zero on-chip
// references. presentInL2 applies the Figure 4.3 "address present in L2"
// check (immediate Fetch classification).
func (p *Profiler) MemFetch(addr uint32, presentInL2 bool) uint64 {
	id := p.newMem(addr)
	if presentInL2 {
		p.classify(id, Fetch)
		return id
	}
	w := int(addr >> 2)
	if w >= len(p.openSlot) {
		// Grown memory is zero, and the index never shrinks.
		p.openSlot = slices.Grow(p.openSlot, w+1-len(p.openSlot))[:w+1]
	}
	slot := p.openSlot[w]
	if slot == 0 {
		if n := len(p.openFree); n > 0 {
			slot = p.openFree[n-1]
			p.openFree = p.openFree[:n-1]
		} else {
			// Past the length lie the lists of a recycled run: reuse
			// their arrays.
			n := len(p.openLists)
			p.openLists = slices.Grow(p.openLists, 1)[:n+1]
			p.openLists[n] = p.openLists[n][:0]
			slot = int32(n + 1)
		}
		p.openSlot[w] = slot
	}
	p.openLists[slot-1] = append(p.openLists[slot-1], id)
	return id
}

// openList returns the open LevelMem instance ids of a word address (nil
// when none are open) and their slot. Only word-aligned addresses are
// ever fetched.
func (p *Profiler) openList(addr uint32) ([]uint64, int32) {
	w := int(addr >> 2)
	if addr&3 != 0 || w >= len(p.openSlot) || p.openSlot[w] == 0 {
		return nil, 0
	}
	slot := p.openSlot[w]
	return p.openLists[slot-1], slot
}

// MemExcess records a word fetched from DRAM and dropped at the MC by the
// L2 Flex filter: it never reaches the chip.
func (p *Profiler) MemExcess(addr uint32) uint64 {
	id := p.newMem(addr)
	p.classify(id, Excess)
	return id
}

// MemAddRef notes a new on-chip copy of instance id.
func (p *Profiler) MemAddRef(id uint64) {
	if in := p.get(id); in != nil {
		in.refs++
	}
}

// MemRelease notes the destruction of one on-chip copy (eviction without
// writeback, overwrite, or invalidation). When the last copy of an open
// instance disappears it classifies as Invalidate (if invalidated) or
// Evict.
func (p *Profiler) MemRelease(id uint64, invalidated bool) {
	in := p.get(id)
	if in == nil {
		return
	}
	if in.refs > 0 {
		in.refs--
	}
	if in.refs == 0 {
		if invalidated {
			p.classify(id, Invalidate)
		} else {
			p.classify(id, Evict)
		}
	}
}

// MemLoad marks instance id read by a core (Used).
func (p *Profiler) MemLoad(id uint64) { p.classify(id, Used) }

// MemStore classifies every open instance of addr as Write: once any core
// writes the address, the coherence protocol will invalidate or overwrite
// every other on-chip copy (§4.1).
func (p *Profiler) MemStore(addr uint32) {
	ids, _ := p.openList(addr)
	if len(ids) == 0 {
		return
	}
	// classify() swap-removes from the list; iterate over a stable copy.
	var buf [8]uint64
	for _, id := range append(buf[:0], ids...) {
		p.classify(id, Write)
	}
}

// dropOpenMem removes a classified instance from its address's open list
// by swapping the last id into its place; an emptied list frees its slot.
// Instances classified at creation (Fetch, Excess) were never listed.
func (p *Profiler) dropOpenMem(addr uint32, id uint64) {
	ids, slot := p.openList(addr)
	if slot == 0 {
		return
	}
	for i, x := range ids {
		if x == id {
			ids[i] = ids[len(ids)-1]
			ids = ids[:len(ids)-1]
			break
		}
	}
	p.openLists[slot-1] = ids
	if len(ids) == 0 {
		p.openSlot[addr>>2] = 0
		p.openFree = append(p.openFree, slot)
	}
}

// Finish classifies every still-open instance as Unevicted (end of the
// measurement window, Figure 4.1-4.3 terminal edge): the open words of the
// tracked caches in the order Track listed them, then the memory
// instances in slot order.
func (p *Profiler) Finish() {
	for _, words := range p.tracked {
		for i := range words {
			if words[i] != 0 {
				p.settle(&words[i], Unevicted)
			}
		}
	}
	for slot := 1; slot < len(p.recs); slot++ {
		if in := &p.recs[slot]; in.flags&flagLive != 0 {
			p.classify(uint64(in.gen)<<32|uint64(slot), Unevicted)
		}
	}
}

// Snapshot returns the per-level, per-category measured word counts,
// detached from the profiler.
func (p *Profiler) Snapshot() (counts [3][8]uint64) {
	for l := Level(0); l < numLevels; l++ {
		for c := Category(0); c < numCategories; c++ {
			counts[l][c] = p.counts[l][c]
		}
	}
	return counts
}
