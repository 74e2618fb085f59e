// Package waste implements the paper's detailed waste characterization
// (§4.1): every word moved into the L1, into the L2, or fetched from
// memory becomes an *instance* that is classified by a small finite-state
// machine into one of the categories Used, Write, Fetch, Invalidate,
// Evict, Unevicted (plus Excess for words dropped at the memory controller
// by the L2 Flex optimization).
//
// The three FSMs are those of Figures 4.1 (L1), 4.2 (L2) and 4.3 (memory).
// Memory instances are identified by (address, identifier) pairs and
// reference-counted across all on-chip copies, because a non-inclusive
// DeNovo L2 can hold several copies of the same word from different memory
// fetches at once.
//
// Classification is single-shot: once an instance reaches a terminal
// category it never changes. Words fetched during the warm-up period are
// tracked (so later events resolve) but excluded from the counts.
package waste

import "fmt"

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
// settle deferred Used/Waste flit-hop attribution. share is the pending
// flit-hop share attached via SetTraffic, class its message class tag.
type ClassifyFunc func(level Level, class uint8, cat Category, share float64, measured bool)

// inst is packed to 16 bytes: simulations create tens of millions of
// instances, so record size and allocation behaviour dominate memory use.
type inst struct {
	addr  uint32
	share float32
	refs  int32 // LevelMem only: live on-chip copies
	level Level
	cat   Category
	class uint8 // traffic class tag
	flags uint8 // bit0: measured
}

const (
	chunkShift = 16
	chunkSize  = 1 << chunkShift
	chunkMask  = chunkSize - 1
)

// Profiler owns all word instances for one simulation run. Instances live
// in fixed-size chunks so growth never copies existing records.
type Profiler struct {
	chunks     [][]inst
	n          uint64 // instances allocated, including the reserved id 0
	counts     [numLevels][numCategories]uint64
	measuring  bool
	onClassify ClassifyFunc

	// The open LevelMem instances of each word address, in the order
	// MemStore classifies them. openSlot maps a word index (addr>>2) to
	// 1 + the index of its list in openLists, 0 for none; it grows to the
	// highest word fetched. An emptied list's slot goes on openFree with
	// its array, so a fetch allocates only when every free list is full.
	openSlot  []int32
	openLists [][]uint64
	openFree  []int32
}

// NewProfiler creates an empty profiler (warm-up mode: not measuring).
func NewProfiler() *Profiler {
	p := &Profiler{}
	p.chunks = append(p.chunks, make([]inst, chunkSize))
	p.n = 1 // id 0 reserved as "none"
	return p
}

func (p *Profiler) get(id uint64) *inst {
	return &p.chunks[id>>chunkShift][id&chunkMask]
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

// Instances returns the number of live instance records (for memory-use
// telemetry in long runs).
func (p *Profiler) Instances() int { return int(p.n) - 1 }

func (p *Profiler) new(level Level, addr uint32) uint64 {
	id := p.n
	p.n++
	if id>>chunkShift == uint64(len(p.chunks)) {
		p.chunks = append(p.chunks, make([]inst, chunkSize))
	}
	in := p.get(id)
	in.addr = addr
	in.level = level
	in.cat = Open
	if p.measuring {
		in.flags = 1
	}
	return id
}

// SetTraffic attaches the deferred flit-hop share and message-class tag to
// an instance; the share is reported to the OnClassify observer when the
// instance settles.
func (p *Profiler) SetTraffic(id uint64, class uint8, share float64) {
	if id == 0 {
		return
	}
	in := p.get(id)
	in.class = class
	in.share += float32(share)
}

func (p *Profiler) classify(id uint64, cat Category) {
	if id == 0 {
		return
	}
	in := p.get(id)
	if in.cat != Open {
		return
	}
	in.cat = cat
	measured := in.flags&1 != 0
	if measured {
		p.counts[in.level][cat]++
	}
	if p.onClassify != nil {
		p.onClassify(in.level, in.class, cat, float64(in.share), measured)
	}
	if in.level == LevelMem {
		p.dropOpenMem(in.addr, id)
	}
}

// --- L1 FSM (Figure 4.1) ---

// L1Arrival records a word arriving at an L1 cache. present reports
// whether the word was already valid there; if so the arrival is
// immediately Fetch waste. The returned id is attached to the cached word.
func (p *Profiler) L1Arrival(addr uint32, present bool) uint64 {
	id := p.new(LevelL1, addr)
	if present {
		p.classify(id, Fetch)
	}
	return id
}

// L1Load marks the word instance as read by the program (Used).
func (p *Profiler) L1Load(id uint64) { p.classify(id, Used) }

// L1Store marks the word instance overwritten before use (Write).
func (p *Profiler) L1Store(id uint64) { p.classify(id, Write) }

// L1Invalidate marks the instance invalidated before use.
func (p *Profiler) L1Invalidate(id uint64) { p.classify(id, Invalidate) }

// L1Evict marks the instance evicted before use.
func (p *Profiler) L1Evict(id uint64) { p.classify(id, Evict) }

// --- L2 FSM (Figure 4.2) ---

// L2Arrival records a word arriving at an L2 slice from memory.
func (p *Profiler) L2Arrival(addr uint32, present bool) uint64 {
	id := p.new(LevelL2, addr)
	if present {
		p.classify(id, Fetch)
	}
	return id
}

// L2Served marks the word returned to an L1 as part of a response (Used).
func (p *Profiler) L2Served(id uint64) { p.classify(id, Used) }

// L2Overwritten marks the word overwritten by an L1 writeback (Write).
func (p *Profiler) L2Overwritten(id uint64) { p.classify(id, Write) }

// L2Evict marks the word evicted from the L2 before use.
func (p *Profiler) L2Evict(id uint64) { p.classify(id, Evict) }

// --- Memory FSM (Figure 4.3) ---

// MemFetch records a word of address addr leaving the memory controller
// toward the chip, creating a new (addr, id) instance with zero on-chip
// references. presentInL2 applies the Figure 4.3 "address present in L2"
// check (immediate Fetch classification).
func (p *Profiler) MemFetch(addr uint32, presentInL2 bool) uint64 {
	id := p.new(LevelMem, addr)
	if presentInL2 {
		p.classify(id, Fetch)
		return id
	}
	w := int(addr >> 2)
	if w >= len(p.openSlot) {
		p.openSlot = append(p.openSlot, make([]int32, w+1-len(p.openSlot))...)
	}
	slot := p.openSlot[w]
	if slot == 0 {
		if n := len(p.openFree); n > 0 {
			slot = p.openFree[n-1]
			p.openFree = p.openFree[:n-1]
		} else {
			p.openLists = append(p.openLists, nil)
			slot = int32(len(p.openLists))
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
	id := p.new(LevelMem, addr)
	p.classify(id, Excess)
	return id
}

// MemAddRef notes a new on-chip copy of instance id.
func (p *Profiler) MemAddRef(id uint64) {
	if id == 0 {
		return
	}
	p.get(id).refs++
}

// MemRelease notes the destruction of one on-chip copy (eviction without
// writeback, overwrite, or invalidation). When the last copy of an open
// instance disappears it classifies as Invalidate (if invalidated) or
// Evict.
func (p *Profiler) MemRelease(id uint64, invalidated bool) {
	if id == 0 {
		return
	}
	in := p.get(id)
	if in.refs > 0 {
		in.refs--
	}
	if in.refs == 0 && in.cat == Open {
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
// measurement window, Figure 4.1-4.3 terminal edge).
func (p *Profiler) Finish() {
	for id := uint64(1); id < p.n; id++ {
		if p.get(id).cat == Open {
			p.classify(id, Unevicted)
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
