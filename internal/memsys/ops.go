package memsys

import (
	"fmt"
	"sort"
)

// OpKind discriminates workload operations.
type OpKind uint8

// Workload operation kinds.
const (
	OpLoad OpKind = iota
	OpStore
	OpCompute // Cycles of non-memory work
)

// Op is one operation in a thread's instruction stream. Barriers are
// implicit between phases.
type Op struct {
	Kind   OpKind
	Cycles uint16 // OpCompute only
	Addr   uint32 // byte address (word-aligned), OpLoad/OpStore
}

// Region describes one program data region (§2): a contiguous address
// range with optional structural information for the Flex optimization and
// an L2-bypass hint (§3.1).
type Region struct {
	ID   uint8
	Name string
	Base uint32 // byte offset of the region in the program footprint
	Size uint32 // bytes

	// StrideWords is the element size, in words, for array-of-structs
	// regions. Zero means the region has no element structure.
	StrideWords uint16

	// CommOffsets lists the word offsets within one element that form the
	// region's communication region (the fields used together in the
	// current usage). Empty means "whole element / no Flex shaping".
	CommOffsets []uint16

	// Bypass marks the region for the L2 response/request bypass
	// optimizations (read-then-overwritten or streaming data, §3.1).
	Bypass bool
}

// Contains reports whether addr falls inside the region.
func (r *Region) Contains(addr uint32) bool { return addr >= r.Base && addr < r.Base+r.Size }

// CommWords appends to out the word-aligned byte addresses of the
// communication region covering addr: the annotated field offsets of the
// element that contains addr, clipped to the region. With no structure it
// appends just addr's word. Callers pass a buffer they own, so the lookup
// allocates nothing once it has grown.
func (r *Region) CommWords(out []uint32, addr uint32) []uint32 {
	if r.StrideWords == 0 || len(r.CommOffsets) == 0 {
		return append(out, WordAddr(addr))
	}
	strideBytes := uint32(r.StrideWords) * WordBytes
	elem := r.Base + (addr-r.Base)/strideBytes*strideBytes
	for _, off := range r.CommOffsets {
		w := elem + uint32(off)*WordBytes
		if w < r.Base+r.Size {
			out = append(out, w)
		}
	}
	return out
}

// InComm reports whether addr's field offset lies inside the region's
// communication region. Requests for fields outside it (used in other
// phases) fall back to line-granularity transfers, mirroring the paper's
// usage-specific communication regions.
func (r *Region) InComm(addr uint32) bool {
	if r.StrideWords == 0 || len(r.CommOffsets) == 0 {
		return false
	}
	off := uint16((addr - r.Base) / WordBytes % uint32(r.StrideWords))
	for _, o := range r.CommOffsets {
		// off < StrideWords by construction, so o == off is subsumed by
		// o%StrideWords == off (proved redundant by the agreement property
		// test in region_prop_test.go).
		if o%r.StrideWords == off {
			return true
		}
	}
	return false
}

// RegionTable resolves addresses to regions with binary search.
type RegionTable struct {
	regions []Region // sorted by Base
}

// NewRegionTable builds a lookup table; regions must not overlap.
func NewRegionTable(regions []Region) (*RegionTable, error) {
	rs := append([]Region(nil), regions...)
	sort.Slice(rs, func(i, j int) bool { return rs[i].Base < rs[j].Base })
	for i := 1; i < len(rs); i++ {
		if rs[i-1].Base+rs[i-1].Size > rs[i].Base {
			return nil, fmt.Errorf("memsys: regions %q and %q overlap", rs[i-1].Name, rs[i].Name)
		}
	}
	return &RegionTable{regions: rs}, nil
}

// ByAddr returns the region containing addr, or nil.
func (t *RegionTable) ByAddr(addr uint32) *Region {
	lo, hi := 0, len(t.regions)
	for lo < hi {
		mid := (lo + hi) / 2
		if t.regions[mid].Base <= addr {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return nil
	}
	r := &t.regions[lo-1]
	if !r.Contains(addr) {
		return nil
	}
	return r
}

// ByID returns the region with the given id, or nil.
func (t *RegionTable) ByID(id uint8) *Region {
	for i := range t.regions {
		if t.regions[i].ID == id {
			return &t.regions[i]
		}
	}
	return nil
}

// All returns the regions sorted by base address.
func (t *RegionTable) All() []Region { return t.regions }

// Program is a deterministic parallel workload: a fixed number of threads
// each executing a sequence of phases separated by global barriers. It is
// the simulator-facing contract implemented by internal/workloads.
type Program interface {
	// Name is the benchmark name (Table 4.2).
	Name() string
	// Threads is the number of worker threads (= cores used).
	Threads() int
	// FootprintBytes is the size of the program's address space.
	FootprintBytes() uint32
	// Regions describes the program's data regions.
	Regions() []Region
	// Phases is the total number of phases (warm-up + measured).
	Phases() int
	// WarmupPhases is how many leading phases are excluded from stats.
	WarmupPhases() int
	// WrittenRegions lists region ids written during phase p; DeNovo
	// self-invalidates these regions at the closing barrier.
	WrittenRegions(p int) []uint8
	// EmitOps streams thread t's operations for phase p, in order.
	EmitOps(p, t int, emit func(Op))
}
