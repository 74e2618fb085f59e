// Package workloads is the parameterized workload registry: the paper's
// six benchmarks (Table 4.2) as deterministic memory-reference
// generators, the standard NoC synthetic traffic patterns (uniform,
// transpose, bitcomp, hotspot, neighbor, prodcons — spec.go,
// synthetic.go), and replay of recorded op-stream traces (replay.go,
// internal/trace). Specs resolve through ByName/ParseSpec as
// "name(key=value,...)" strings with loud errors for unknown input.
//
// The benchmarks are FFT, LU, radix and Barnes-Hut from SPLASH-2,
// fluidanimate from PARSEC (modified to the ghost-cell pattern), and
// parallel SAH kD-tree construction. The original study ran the real
// binaries on a full-system simulator; here each benchmark is a
// synthetic kernel that reproduces the access patterns the paper
// attributes its results to (see DESIGN.md): phase structure separated
// by barriers, per-thread working sets, element layouts with
// per-phase-unused fields, streaming read-once regions, scattered
// permutation writes, and read-then-overwrite accumulators. Every
// program in the registry is data-race free across threads within a
// phase (the property DeNovo requires), which the package tests verify.
package workloads

import (
	"fmt"

	"repro/internal/memsys"
)

// Size selects an input scale.
type Size int

// Input scales. Tiny is for unit tests, Small for the benchmark harness
// (with proportionally scaled caches), Paper for the Table 4.2 inputs.
const (
	Tiny Size = iota
	Small
	Paper
)

// ScaleDiv returns the cache-scaling divisor the experiment harness pairs
// with each input size so working-set/capacity ratios match the paper.
func (s Size) ScaleDiv() int {
	switch s {
	case Tiny:
		return 64
	case Small:
		return 16
	default:
		return 1
	}
}

// String returns the scale's CLI spelling ("tiny", "small", "paper").
func (s Size) String() string {
	switch s {
	case Tiny:
		return "tiny"
	case Small:
		return "small"
	case Paper:
		return "paper"
	}
	return fmt.Sprintf("Size(%d)", int(s))
}

// benchmarks is the single source of truth for the six ported programs,
// in the paper's figure order: Names and the registry entries in spec.go
// derive from it.
var benchmarks = []struct {
	name string
	ctor func(Size, int) memsys.Program
}{
	{"fluidanimate", func(s Size, t int) memsys.Program { return NewFluidanimate(s, t) }},
	{"LU", func(s Size, t int) memsys.Program { return NewLU(s, t) }},
	{"FFT", func(s Size, t int) memsys.Program { return NewFFT(s, t) }},
	{"radix", func(s Size, t int) memsys.Program { return NewRadix(s, t) }},
	{"barnes", func(s Size, t int) memsys.Program { return NewBarnes(s, t) }},
	{"kD-tree", func(s Size, t int) memsys.Program { return NewKDTree(s, t) }},
}

// Names lists the ported benchmark names in the paper's figure order.
// The full registry — benchmarks plus synthetic patterns and the trace
// replayer — is SpecNames (spec.go); resolve any of them with ByName.
func Names() []string {
	names := make([]string, len(benchmarks))
	for i, b := range benchmarks {
		names[i] = b.name
	}
	return names
}

// shape is what a generator hands the simulator beside its op streams:
// its name, thread count, region layout and phase structure. Every
// generator embeds one and fills it in its constructor, and shape
// supplies the accessors of memsys.Program that read it.
type shape struct {
	name    string
	threads int
	lay     layout
	phases  int // barrier-separated phases, warm-up included
	warmup  int // leading phases excluded from the measurements (§4.3)
}

// Name implements memsys.Program.
func (s *shape) Name() string { return s.name }

// Threads implements memsys.Program.
func (s *shape) Threads() int { return s.threads }

// FootprintBytes implements memsys.Program.
func (s *shape) FootprintBytes() uint32 { return s.lay.next }

// Regions implements memsys.Program.
func (s *shape) Regions() []memsys.Region { return s.lay.regions }

// Phases implements memsys.Program.
func (s *shape) Phases() int { return s.phases }

// WarmupPhases implements memsys.Program.
func (s *shape) WarmupPhases() int { return s.warmup }

// layout allocates line-aligned regions in a growing footprint.
type layout struct {
	regions []memsys.Region
	next    uint32
}

func (l *layout) add(name string, bytes uint32, opts regionOpts) uint8 {
	id := uint8(len(l.regions) + 1)
	bytes = (bytes + memsys.LineBytes - 1) &^ (memsys.LineBytes - 1)
	l.regions = append(l.regions, memsys.Region{
		ID:          id,
		Name:        name,
		Base:        l.next,
		Size:        bytes,
		StrideWords: opts.strideWords,
		CommOffsets: opts.comm,
		Bypass:      opts.bypass,
	})
	l.next += bytes
	return id
}

func (l *layout) base(id uint8) uint32 { return l.regions[id-1].Base }

type regionOpts struct {
	strideWords uint16
	comm        []uint16
	bypass      bool
}

// rng is a small deterministic xorshift PRNG so generators never depend on
// math/rand internals across Go versions.
type rng uint64

func newRNG(seed uint64) *rng {
	r := rng(seed*2685821657736338717 + 1)
	return &r
}

func (r *rng) next() uint64 {
	x := uint64(*r)
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*r = rng(x)
	return x
}

// intn returns a deterministic value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// emitter wraps the raw emit callback with convenience ops.
type emitter struct {
	emit func(memsys.Op)
}

func (e emitter) load(addr uint32)  { e.emit(memsys.Op{Kind: memsys.OpLoad, Addr: addr &^ 3}) }
func (e emitter) store(addr uint32) { e.emit(memsys.Op{Kind: memsys.OpStore, Addr: addr &^ 3}) }
func (e emitter) compute(cycles int) {
	for cycles > 0 {
		c := cycles
		if c > 60000 {
			c = 60000
		}
		e.emit(memsys.Op{Kind: memsys.OpCompute, Cycles: uint16(c)})
		cycles -= c
	}
}

// loadWords reads count consecutive words starting at addr.
func (e emitter) loadWords(addr uint32, count int) {
	for i := 0; i < count; i++ {
		e.load(addr + uint32(i)*4)
	}
}

// storeWords writes count consecutive words starting at addr.
func (e emitter) storeWords(addr uint32, count int) {
	for i := 0; i < count; i++ {
		e.store(addr + uint32(i)*4)
	}
}

// span splits n items across p threads and returns thread t's [lo, hi).
func span(n, p, t int) (int, int) {
	per := (n + p - 1) / p
	lo := t * per
	hi := lo + per
	if lo > n {
		lo = n
	}
	if hi > n {
		hi = n
	}
	return lo, hi
}
