package workloads

import "repro/internal/memsys"

// Fluidanimate models the PARSEC fluidanimate SPH kernel (Table 4.2:
// simmedium), modified — as the paper did — to the ghost-cell pattern, so
// threads only ever write their own cells and read neighbours' cells from
// the previous phase.
//
// The grid is stored struct-of-arrays per field, but each cell reserves 16
// particle slots per field while holding far fewer particles, so lines
// carry trailing pre-allocated space that is fetched and evicted unused
// ("the majority of objects are not fully filled", §5.2.2/§5.3).
//
// Phase structure per iteration: clear accumulators (pure overwrite →
// Write waste under fetch-on-write), density stencil over +X/+Y/+Z
// neighbours in X-Y-Z traversal order (unblocked reuse → poor L2 reuse),
// force stencil, then advance + array-to-array position copy
// (read-then-overwrite → L2 response bypass type 1 on the pos region).
type Fluidanimate struct {
	shape
	nx, ny, nz int
	posR       uint8
	velR       uint8
	accR       uint8
	denR       uint8
	pos2R      uint8
	counts     []int // particles per cell (deterministic)
}

const fluidSlots = 16 // particle capacity per cell

// NewFluidanimate builds the benchmark at the given scale.
func NewFluidanimate(size Size, threads int) *Fluidanimate {
	var nx, ny, nz int
	switch size {
	case Tiny:
		nx, ny, nz = 4, 4, 4
	case Small:
		nx, ny, nz = 8, 8, 8
	default:
		nx, ny, nz = 20, 20, 20 // ~simmedium cell count
	}
	f := &Fluidanimate{nx: nx, ny: ny, nz: nz, shape: shape{
		name: "fluidanimate", threads: threads,
		phases: 8, // 4 per iteration x 2 iterations
		warmup: 4, // the first iteration
	}}
	cells := uint32(nx * ny * nz)
	posBytes := cells * fluidSlots * 3 * 4 // 3 words per particle slot
	f.posR = f.lay.add("pos", posBytes, regionOpts{bypass: true})
	f.velR = f.lay.add("vel", posBytes, regionOpts{})
	f.accR = f.lay.add("acc", posBytes, regionOpts{})
	f.denR = f.lay.add("density", cells*fluidSlots*4, regionOpts{})
	f.pos2R = f.lay.add("pos2", posBytes, regionOpts{})
	// Deterministic fill levels, mostly well under capacity.
	f.counts = make([]int, cells)
	rng := newRNG(0xf1d0)
	for i := range f.counts {
		f.counts[i] = 1 + rng.intn(8) + rng.intn(5) // avg ~6.5 of 16 slots
	}
	return f
}

func (f *Fluidanimate) cellCount() int { return f.nx * f.ny * f.nz }

// WrittenRegions implements memsys.Program.
func (f *Fluidanimate) WrittenRegions(p int) []uint8 {
	switch p % 4 {
	case 0:
		return []uint8{f.accR, f.denR}
	case 1:
		return []uint8{f.denR}
	case 2:
		return []uint8{f.accR}
	default:
		return []uint8{f.velR, f.posR, f.pos2R}
	}
}

// vec3Addr returns the address of cell c's particle-slot array in a
// 3-words-per-slot region.
func (f *Fluidanimate) vec3Addr(region uint8, c int) uint32 {
	return f.lay.base(region) + uint32(c)*fluidSlots*3*4
}

func (f *Fluidanimate) denAddr(c int) uint32 {
	return f.lay.base(f.denR) + uint32(c)*fluidSlots*4
}

// neighbours returns the +X, +Y, +Z neighbour cell indices (interior
// stencil; boundary cells have fewer neighbours).
func (f *Fluidanimate) neighbours(c int) []int {
	x := c % f.nx
	y := (c / f.nx) % f.ny
	z := c / (f.nx * f.ny)
	var out []int
	if x+1 < f.nx {
		out = append(out, c+1)
	}
	if y+1 < f.ny {
		out = append(out, c+f.nx)
	}
	if z+1 < f.nz {
		out = append(out, c+f.nx*f.ny)
	}
	return out
}

// EmitOps implements memsys.Program.
func (f *Fluidanimate) EmitOps(p, t int, emit func(memsys.Op)) {
	e := emitter{emit}
	lo, hi := span(f.cellCount(), f.threads, t)
	switch p % 4 {
	case 0: // clear accumulators: pure overwrite, no prior read
		for c := lo; c < hi; c++ {
			n := f.counts[c]
			e.storeWords(f.vec3Addr(f.accR, c), 3*n)
			e.storeWords(f.denAddr(c), n)
		}
	case 1: // density stencil: own pos + neighbour pos -> own density
		for c := lo; c < hi; c++ {
			n := f.counts[c]
			e.loadWords(f.vec3Addr(f.posR, c), 3*n)
			for _, nb := range f.neighbours(c) {
				e.loadWords(f.vec3Addr(f.posR, nb), 3*f.counts[nb])
			}
			e.compute(6 * n)
			e.storeWords(f.denAddr(c), n)
		}
	case 2: // force stencil: own+neighbour pos/density -> own acc
		for c := lo; c < hi; c++ {
			n := f.counts[c]
			e.loadWords(f.vec3Addr(f.posR, c), 3*n)
			e.loadWords(f.denAddr(c), n)
			for _, nb := range f.neighbours(c) {
				e.loadWords(f.vec3Addr(f.posR, nb), 3*f.counts[nb])
				e.loadWords(f.denAddr(nb), f.counts[nb])
			}
			e.compute(8 * n)
			e.storeWords(f.vec3Addr(f.accR, c), 3*n)
		}
	case 3: // advance: integrate, then copy positions (array-to-array)
		for c := lo; c < hi; c++ {
			n := f.counts[c]
			e.loadWords(f.vec3Addr(f.accR, c), 3*n)
			e.loadWords(f.vec3Addr(f.velR, c), 3*n)
			e.storeWords(f.vec3Addr(f.velR, c), 3*n)
			e.compute(4 * n)
			e.loadWords(f.vec3Addr(f.posR, c), 3*n)
			e.storeWords(f.vec3Addr(f.posR, c), 3*n)
			e.storeWords(f.vec3Addr(f.pos2R, c), 3*n)
		}
	}
}
