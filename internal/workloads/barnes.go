package workloads

import "repro/internal/memsys"

// Barnes models SPLASH-2 Barnes-Hut (Table 4.2: 16K bodies). Each
// iteration builds an oct-tree (sequentialized onto thread 0, as the paper
// modified it), computes forces by traversing the tree, then updates body
// positions and velocities.
//
// Layouts reproduce what the paper blames Barnes' waste on:
//   - bodies are 96-byte array-of-structs records (not a multiple of the
//     line size, so useful fields spread across a varying number of
//     lines), with several fields used only during tree construction and
//     compiler padding mixed into useful lines;
//   - cells are 128-byte records whose center-of-mass and child-pointer
//     fields are the only ones touched during the force phase.
//
// The Flex communication regions cover exactly the force-phase fields, so
// DFlexL1/DFlexL2 avoid shipping build-only fields and padding (§5.2.1).
type Barnes struct {
	shape
	bodies int
	cells  int
	bodyR  uint8
	cellR  uint8
}

const (
	bodyWords = 24 // 96 bytes: mass(1) pos(6) pad(1) vel(6) acc(6) build-only(4)
	cellWords = 32 // 128 bytes: COM mass+pos(8) children(4) build-only(20)

	bodyMass  = 0 // word offsets within a body
	bodyPos   = 1
	bodyVel   = 8
	bodyAcc   = 14
	bodyBuild = 20

	cellCOM      = 0
	cellChildren = 8
	cellBuild    = 12
)

// NewBarnes builds the Barnes-Hut benchmark at the given scale.
func NewBarnes(size Size, threads int) *Barnes {
	var n int
	switch size {
	case Tiny:
		n = 256
	case Small:
		n = 2048
	default:
		n = 16 * 1024 // paper
	}
	b := &Barnes{bodies: n, cells: n / 2, shape: shape{
		name: "barnes", threads: threads,
		phases: 6, // (build, force, update) x 2 iterations
		warmup: 3, // the first iteration (§4.3)
	}}
	// Force-phase communication regions: mass+pos for bodies, COM+children
	// for cells.
	bodyComm := make([]uint16, 8)
	for i := range bodyComm {
		bodyComm[i] = uint16(i)
	}
	cellComm := make([]uint16, 12)
	for i := range cellComm {
		cellComm[i] = uint16(i)
	}
	b.bodyR = b.lay.add("bodies", uint32(n)*bodyWords*4,
		regionOpts{strideWords: bodyWords, comm: bodyComm})
	b.cellR = b.lay.add("cells", uint32(b.cells)*cellWords*4,
		regionOpts{strideWords: cellWords, comm: cellComm})
	return b
}

// WrittenRegions implements memsys.Program.
func (b *Barnes) WrittenRegions(p int) []uint8 {
	switch p % 3 {
	case 0:
		return []uint8{b.cellR}
	default:
		return []uint8{b.bodyR}
	}
}

func (b *Barnes) bodyAddr(i, word int) uint32 {
	return b.lay.base(b.bodyR) + uint32(i*bodyWords+word)*4
}

func (b *Barnes) cellAddr(i, word int) uint32 {
	return b.lay.base(b.cellR) + uint32(i*cellWords+word)*4
}

// EmitOps implements memsys.Program.
func (b *Barnes) EmitOps(p, t int, emit func(memsys.Op)) {
	e := emitter{emit}
	it := p / 3
	lo, hi := span(b.bodies, b.threads, t)
	switch p % 3 {
	case 0: // tree build, sequentialized onto thread 0
		if t != 0 {
			return
		}
		rng := newRNG(uint64(0xbab0 + it))
		for i := 0; i < b.bodies; i++ {
			e.loadWords(b.bodyAddr(i, bodyMass), 7) // mass+pos guide insertion
			// Walk an insertion path and touch build-only cell fields.
			c := rng.intn(b.cells)
			e.loadWords(b.cellAddr(c, cellChildren), 4)
			e.storeWords(b.cellAddr(c, cellBuild), 4)
			e.compute(6)
		}
		for c := 0; c < b.cells; c++ { // finalize: write whole cell records
			e.storeWords(b.cellAddr(c, 0), cellWords)
		}
	case 1: // force computation
		rng := newRNG(uint64(0xf0ce+it)<<8 + uint64(t))
		for i := lo; i < hi; i++ {
			e.loadWords(b.bodyAddr(i, bodyMass), 8) // own mass+pos
			// Tree walk: COM + children of ~8 cells.
			for d := 0; d < 8; d++ {
				c := rng.intn(b.cells)
				e.loadWords(b.cellAddr(c, cellCOM), 8)
				e.loadWords(b.cellAddr(c, cellChildren), 4)
				e.compute(10)
			}
			// Direct interactions with a few nearby bodies.
			for d := 0; d < 3; d++ {
				j := rng.intn(b.bodies)
				e.loadWords(b.bodyAddr(j, bodyMass), 8)
				e.compute(12)
			}
			e.storeWords(b.bodyAddr(i, bodyAcc), 6) // own acceleration
		}
	case 2: // update positions and velocities
		for i := lo; i < hi; i++ {
			e.loadWords(b.bodyAddr(i, bodyAcc), 6)
			e.loadWords(b.bodyAddr(i, bodyVel), 6)
			e.compute(8)
			e.storeWords(b.bodyAddr(i, bodyVel), 6)
			e.storeWords(b.bodyAddr(i, bodyPos), 6)
		}
	}
}
