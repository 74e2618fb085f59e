package workloads

import "repro/internal/memsys"

// LU models the SPLASH-2 blocked dense LU factorization (Table 4.2:
// 512x512 matrix, 16x16 blocks, "aligned" variant — blocks stored
// contiguously so there is no false sharing).
//
// Per factorization step k the kernel runs three phases: factorize the
// diagonal block, update the perimeter row/column blocks, update the
// interior blocks. Blocks are assigned to threads round-robin, and only a
// block's owner writes it, so phases are data-race free.
//
// The patterns the paper attributes LU's results to:
//   - triangular accesses inside diagonal/perimeter blocks touch only part
//     of each cache line (Evict waste from poor spatial locality),
//   - lines are read by several consumers before their owner writes them
//     again, so MESI sees frequent S->M Upgrade requests,
//   - the working set is small relative to the L2, so L2 bypass has no
//     opportunity (no Bypass annotation).
type LU struct {
	shape
	b   int // block dimension
	nb  int // blocks per dimension
	mat uint8
}

// Matrix element: double = 2 words.
const luElemWords = 2

// NewLU builds the LU benchmark at the given scale.
func NewLU(size Size, threads int) *LU {
	var n int
	switch size {
	case Tiny:
		n = 64
	case Small:
		n = 128
	default:
		n = 512 // paper
	}
	l := &LU{b: 16}
	l.nb = n / l.b
	l.shape = shape{
		name: "LU", threads: threads,
		phases: 1 + 3*l.nb, // warm-up, then 3 per factorization step
		warmup: 1,          // one core reads the matrix (§4.3)
	}
	bytes := uint32(n) * uint32(n) * luElemWords * 4
	l.mat = l.lay.add("matrix", bytes, regionOpts{strideWords: luElemWords})
	return l
}

// WrittenRegions implements memsys.Program: every compute phase writes
// somewhere in the matrix.
func (l *LU) WrittenRegions(p int) []uint8 {
	if p == 0 {
		return nil
	}
	return []uint8{l.mat}
}

// owner assigns blocks to threads round-robin.
func (l *LU) owner(bi, bj int) int { return (bi*l.nb + bj) % l.threads }

// blockAddr returns the byte address of element (i, j) inside block
// (bi, bj); blocks are stored contiguously ("aligned" LU).
func (l *LU) blockAddr(bi, bj, i, j int) uint32 {
	blockBytes := uint32(l.b*l.b) * luElemWords * 4
	base := l.lay.base(l.mat) + uint32(bi*l.nb+bj)*blockBytes
	return base + uint32(i*l.b+j)*luElemWords*4
}

// EmitOps implements memsys.Program.
func (l *LU) EmitOps(p, t int, emit func(memsys.Op)) {
	e := emitter{emit}
	if p == 0 {
		if t != 0 {
			return
		}
		for off := uint32(0); off < l.lay.next; off += memsys.LineBytes {
			e.load(off)
		}
		return
	}
	k := (p - 1) / 3
	switch (p - 1) % 3 {
	case 0: // factorize diagonal block (k,k): triangular in-place update
		if l.owner(k, k) != t {
			return
		}
		for j := 0; j < l.b; j++ {
			for i := j; i < l.b; i++ {
				e.loadWords(l.blockAddr(k, k, i, j), luElemWords)
			}
			e.compute(3 * (l.b - j))
			for i := j + 1; i < l.b; i++ {
				e.storeWords(l.blockAddr(k, k, i, j), luElemWords)
			}
		}
	case 1: // perimeter: row blocks (k,j) and column blocks (i,k)
		for j := k + 1; j < l.nb; j++ {
			if l.owner(k, j) == t {
				l.perimUpdate(e, k, k, j)
			}
			if l.owner(j, k) == t {
				l.perimUpdate(e, k, j, k)
			}
		}
	case 2: // interior: (i,j) -= (i,k)*(k,j)
		for i := k + 1; i < l.nb; i++ {
			for j := k + 1; j < l.nb; j++ {
				if l.owner(i, j) != t {
					continue
				}
				l.readBlock(e, i, k)
				l.readBlock(e, k, j)
				e.compute(2 * l.b * l.b)
				l.rmwBlock(e, i, j)
			}
		}
	}
}

// perimUpdate solves a perimeter block against the diagonal block:
// triangular read of the diagonal, full read-modify-write of the target.
func (l *LU) perimUpdate(e emitter, k, bi, bj int) {
	for j := 0; j < l.b; j++ {
		for i := j; i < l.b; i++ {
			e.loadWords(l.blockAddr(k, k, i, j), luElemWords)
		}
	}
	e.compute(l.b * l.b)
	l.rmwBlock(e, bi, bj)
}

func (l *LU) readBlock(e emitter, bi, bj int) {
	for i := 0; i < l.b; i++ {
		for j := 0; j < l.b; j++ {
			e.loadWords(l.blockAddr(bi, bj, i, j), luElemWords)
		}
	}
}

func (l *LU) rmwBlock(e emitter, bi, bj int) {
	for i := 0; i < l.b; i++ {
		for j := 0; j < l.b; j++ {
			e.loadWords(l.blockAddr(bi, bj, i, j), luElemWords)
			e.storeWords(l.blockAddr(bi, bj, i, j), luElemWords)
		}
	}
}
