package workloads

import "repro/internal/memsys"

// KDTree models the parallel SAH kD-tree construction of Choi et al.
// (Table 4.2: bunny). Each iteration (tree level) sweeps the edge-event
// array to evaluate SAH split candidates while consulting the triangle
// array, then a sequential phase commits the chosen splits to tree nodes.
//
// The paper's kD-tree findings that the layouts reproduce:
//   - the edges array is huge and streamed read-once per phase (L2
//     response bypass type 2), and its records are 48 bytes, so useful
//     fields straddle line boundaries;
//   - the edges communication region spans two consecutive records (Flex
//     prefetching of the predictable stream), which with the 64-byte
//     packet cap forces some lines to be fetched twice from memory —
//     the Excess waste of Figure 5.3c;
//   - the triangles array is randomly accessed, and only half of each
//     record is needed during the sweep (Flex), so bypassing edges leaves
//     it more L2 room (§5.2.1).
type KDTree struct {
	shape
	tris  int
	edges int
	triR  uint8
	edgeR uint8
	sahR  uint8
	nodeR uint8
}

const (
	kdTriWords  = 16 // 64B triangle record; sweep uses the first 8 words
	kdEdgeWords = 12 // 48B edge record; 8 useful words + padding
)

// NewKDTree builds the kD-tree benchmark at the given scale.
func NewKDTree(size Size, threads int) *KDTree {
	var tris int
	switch size {
	case Tiny:
		tris = 1024
	case Small:
		tris = 8 * 1024
	default:
		tris = 64 * 1024 // ~bunny scale
	}
	k := &KDTree{tris: tris, edges: 2 * tris, shape: shape{
		name: "kD-tree", threads: threads,
		phases: 2 * 4, // (sweep, commit) x (1 warm-up + the paper's 3 measured iterations, §4.3)
		warmup: 2,     // the warm-up iteration
	}}
	triComm := make([]uint16, 8)
	for i := range triComm {
		triComm[i] = uint16(i)
	}
	// Edge communication region: the useful fields of this record plus the
	// next record (stream prefetch) — 16 words, exactly the 64B packet cap.
	edgeComm := make([]uint16, 0, 16)
	for i := 0; i < 8; i++ {
		edgeComm = append(edgeComm, uint16(i))
	}
	for i := 0; i < 8; i++ {
		edgeComm = append(edgeComm, uint16(kdEdgeWords+i))
	}
	k.triR = k.lay.add("triangles", uint32(tris)*kdTriWords*4,
		regionOpts{strideWords: kdTriWords, comm: triComm})
	k.edgeR = k.lay.add("edges", uint32(k.edges)*kdEdgeWords*4,
		regionOpts{strideWords: kdEdgeWords, comm: edgeComm, bypass: true})
	k.sahR = k.lay.add("sah", uint32(threads)*256*4, regionOpts{})
	k.nodeR = k.lay.add("nodes", 64*1024, regionOpts{})
	return k
}

// WrittenRegions implements memsys.Program.
func (k *KDTree) WrittenRegions(p int) []uint8 {
	if p%2 == 0 {
		return []uint8{k.sahR}
	}
	return []uint8{k.nodeR}
}

func (k *KDTree) edgeAddr(i, word int) uint32 {
	return k.lay.base(k.edgeR) + uint32(i*kdEdgeWords+word)*4
}

func (k *KDTree) triAddr(i, word int) uint32 {
	return k.lay.base(k.triR) + uint32(i*kdTriWords+word)*4
}

// EmitOps implements memsys.Program.
func (k *KDTree) EmitOps(p, t int, emit func(memsys.Op)) {
	e := emitter{emit}
	it := p / 2
	if p%2 == 0 { // SAH sweep
		lo, hi := span(k.edges, k.threads, t)
		rng := newRNG(0xd7ee<<4 + uint64(it*131+t))
		for i := lo; i < hi; i++ {
			e.loadWords(k.edgeAddr(i, 0), 8) // stream useful edge fields
			if i%2 == 0 {
				// Consult the triangle this event belongs to (random order).
				tri := rng.intn(k.tris)
				e.loadWords(k.triAddr(tri, 0), 8)
				e.compute(6)
			}
		}
		// Flush per-thread SAH accumulators.
		e.storeWords(k.lay.base(k.sahR)+uint32(t)*256*4, 256)
	} else { // commit splits (sequential)
		if t != 0 {
			return
		}
		e.loadWords(k.lay.base(k.sahR), k.threads*256)
		e.compute(512)
		e.storeWords(k.lay.base(k.nodeR)+uint32(it%4)*4096, 1024)
	}
}
