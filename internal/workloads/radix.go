package workloads

import "repro/internal/memsys"

// Radix models the SPLASH-2 radix sort (Table 4.2: 4M keys, radix 1024).
// Each iteration sorts by one 10-bit digit: a histogram phase streams the
// keys, a scan phase (thread 0) turns per-thread histograms into global
// offsets, and a permutation phase streams the keys again and scatters
// them into the destination array. Source and destination swap between
// iterations. The generator computes the real permutation so iteration
// n+1 sees the key order iteration n produced, and so concurrent writers
// never touch the same address (data-race free).
//
// The patterns the paper attributes radix's results to:
//   - the permutation writes randomly across 1024 buckets, far more lines
//     than the L1 (or DeNovo's 32-entry write-combining table) can hold,
//     so MESI fetch-on-write produces Write+Evict waste and DeNovo issues
//     extra registration control traffic (§5.2.2),
//   - both arrays are streamed read-once when acting as the source
//     (L2 response bypass type 2).
type Radix struct {
	shape
	n       int
	arr     [2]uint8 // ping-pong key arrays
	hist    uint8
	offsets uint8

	// keyOrder[it][i] is the key value at position i at the start of
	// iteration it; rank[it][i] is where position i's key lands.
	keys  [][]uint32
	ranks [][]int32
}

const radixBits = 10
const radixBuckets = 1 << radixBits
const radixIters = 2 // sort passes: one warm-up pass plus one measured pass (§4.3)

// NewRadix builds the radix benchmark at the given scale.
func NewRadix(size Size, threads int) *Radix {
	var n int
	switch size {
	case Tiny:
		n = 16 * 1024
	case Small:
		n = 256 * 1024
	default:
		n = 4 * 1024 * 1024 // paper
	}
	r := &Radix{n: n, shape: shape{
		name: "radix", threads: threads,
		phases: 3 * radixIters, // histogram, scan, permute per sort pass
		warmup: 3,              // the first sort pass
	}}
	arrBytes := uint32(n) * 4
	r.arr[0] = r.lay.add("keys0", arrBytes, regionOpts{strideWords: 1, bypass: true})
	r.arr[1] = r.lay.add("keys1", arrBytes, regionOpts{strideWords: 1, bypass: true})
	r.hist = r.lay.add("hist", uint32(threads)*radixBuckets*4, regionOpts{})
	r.offsets = r.lay.add("offsets", uint32(threads)*radixBuckets*4, regionOpts{})
	r.precompute()
	return r
}

// precompute materializes keys and destination ranks for every iteration.
func (r *Radix) precompute() {
	r.keys = make([][]uint32, radixIters+1)
	r.ranks = make([][]int32, radixIters)
	cur := make([]uint32, r.n)
	rng := newRNG(0xace5)
	for i := range cur {
		cur[i] = uint32(rng.next()) & (1<<(radixBits*2) - 1)
	}
	r.keys[0] = cur
	for it := 0; it < radixIters; it++ {
		shift := uint(radixBits * it)
		// Per-thread bucket counts in thread-major order, as the scan
		// phase defines them.
		starts := make([]int32, r.threads*radixBuckets)
		for t := 0; t < r.threads; t++ {
			lo, hi := span(r.n, r.threads, t)
			for i := lo; i < hi; i++ {
				b := int(cur[i]>>shift) & (radixBuckets - 1)
				starts[b*r.threads+t]++
			}
		}
		var sum int32
		for i := range starts {
			c := starts[i]
			starts[i] = sum
			sum += c
		}
		rank := make([]int32, r.n)
		next := append([]int32(nil), starts...)
		for t := 0; t < r.threads; t++ {
			lo, hi := span(r.n, r.threads, t)
			for i := lo; i < hi; i++ {
				b := int(cur[i]>>shift) & (radixBuckets - 1)
				rank[i] = next[b*r.threads+t]
				next[b*r.threads+t]++
			}
		}
		r.ranks[it] = rank
		out := make([]uint32, r.n)
		for i, p := range rank {
			out[p] = cur[i]
		}
		cur = out
		r.keys[it+1] = cur
	}
}

// WrittenRegions implements memsys.Program.
func (r *Radix) WrittenRegions(p int) []uint8 {
	it, ph := p/3, p%3
	switch ph {
	case 0:
		return []uint8{r.hist}
	case 1:
		return []uint8{r.offsets}
	default:
		return []uint8{r.arr[(it+1)%2]}
	}
}

// EmitOps implements memsys.Program.
func (r *Radix) EmitOps(p, t int, emit func(memsys.Op)) {
	e := emitter{emit}
	it, ph := p/3, p%3
	src := r.lay.base(r.arr[it%2])
	dst := r.lay.base(r.arr[(it+1)%2])
	lo, hi := span(r.n, r.threads, t)
	switch ph {
	case 0: // histogram: stream keys, flush local counts at the end
		for i := lo; i < hi; i++ {
			e.load(src + uint32(i)*4)
			if i%16 == 15 {
				e.compute(8)
			}
		}
		histBase := r.lay.base(r.hist) + uint32(t)*radixBuckets*4
		e.storeWords(histBase, radixBuckets)
	case 1: // scan (thread 0): read all histograms, write all offsets
		if t != 0 {
			return
		}
		e.loadWords(r.lay.base(r.hist), r.threads*radixBuckets)
		e.compute(radixBuckets)
		e.storeWords(r.lay.base(r.offsets), r.threads*radixBuckets)
	case 2: // permutation: stream source, scatter into destination
		rank := r.ranks[it]
		// Each thread reads its offsets row once.
		e.loadWords(r.lay.base(r.offsets)+uint32(t)*radixBuckets*4, radixBuckets)
		for i := lo; i < hi; i++ {
			e.load(src + uint32(i)*4)
			e.store(dst + uint32(rank[i])*4)
		}
	}
}

// KeysAt exposes the key array contents at the start of iteration it, for
// tests that validate the permutation is a real sort.
func (r *Radix) KeysAt(it int) []uint32 { return r.keys[it] }
