package workloads

// Synthetic traffic patterns: the standard NoC stress suite (uniform
// random, transpose, bit-complement, hotspot, nearest-neighbor,
// producer/consumer), each expressed as a data-race-free memsys.Program so
// it runs under every protocol spec with full waste attribution, not just
// as raw packet injection.
//
// All patterns share one shape. A single "data" region holds linesPer
// cache lines per thread, interleaved so thread t owns lines congruent to
// t modulo the thread count — with the paper's 16 threads on 16 tiles,
// thread t's lines are homed at tile t's L2 slice, so a pattern's
// (consumer -> owner) map is exactly its (node -> destination tile)
// traffic map. Phases alternate:
//
//	produce: every writer overwrites all words of its own lines
//	         (store traffic; MESI's fetch-on-write is pure Write waste),
//	consume: every consumer reads the first readWords words of each line
//	         its pattern maps it to (load traffic toward the owners'
//	         tiles; the unread words are Fetch waste).
//
// The region is annotated like the ported benchmarks — line-sized elements
// whose communication region is the consumed half (Flex), marked
// read-then-overwritten (L2 bypass) — so the full optimization ladder has
// traction on synthetic traffic too. Threads idle in a phase (consumers
// while producing, producers while consuming, and in prodcons the
// non-writers) emit matching compute so barriers stay balanced.
//
// The injection-rate parameter p inserts round(1/p)-1 compute cycles after
// each line's burst, approximating one request packet per 1/p cycles per
// active thread. Everything is precomputed at construction: EmitOps is a
// pure read of frozen state, as the engine and the DRF fuzz target
// require.

import (
	"fmt"

	"repro/internal/memsys"
)

// synthDims returns (linesPer, iters) for an input scale.
func synthDims(size Size) (int, int) {
	switch size {
	case Tiny:
		return 16, 2
	case Small:
		return 64, 3
	default:
		return 256, 4
	}
}

// synthReadWords is how many leading words of a line consumers read; the
// rest of the fetched line is attributable waste.
const synthReadWords = memsys.WordsPerLine / 2

// synthetic implements memsys.Program for all registered patterns.
type synthetic struct {
	shape
	data     uint8
	linesPer int
	gap      int         // compute cycles after each line burst
	writer   []bool      // per thread: writes during produce phases
	dests    [][][]int32 // [iter][thread] -> global line indexes to consume
}

// lineIndex returns the region-relative line index of owner o's j-th line.
func (s *synthetic) lineIndex(o, j int) int32 { return int32(j*s.threads + o) }

func (s *synthetic) lineAddr(idx int32) uint32 {
	return s.lay.base(s.data) + uint32(idx)*memsys.LineBytes
}

// newSynthetic builds the shared skeleton; callers fill dests and writer.
func newSynthetic(name string, size Size, threads int, rate float64) *synthetic {
	linesPer, iters := synthDims(size)
	s := &synthetic{
		shape: shape{
			name: name, threads: threads,
			phases: 1 + 2*iters, // warm-up, then produce/consume per iteration
			warmup: 1,
		},
		linesPer: linesPer,
		gap:      int(1/rate+0.5) - 1,
	}
	var comm []uint16
	for w := 0; w < synthReadWords; w++ {
		comm = append(comm, uint16(w))
	}
	s.data = s.lay.add("data", uint32(threads*linesPer)*memsys.LineBytes, regionOpts{
		strideWords: memsys.WordsPerLine,
		comm:        comm,
		bypass:      true,
	})
	s.writer = make([]bool, threads)
	for t := range s.writer {
		s.writer[t] = true
	}
	s.dests = make([][][]int32, iters)
	for i := range s.dests {
		s.dests[i] = make([][]int32, threads)
	}
	return s
}

// allLinesOf maps consumer t to every line of one owner, per iteration.
func (s *synthetic) allLinesOf(owner func(t int) int) {
	for i := range s.dests {
		for t := 0; t < s.threads; t++ {
			o := owner(t)
			lines := make([]int32, s.linesPer)
			for j := range lines {
				lines[j] = s.lineIndex(o, j)
			}
			s.dests[i][t] = lines
		}
	}
}

// WrittenRegions implements memsys.Program: produce phases dirty the data
// region (DeNovo self-invalidates it at their closing barriers).
func (s *synthetic) WrittenRegions(p int) []uint8 {
	if p >= 1 && p%2 == 1 {
		return []uint8{s.data}
	}
	return nil
}

// idleCycles approximates one phase of active work, so idle threads reach
// the barrier on a comparable clock instead of instantly.
func (s *synthetic) idleCycles() int { return s.linesPer * (s.gap + 4) }

// EmitOps implements memsys.Program.
func (s *synthetic) EmitOps(p, t int, emit func(memsys.Op)) {
	e := emitter{emit}
	switch {
	case p == 0: // warm-up: thread 0 touches one word per line.
		if t != 0 {
			return
		}
		for off := uint32(0); off < s.lay.next; off += memsys.LineBytes {
			e.load(off)
		}
	case p%2 == 1: // produce
		if !s.writer[t] {
			e.compute(s.idleCycles())
			return
		}
		for j := 0; j < s.linesPer; j++ {
			e.storeWords(s.lineAddr(s.lineIndex(t, j)), memsys.WordsPerLine)
			e.compute(s.gap)
		}
	default: // consume
		lines := s.dests[(p-2)/2][t]
		if len(lines) == 0 {
			e.compute(s.idleCycles())
			return
		}
		for _, idx := range lines {
			e.loadWords(s.lineAddr(idx), synthReadWords)
			e.compute(s.gap)
		}
	}
}

// isqrt returns the integer square root of n.
func isqrt(n int) int {
	r := 0
	for (r+1)*(r+1) <= n {
		r++
	}
	return r
}

// isPow2 reports whether n is a power of two.
func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// checkRate validates an injection-rate parameter. The lower bound keeps
// the derived compute gap (~1/p cycles) inside both int range and a
// simulatable phase length; below it, 1/p would overflow the float-to-int
// conversion and silently invert the knob.
func checkRate(spec string, p float64) error {
	if p < 1e-4 || p > 1 {
		return fmt.Errorf("workloads: %s: injection rate p = %g outside [0.0001, 1]", spec, p)
	}
	return nil
}

// syntheticSpecs returns the synthetic-pattern registry entries in
// canonical order; spec.go registers them after the benchmarks.
func syntheticSpecs() []specDef {
	return []specDef{{
		name: "uniform", synthetic: true,
		params: []paramDef{{key: "p", def: "0.05", desc: "injection rate (line bursts per cycle per thread)"}},
		desc:   "uniform-random traffic: every consumer reads lines of uniformly drawn owners",
		build: func(canonical string, args []string, size Size, threads int) (memsys.Program, error) {
			p := argFloat(args, 0)
			if err := checkRate(canonical, p); err != nil {
				return nil, err
			}
			s := newSynthetic(canonical, size, threads, p)
			r := newRNG(0x756e69 ^ uint64(threads)<<8 ^ uint64(size))
			for i := range s.dests {
				for t := 0; t < threads; t++ {
					lines := make([]int32, s.linesPer)
					for j := range lines {
						lines[j] = s.lineIndex(r.intn(threads), r.intn(s.linesPer))
					}
					s.dests[i][t] = lines
				}
			}
			return s, nil
		},
	}, {
		name: "transpose", synthetic: true,
		params: []paramDef{{key: "p", def: "0.05", desc: "injection rate"}},
		desc:   "matrix-transpose traffic: node (x,y) consumes from (y,x); index reversal when the thread count is not a square",
		build: func(canonical string, args []string, size Size, threads int) (memsys.Program, error) {
			p := argFloat(args, 0)
			if err := checkRate(canonical, p); err != nil {
				return nil, err
			}
			s := newSynthetic(canonical, size, threads, p)
			side := isqrt(threads)
			s.allLinesOf(func(t int) int {
				if side*side == threads {
					return (t % side * side) + t/side
				}
				return threads - 1 - t
			})
			return s, nil
		},
	}, {
		name: "bitcomp", synthetic: true,
		params: []paramDef{{key: "p", def: "0.05", desc: "injection rate"}},
		desc:   "bit-complement traffic: thread t consumes from ^t (index reversal for non-power-of-two counts)",
		build: func(canonical string, args []string, size Size, threads int) (memsys.Program, error) {
			p := argFloat(args, 0)
			if err := checkRate(canonical, p); err != nil {
				return nil, err
			}
			s := newSynthetic(canonical, size, threads, p)
			s.allLinesOf(func(t int) int {
				if isPow2(threads) {
					return ^t & (threads - 1)
				}
				return threads - 1 - t
			})
			return s, nil
		},
	}, {
		name: "hotspot", synthetic: true,
		params: []paramDef{
			{key: "t", def: "4", desc: "hot tiles: consumers read only lines homed at the first t tiles"},
			{key: "p", def: "0.05", desc: "injection rate"},
		},
		desc: "hotspot traffic: all consumers hammer the first t tiles' lines",
		build: func(canonical string, args []string, size Size, threads int) (memsys.Program, error) {
			h, p := argInt(args, 0), argFloat(args, 1)
			if err := checkRate(canonical, p); err != nil {
				return nil, err
			}
			if h < 1 {
				return nil, fmt.Errorf("workloads: %s: hot-tile count t = %d must be >= 1", canonical, h)
			}
			if h > threads {
				h = threads
			}
			s := newSynthetic(canonical, size, threads, p)
			for i := range s.dests {
				for t := 0; t < threads; t++ {
					lines := make([]int32, s.linesPer)
					for j := range lines {
						lines[j] = s.lineIndex((t+j+i)%h, j)
					}
					s.dests[i][t] = lines
				}
			}
			return s, nil
		},
	}, {
		name: "neighbor", synthetic: true,
		params: []paramDef{{key: "p", def: "0.05", desc: "injection rate"}},
		desc:   "nearest-neighbor traffic: thread t consumes from thread t+1 (mod threads)",
		build: func(canonical string, args []string, size Size, threads int) (memsys.Program, error) {
			p := argFloat(args, 0)
			if err := checkRate(canonical, p); err != nil {
				return nil, err
			}
			s := newSynthetic(canonical, size, threads, p)
			s.allLinesOf(func(t int) int { return (t + 1) % threads })
			return s, nil
		},
	}, {
		name: "prodcons", synthetic: true,
		params: []paramDef{
			{key: "groups", def: "4", desc: "sharing groups; in each, the first half produce and the rest consume"},
			{key: "p", def: "0.05", desc: "injection rate"},
		},
		desc: "producer/consumer traffic: disjoint groups, consumers cycle over their group's producers",
		build: func(canonical string, args []string, size Size, threads int) (memsys.Program, error) {
			g, p := argInt(args, 0), argFloat(args, 1)
			if err := checkRate(canonical, p); err != nil {
				return nil, err
			}
			if g < 1 {
				return nil, fmt.Errorf("workloads: %s: groups = %d must be >= 1", canonical, g)
			}
			if g > threads {
				g = threads
			}
			s := newSynthetic(canonical, size, threads, p)
			gs := (threads + g - 1) / g
			for t := range s.writer {
				s.writer[t] = t%gs < (gs+1)/2 // first half of each group produces
			}
			for i := range s.dests {
				for t := 0; t < threads; t++ {
					if s.writer[t] {
						continue // producers do not consume
					}
					lo := t / gs * gs
					var prods []int
					for m := lo; m < lo+gs && m < threads; m++ {
						if s.writer[m] {
							prods = append(prods, m)
						}
					}
					if len(prods) == 0 {
						continue
					}
					lines := make([]int32, s.linesPer)
					for j := range lines {
						lines[j] = s.lineIndex(prods[(t+j)%len(prods)], j)
					}
					s.dests[i][t] = lines
				}
			}
			return s, nil
		},
	}}
}
