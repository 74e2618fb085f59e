package workloads

import "repro/internal/memsys"

// FFT models the SPLASH-2 six-step FFT (Table 4.2: 256K points): rows of a
// sqrt(n) x sqrt(n) matrix of complex doubles get local FFTs, then the
// matrix is transposed into a destination array, then the destination rows
// get local FFTs.
//
// The patterns the paper attributes FFT's results to:
//   - the transpose reads each source element exactly once (L2 response
//     bypass, "read once in the current phase"),
//   - the in-place row FFTs read then overwrite the same addresses (bypass
//     type 1),
//   - the destination array is overwritten before being read, so MESI's
//     fetch-on-write moves data that is pure Write waste, eliminated by
//     write-validate,
//   - the destination is reused by the following phase, so it must not be
//     bypassed.
type FFT struct {
	shape
	m   int // matrix dimension; n = m*m points
	src uint8
	dst uint8
}

// Complex double: 16 bytes = 4 words.
const fftElemWords = 4

// NewFFT builds the FFT benchmark at the given scale.
func NewFFT(size Size, threads int) *FFT {
	var m int
	switch size {
	case Tiny:
		m = 32 // 1K points
	case Small:
		m = 128 // 16K points
	default:
		m = 512 // 256K points (paper)
	}
	f := &FFT{m: m, shape: shape{
		name: "FFT", threads: threads,
		phases: 4, // warm-up read, row FFTs, transpose, destination row FFTs
		warmup: 1, // FFT is not iterative, so one core touches the major structures (§4.3)
	}}
	bytes := uint32(m) * uint32(m) * fftElemWords * 4
	f.src = f.lay.add("src", bytes, regionOpts{strideWords: fftElemWords, bypass: true})
	f.dst = f.lay.add("dst", bytes, regionOpts{strideWords: fftElemWords})
	return f
}

// WrittenRegions implements memsys.Program.
func (f *FFT) WrittenRegions(p int) []uint8 {
	switch p {
	case 1:
		return []uint8{f.src}
	case 2, 3:
		return []uint8{f.dst}
	}
	return nil
}

func (f *FFT) elem(region uint8, row, col int) uint32 {
	return f.lay.base(region) + uint32(row*f.m+col)*fftElemWords*4
}

// EmitOps implements memsys.Program.
func (f *FFT) EmitOps(p, t int, emit func(memsys.Op)) {
	e := emitter{emit}
	lo, hi := span(f.m, f.threads, t)
	switch p {
	case 0: // warm-up: thread 0 touches one word per line of src and dst.
		if t != 0 {
			return
		}
		for off := uint32(0); off < f.lay.next; off += memsys.LineBytes {
			e.load(off)
		}
	case 1: // local FFTs over source rows (read-modify-write in place)
		for r := lo; r < hi; r++ {
			f.rowFFT(e, f.src, r)
		}
	case 2: // transpose: stream rows of src, scatter into columns of dst
		for r := lo; r < hi; r++ {
			for c := 0; c < f.m; c++ {
				e.loadWords(f.elem(f.src, r, c), fftElemWords)
				e.compute(2)
				e.storeWords(f.elem(f.dst, c, r), fftElemWords)
			}
		}
	case 3: // local FFTs over destination rows
		for r := lo; r < hi; r++ {
			f.rowFFT(e, f.dst, r)
		}
	}
}

// rowFFT reads a whole row, computes, and overwrites it.
func (f *FFT) rowFFT(e emitter, region uint8, row int) {
	for c := 0; c < f.m; c++ {
		e.loadWords(f.elem(region, row, c), fftElemWords)
	}
	e.compute(4 * f.m) // ~ m log m butterfly work, abstracted
	for c := 0; c < f.m; c++ {
		e.storeWords(f.elem(region, row, c), fftElemWords)
	}
}
