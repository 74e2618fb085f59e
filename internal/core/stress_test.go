package core_test

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/memsys"
	"repro/internal/trace"
)

// newRandTrace generates a random data-race-free program: each phase
// partitions a pool of "objects" (small address blocks) among threads for
// writing, while reads may target anything written in an earlier phase or
// owned this phase. It deliberately exercises cross-phase ownership
// migration, false-sharing-shaped layouts (objects smaller than lines),
// scattered stores, and region annotations (Flex + bypass) — the paths
// where protocol races hide.
func newRandTrace(seed int64) *trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	phases := 3 + rng.Intn(4)
	objs := 32 + rng.Intn(64)
	objWords := 3 + rng.Intn(10) // objects straddle lines
	foot := uint32(objs*objWords*4+memsys.LineBytes) &^ (memsys.LineBytes - 1)
	// Two regions covering the pool: one annotated for Flex+bypass, one
	// plain, so every protocol feature is exercised.
	half := (foot / 2) &^ (memsys.LineBytes - 1)
	tr := opsTrace("stress", foot, []memsys.Region{
		{ID: 1, Name: "flexed", Base: 0, Size: half,
			StrideWords: uint16(objWords), CommOffsets: []uint16{0, 1}, Bypass: true},
		{ID: 2, Name: "plain", Base: half, Size: foot - half},
	}, make([][][]memsys.Op, phases))

	objAddr := func(o, w int) uint32 { return uint32((o*objWords + w) * 4) }
	for ph := range tr.Ops {
		tr.Ops[ph] = make([][]memsys.Op, tr.Threads)
		// Per phase: a subset of objects is writable, each by exactly one
		// owner; everything else is read-only for everyone. That makes
		// race-freedom a construction invariant.
		owner := make([]int, objs)
		writable := make([]bool, objs)
		for o := range owner {
			owner[o] = rng.Intn(tr.Threads)
			writable[o] = rng.Intn(2) == 0
		}
		for th := 0; th < tr.Threads; th++ {
			var ops []memsys.Op
			for n := 0; n < 20+rng.Intn(40); n++ {
				o := rng.Intn(objs)
				w := rng.Intn(objWords)
				a := objAddr(o, w)
				if int(a) >= int(foot) {
					continue
				}
				switch {
				case writable[o] && owner[o] == th && rng.Intn(2) == 0:
					ops = append(ops, memsys.Op{Kind: memsys.OpStore, Addr: a})
				case !writable[o] || owner[o] == th:
					ops = append(ops, memsys.Op{Kind: memsys.OpLoad, Addr: a})
				default:
					ops = append(ops, memsys.Op{Kind: memsys.OpCompute, Cycles: uint16(1 + rng.Intn(5))})
				}
			}
			tr.Ops[ph][th] = ops
		}
	}
	return tr
}

// newRandProgram runs newRandTrace's program.
func newRandProgram(seed int64) memsys.Program { return trace.NewProgram(newRandTrace(seed), "") }

// opsTrace wraps the op streams ops ([phase][thread]) as a 16-thread
// trace with one warm-up phase. Conservatively, every phase may write
// regions 1 and 2.
func opsTrace(name string, foot uint32, regions []memsys.Region, ops [][][]memsys.Op) *trace.Trace {
	tr := &trace.Trace{Name: name, Threads: 16, Footprint: foot, Warmup: 1, Regions: regions, Ops: ops}
	tr.Written = make([][]uint8, len(ops))
	for ph := range tr.Written {
		tr.Written[ph] = []uint8{1, 2}
	}
	return tr
}

// verifyDRF asserts the generator's own race-freedom (belt and braces:
// the oracle depends on it).
func verifyDRF(t *testing.T, tr *trace.Trace) {
	t.Helper()
	for ph, streams := range tr.Ops {
		writer := map[uint32]int{}
		for th, ops := range streams {
			for _, op := range ops {
				if op.Kind == memsys.OpStore {
					if w, ok := writer[op.Addr]; ok && w != th {
						t.Fatalf("generator raced: phase %d addr %#x threads %d/%d", ph, op.Addr, w, th)
					}
					writer[op.Addr] = th
				}
			}
		}
		for th, ops := range streams {
			for _, op := range ops {
				if op.Kind == memsys.OpLoad {
					if w, ok := writer[op.Addr]; ok && w != th {
						t.Fatalf("generator read-write raced: phase %d addr %#x", ph, op.Addr)
					}
				}
			}
		}
	}
}

// TestStressRandomDRFPrograms runs randomly generated race-free programs
// under every protocol configuration with the load-value oracle active.
// This is the broadest race hunt in the suite: ownership migrates between
// cores at random, objects straddle lines, bypass and Flex regions mix
// with plain ones, and tiny caches force constant evictions and recalls.
// Seeds -7 and -80 broke DeNovo's bypass variants (memory shipped a word
// that was dirty on chip; an MSHR closed while a load still waited), and
// seed 9 takes the path that re-requests such a load's word; the short
// set keeps all three.
func TestStressRandomDRFPrograms(t *testing.T) {
	seeds := []int64{1, 7, -7, -80, 9, 42, 1337, 90210}
	if testing.Short() {
		seeds = seeds[:5]
	}
	cfg := memsys.Default().Scaled(64)
	for _, seed := range seeds {
		tr := newRandTrace(seed)
		verifyDRF(t, tr)
		prog := trace.NewProgram(tr, "")
		for _, proto := range core.ProtocolNames() {
			res, err := core.RunOne(context.Background(), cfg, proto, prog)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if res.ExecCycles <= 0 {
				t.Fatalf("seed %d %s: no execution", seed, proto)
			}
		}
	}
}

// TestStressScatteredFootprint drives extreme set pressure: every object
// maps to the same L2 slice set so eviction/recall/refill paths churn.
func TestStressScatteredFootprint(t *testing.T) {
	cfg := memsys.Default().Scaled(64)
	// 40 lines, all home slice 2, all set 2 (line = 16k+2, set=(16k+2)&3=2).
	const lines = 40
	phases := make([][][]memsys.Op, 4)
	for ph := range phases {
		phases[ph] = make([][]memsys.Op, 16)
		for i := 0; i < lines; i++ {
			core := (i + ph) % 16
			addr := uint32(16*i+2) * 64
			if ph%2 == 0 {
				phases[ph][core] = append(phases[ph][core],
					memsys.Op{Kind: memsys.OpStore, Addr: addr},
					memsys.Op{Kind: memsys.OpStore, Addr: addr + 4})
			} else {
				phases[ph][core] = append(phases[ph][core],
					memsys.Op{Kind: memsys.OpLoad, Addr: addr})
			}
		}
	}
	foot := uint32(16*lines+4) * 64
	prog := trace.NewProgram(opsTrace("setstorm", foot,
		[]memsys.Region{{ID: 1, Name: "all", Base: 0, Size: foot}}, phases), "")
	for _, proto := range []string{"MESI", "MMemL1", "DeNovo", "DValidateL2", "DBypFull"} {
		if _, err := core.RunOne(context.Background(), cfg, proto, prog); err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
	}
}

// TestStoreBufferBackpressure fills MESI's 32-entry store buffer and
// verifies the driver's stall/unstall path completes with correct values.
func TestStoreBufferBackpressure(t *testing.T) {
	cfg := memsys.Default().Scaled(64)
	phases := make([][][]memsys.Op, 2)
	phases[0] = make([][]memsys.Op, 16)
	phases[1] = make([][]memsys.Op, 16)
	// One core issues 200 stores to distinct lines back-to-back: far more
	// than the buffer holds, so the driver must block and resume.
	for i := 0; i < 200; i++ {
		phases[0][3] = append(phases[0][3], memsys.Op{Kind: memsys.OpStore, Addr: uint32(i) * 64})
		phases[1][3] = append(phases[1][3], memsys.Op{Kind: memsys.OpLoad, Addr: uint32(i) * 64})
	}
	foot := uint32(200) * 64
	prog := trace.NewProgram(opsTrace("sbfull", foot,
		[]memsys.Region{{ID: 1, Name: "all", Base: 0, Size: foot}}, phases), "")
	if _, err := core.RunOne(context.Background(), cfg, "MESI", prog); err != nil {
		t.Fatal(err)
	}
	if _, err := core.RunOne(context.Background(), cfg, "MMemL1", prog); err != nil {
		t.Fatal(err)
	}
}
