package core_test

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/memsys"
	"repro/internal/workloads"
)

// randProgram is a randomly generated data-race-free program: each phase
// partitions a pool of "objects" (small address blocks) among threads for
// writing, while reads may target anything written in an earlier phase or
// owned this phase. It deliberately exercises cross-phase ownership
// migration, false-sharing-shaped layouts (objects smaller than lines),
// scattered stores, and region annotations (Flex + bypass) — the paths
// where protocol races hide.
type randProgram struct {
	name     string
	threads  int
	phases   int
	objs     int
	objWords int
	foot     uint32
	regions  []memsys.Region
	ops      [][][]memsys.Op // [phase][thread]
}

func newRandProgram(seed int64) *randProgram {
	rng := rand.New(rand.NewSource(seed))
	p := &randProgram{
		name:     "stress",
		threads:  16,
		phases:   3 + rng.Intn(4),
		objs:     32 + rng.Intn(64),
		objWords: 3 + rng.Intn(10), // objects straddle lines
	}
	p.foot = uint32(p.objs*p.objWords*4+memsys.LineBytes) &^ (memsys.LineBytes - 1)
	// Two regions covering the pool: one annotated for Flex+bypass, one
	// plain, so every protocol feature is exercised.
	half := (p.foot / 2) &^ (memsys.LineBytes - 1)
	p.regions = []memsys.Region{
		{ID: 1, Name: "flexed", Base: 0, Size: half,
			StrideWords: uint16(p.objWords), CommOffsets: []uint16{0, 1}, Bypass: true},
		{ID: 2, Name: "plain", Base: half, Size: p.foot - half},
	}

	objAddr := func(o, w int) uint32 { return uint32((o*p.objWords + w) * 4) }
	p.ops = make([][][]memsys.Op, p.phases)
	for ph := 0; ph < p.phases; ph++ {
		p.ops[ph] = make([][]memsys.Op, p.threads)
		// Per phase: a subset of objects is writable, each by exactly one
		// owner; everything else is read-only for everyone. That makes
		// race-freedom a construction invariant.
		owner := make([]int, p.objs)
		writable := make([]bool, p.objs)
		for o := range owner {
			owner[o] = rng.Intn(p.threads)
			writable[o] = rng.Intn(2) == 0
		}
		for th := 0; th < p.threads; th++ {
			var ops []memsys.Op
			for n := 0; n < 20+rng.Intn(40); n++ {
				o := rng.Intn(p.objs)
				w := rng.Intn(p.objWords)
				a := objAddr(o, w)
				if int(a) >= int(p.foot) {
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
			p.ops[ph][th] = ops
		}
	}
	return p
}

func (p *randProgram) Name() string             { return p.name }
func (p *randProgram) Threads() int             { return p.threads }
func (p *randProgram) FootprintBytes() uint32   { return p.foot }
func (p *randProgram) Regions() []memsys.Region { return p.regions }
func (p *randProgram) Phases() int              { return p.phases }
func (p *randProgram) WarmupPhases() int        { return 1 }
func (p *randProgram) WrittenRegions(ph int) []uint8 {
	// Conservative: both regions may be written every phase.
	return []uint8{1, 2}
}
func (p *randProgram) EmitOps(ph, th int, emit func(memsys.Op)) {
	for _, op := range p.ops[ph][th] {
		emit(op)
	}
}

// verifyDRF asserts the generator's own race-freedom (belt and braces:
// the oracle depends on it).
func verifyDRF(t *testing.T, p *randProgram) {
	t.Helper()
	for ph := 0; ph < p.phases; ph++ {
		writer := map[uint32]int{}
		for th := 0; th < p.threads; th++ {
			for _, op := range p.ops[ph][th] {
				if op.Kind == memsys.OpStore {
					if w, ok := writer[op.Addr]; ok && w != th {
						t.Fatalf("generator raced: phase %d addr %#x threads %d/%d", ph, op.Addr, w, th)
					}
					writer[op.Addr] = th
				}
			}
		}
		for th := 0; th < p.threads; th++ {
			for _, op := range p.ops[ph][th] {
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
func TestStressRandomDRFPrograms(t *testing.T) {
	seeds := []int64{1, 7, 42, 1337, 90210}
	if testing.Short() {
		seeds = seeds[:2]
	}
	cfg := memsys.Default().Scaled(64)
	for _, seed := range seeds {
		prog := newRandProgram(seed)
		verifyDRF(t, prog)
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
	prog := &randProgram{
		name: "setstorm", threads: 16, phases: 4,
		foot:    foot,
		regions: []memsys.Region{{ID: 1, Name: "all", Base: 0, Size: foot}},
		ops:     phases,
	}
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
	prog := &randProgram{
		name: "sbfull", threads: 16, phases: 2, foot: foot,
		regions: []memsys.Region{{ID: 1, Name: "all", Base: 0, Size: foot}},
		ops:     phases,
	}
	if _, err := core.RunOne(context.Background(), cfg, "MESI", prog); err != nil {
		t.Fatal(err)
	}
	if _, err := core.RunOne(context.Background(), cfg, "MMemL1", prog); err != nil {
		t.Fatal(err)
	}
}

var _ = workloads.Tiny // keep the import available for future stress variants
