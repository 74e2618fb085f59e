package mesi_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/memsys"
	"repro/internal/mesi"
	"repro/internal/trace"
	"repro/internal/workloads"
)

func testConfig() memsys.Config { return memsys.Default().Scaled(64) }

func runProgram(t *testing.T, prog memsys.Program, opt mesi.Options) (*memsys.Env, *mesi.System, *core.Runner) {
	t.Helper()
	env, err := memsys.NewEnv(testConfig(), prog.FootprintBytes(), prog.Regions())
	if err != nil {
		t.Fatal(err)
	}
	sys := mesi.New(env, opt)
	r := core.NewRunner(env, sys, prog)
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if err := sys.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return env, sys, r
}

func ld(addr uint32) memsys.Op { return memsys.Op{Kind: memsys.OpLoad, Addr: addr} }
func st(addr uint32) memsys.Op { return memsys.Op{Kind: memsys.OpStore, Addr: addr} }

// script is a directed scenario: per-phase op tables for 16 threads over
// one region, with no warm-up and no written regions.
func script(name string, foot uint32, phases [][][]memsys.Op) memsys.Program {
	return trace.NewProgram(&trace.Trace{
		Name: name, Threads: 16, Footprint: foot,
		Regions: []memsys.Region{{ID: 1, Name: "all", Base: 0, Size: foot}},
		Written: make([][]uint8, len(phases)),
		Ops:     phases,
	}, "")
}

// pad extends a per-thread op table to 16 threads.
func pad(perThread ...[]memsys.Op) [][]memsys.Op {
	out := make([][]memsys.Op, 16)
	copy(out, perThread)
	return out
}

func TestProducerConsumer(t *testing.T) {
	// Core 0 writes a line; after the barrier core 1 reads it (3-hop
	// forward from the owner). The oracle inside the runner validates the
	// value; we validate traffic was generated.
	p := script("prodcons", 4096, [][][]memsys.Op{
		pad([]memsys.Op{st(0), st(4), st(8)}),
		pad(nil, []memsys.Op{ld(0), ld(4), ld(8)}),
	})
	env, _, _ := runProgram(t, p, mesi.Options{})
	if env.Traffic.Snapshot().Total() == 0 {
		t.Fatal("no traffic recorded")
	}
	if env.Traffic.Get(memsys.ClassLD, memsys.BReqCtl) == 0 {
		t.Fatal("no load request traffic")
	}
}

func TestUpgradePath(t *testing.T) {
	// A core reads a line (S or E) that another core also read (forcing
	// S), then writes it: MESI must issue an Upgrade with invalidations.
	p := script("upgrade", 4096, [][][]memsys.Op{
		pad([]memsys.Op{ld(0)}, []memsys.Op{ld(0)}), // both read: line S at both
		pad([]memsys.Op{st(0)}),                     // writer upgrades
		pad(nil, []memsys.Op{ld(0)}),                // reader revalidates
	})
	env, _, _ := runProgram(t, p, mesi.Options{})
	if env.Traffic.Get(memsys.ClassOVH, memsys.BOvhInval) == 0 {
		t.Fatal("no invalidation traffic on upgrade")
	}
	if env.Traffic.Get(memsys.ClassOVH, memsys.BOvhAck) == 0 {
		t.Fatal("no ack traffic on upgrade")
	}
}

func TestEStateSilentUpgrade(t *testing.T) {
	// Sole reader then writer: E grant, then a silent E->M transition —
	// no upgrade/invalidate control at all for that line.
	p := script("estate", 4096, [][][]memsys.Op{
		pad([]memsys.Op{ld(64), st(64)}),
	})
	env, _, _ := runProgram(t, p, mesi.Options{})
	if env.Traffic.Get(memsys.ClassOVH, memsys.BOvhInval) != 0 {
		t.Fatal("invalidations sent for a sole E-state writer")
	}
	// Exactly one data response (the GetS fill); the store is silent.
	if got := env.Traffic.Get(memsys.ClassST, memsys.BReqCtl); got != 0 {
		t.Fatalf("store issued %v request flit-hops; E->M must be silent", got)
	}
}

func TestUnblockOverheadPresent(t *testing.T) {
	p := script("unblock", 4096, [][][]memsys.Op{
		pad([]memsys.Op{ld(0), ld(64), ld(128)}),
	})
	env, _, _ := runProgram(t, p, mesi.Options{})
	if env.Traffic.Get(memsys.ClassOVH, memsys.BOvhUnblock) == 0 {
		t.Fatal("blocking directory must generate unblock messages")
	}
}

func TestWritebackOnEviction(t *testing.T) {
	// Write many lines mapping to one small L1 so dirty evictions occur.
	var ops []memsys.Op
	for i := uint32(0); i < 64; i++ {
		ops = append(ops, st(i*64))
	}
	// Read them back so the WBs complete and the values must round-trip.
	var reads []memsys.Op
	for i := uint32(0); i < 64; i++ {
		reads = append(reads, ld(i*64))
	}
	p := script("wb", 64*64, [][][]memsys.Op{pad(ops), pad(reads)})
	env, _, _ := runProgram(t, p, mesi.Options{})
	if env.Traffic.Get(memsys.ClassWB, memsys.BWBL2Used) == 0 {
		t.Fatal("no dirty writeback data reached the L2")
	}
	// Fetch-on-write: stores fetched lines whose words were overwritten.
	if env.Prof.Count(0, 2) == 0 { // waste.LevelL1, waste.Write
		t.Fatal("fetch-on-write produced no Write waste")
	}
}

func TestAllWorkloadsOracleMESI(t *testing.T) {
	for _, name := range workloads.Names() {
		prog := workloads.MustByName(name, workloads.Tiny, 16)
		t.Run(name, func(t *testing.T) {
			env, _, r := runProgram(t, prog, mesi.Options{})
			if env.Traffic.Snapshot().Total() == 0 {
				t.Fatal("no measured traffic")
			}
			if r.ExecCycles() <= 0 {
				t.Fatal("no measured execution time")
			}
		})
	}
}

func TestAllWorkloadsOracleMMemL1(t *testing.T) {
	for _, name := range workloads.Names() {
		prog := workloads.MustByName(name, workloads.Tiny, 16)
		t.Run(name, func(t *testing.T) {
			runProgram(t, prog, mesi.Options{MemToL1: true})
		})
	}
}

func TestMMemL1EliminatesStoreL2Data(t *testing.T) {
	// §5.2.2: MMemL1 prevents data returned on an L2 write miss from
	// going to the L2, eliminating "Resp L2" store traffic.
	prog := workloads.MustByName("FFT", workloads.Tiny, 16)
	envA, _, _ := runProgram(t, prog, mesi.Options{})
	prog2 := workloads.MustByName("FFT", workloads.Tiny, 16)
	envB, _, _ := runProgram(t, prog2, mesi.Options{MemToL1: true})

	baseL2 := envA.Traffic.Get(memsys.ClassST, memsys.BRespL2Used) +
		envA.Traffic.Get(memsys.ClassST, memsys.BRespL2Waste)
	optL2 := envB.Traffic.Get(memsys.ClassST, memsys.BRespL2Used) +
		envB.Traffic.Get(memsys.ClassST, memsys.BRespL2Waste)
	if baseL2 == 0 {
		t.Fatal("baseline MESI has no store L2 data traffic to eliminate")
	}
	if optL2 != 0 {
		t.Fatalf("MMemL1 still sends store fill data to the L2: %v flit-hops", optL2)
	}
}

func TestMMemL1ReducesTraffic(t *testing.T) {
	prog := workloads.MustByName("radix", workloads.Tiny, 16)
	envA, _, _ := runProgram(t, prog, mesi.Options{})
	prog2 := workloads.MustByName("radix", workloads.Tiny, 16)
	envB, _, _ := runProgram(t, prog2, mesi.Options{MemToL1: true})
	if envB.Traffic.Snapshot().Total() >= envA.Traffic.Snapshot().Total() {
		t.Fatalf("MMemL1 (%.0f) did not reduce traffic vs MESI (%.0f)",
			envB.Traffic.Snapshot().Total(), envA.Traffic.Snapshot().Total())
	}
}

func TestOverheadBreakdownShape(t *testing.T) {
	// §5.2.4: unblock messages dominate MESI overhead.
	prog := workloads.MustByName("LU", workloads.Tiny, 16)
	env, _, _ := runProgram(t, prog, mesi.Options{})
	unblock := env.Traffic.Get(memsys.ClassOVH, memsys.BOvhUnblock)
	total := env.Traffic.Snapshot().ClassTotal(memsys.ClassOVH)
	if total == 0 || unblock/total < 0.3 {
		t.Fatalf("unblock share = %.2f of overhead; expected dominant", unblock/total)
	}
}
