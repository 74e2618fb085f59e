package denovo_test

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/denovo"
	"repro/internal/memsys"
	"repro/internal/trace"
	"repro/internal/waste"
	"repro/internal/workloads"
)

func testConfig() memsys.Config { return memsys.Default().Scaled(64) }

func runProgram(t *testing.T, prog memsys.Program, spec string) (*memsys.Env, *denovo.System, *core.Runner) {
	t.Helper()
	env, err := memsys.NewEnv(testConfig(), prog.FootprintBytes(), prog.Regions())
	if err != nil {
		t.Fatal(err)
	}
	sys := newSystem(t, env, spec)
	r := core.NewRunner(env, sys, prog)
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if err := sys.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return env, sys, r
}

// newSystem resolves a protocol spec through the registry and builds its
// DeNovo engine on env.
func newSystem(t *testing.T, env *memsys.Env, spec string) *denovo.System {
	t.Helper()
	v, err := core.ParseProtocol(spec)
	if err != nil {
		t.Fatal(err)
	}
	sys, ok := v.New(env).(*denovo.System)
	if !ok {
		t.Fatalf("%s is not a DeNovo configuration", spec)
	}
	return sys
}

// paperVariants are the paper's DeNovo configurations in figure order
// (their option bundles are pinned in internal/core's registry tests).
var paperVariants = []string{"DeNovo", "DFlexL1", "DValidateL2", "DMemL1", "DFlexL2", "DBypL2", "DBypFull"}

// TestVariantsMatchPaper checks the DeNovo rungs of the registry and that
// the engine reports the name the registry gives it.
func TestVariantsMatchPaper(t *testing.T) {
	if got := core.ProtocolNames()[2:]; !slices.Equal(got, paperVariants) {
		t.Fatalf("DeNovo rungs = %v, want %v", got, paperVariants)
	}
	prog := workloads.MustByName("FFT", workloads.Tiny, 16)
	for _, name := range paperVariants {
		env, err := memsys.NewEnv(testConfig(), prog.FootprintBytes(), prog.Regions())
		if err != nil {
			t.Fatal(err)
		}
		if got := newSystem(t, env, name).Name(); got != name {
			t.Errorf("%s engine reports name %q", name, got)
		}
	}
}

// TestAllWorkloadsAllVariants is the core correctness matrix: every paper
// configuration runs every benchmark with the load-value oracle active.
func TestAllWorkloadsAllVariants(t *testing.T) {
	for _, name := range paperVariants {
		t.Run(name, func(t *testing.T) {
			for _, bench := range workloads.Names() {
				prog := workloads.MustByName(bench, workloads.Tiny, 16)
				t.Run(bench, func(t *testing.T) {
					env, _, r := runProgram(t, prog, name)
					if env.Traffic.Snapshot().Total() == 0 {
						t.Fatal("no measured traffic")
					}
					if r.ExecCycles() <= 0 {
						t.Fatal("no measured execution time")
					}
				})
			}
		})
	}
}

func TestWriteValidateNoStoreDataFetch(t *testing.T) {
	// §5.2.2: write-validate eliminates store-triggered data responses to
	// the L1 entirely (MESI's fetch-on-write fetches a full line).
	prog := workloads.MustByName("FFT", workloads.Tiny, 16)
	env, _, _ := runProgram(t, prog, "DeNovo")
	stL1 := env.Traffic.Get(memsys.ClassST, memsys.BRespL1Used) +
		env.Traffic.Get(memsys.ClassST, memsys.BRespL1Waste)
	if stL1 != 0 {
		t.Fatalf("DeNovo store path moved %v L1 data flit-hops; write-validate forbids it", stL1)
	}
	// Registration control traffic must exist instead.
	if env.Traffic.Get(memsys.ClassST, memsys.BReqCtl) == 0 {
		t.Fatal("no registration traffic")
	}
}

func TestBaselineFetchOnWriteAtL2(t *testing.T) {
	// §5.2.2: baseline DeNovo keeps fetch-on-write at the L2 (store-class
	// memory fills); DValidateL2 eliminates it.
	prog := workloads.MustByName("FFT", workloads.Tiny, 16)
	envA, _, _ := runProgram(t, prog, "DeNovo")
	prog2 := workloads.MustByName("FFT", workloads.Tiny, 16)
	envB, _, _ := runProgram(t, prog2, "DValidateL2")

	base := envA.Traffic.Get(memsys.ClassST, memsys.BRespL2Used) +
		envA.Traffic.Get(memsys.ClassST, memsys.BRespL2Waste)
	opt := envB.Traffic.Get(memsys.ClassST, memsys.BRespL2Used) +
		envB.Traffic.Get(memsys.ClassST, memsys.BRespL2Waste)
	if base == 0 {
		t.Fatal("baseline DeNovo shows no L2 fetch-on-write traffic")
	}
	if opt != 0 {
		t.Fatalf("DValidateL2 still fetches on write at the L2: %v flit-hops", opt)
	}
}

func TestDirtyWordsOnlyWritebacks(t *testing.T) {
	// Figure 5.1d: DeNovo L1->L2 writebacks carry only dirty words (no L2
	// Waste); DValidateL2 extends this to L2->Mem writebacks.
	prog := workloads.MustByName("radix", workloads.Tiny, 16)
	envA, _, _ := runProgram(t, prog, "DeNovo")
	if w := envA.Traffic.Get(memsys.ClassWB, memsys.BWBL2Waste); w != 0 {
		t.Fatalf("DeNovo L1->L2 WB carries %v waste flit-hops", w)
	}
	prog2 := workloads.MustByName("radix", workloads.Tiny, 16)
	envB, _, _ := runProgram(t, prog2, "DValidateL2")
	if w := envB.Traffic.Get(memsys.ClassWB, memsys.BWBMemWaste); w != 0 {
		t.Fatalf("DValidateL2 L2->Mem WB carries %v waste flit-hops", w)
	}
	// The baseline writes full lines to memory: waste must exist there.
	if envA.Traffic.Get(memsys.ClassWB, memsys.BWBMemUsed) > 0 &&
		envA.Traffic.Get(memsys.ClassWB, memsys.BWBMemWaste) == 0 {
		t.Fatal("baseline DeNovo full-line memory WBs show no waste")
	}
}

func TestDeNovoOverheadIsOnlyNacksAndBloom(t *testing.T) {
	// §5.2.4: DeNovo has no invalidation/ack/unblock overhead; its only
	// overhead messages are NACKs (and Bloom copies with DBypFull).
	for _, name := range []string{"DeNovo", "DValidateL2", "DFlexL2"} {
		prog := workloads.MustByName("LU", workloads.Tiny, 16)
		env, _, _ := runProgram(t, prog, name)
		for _, b := range []memsys.Bucket{memsys.BOvhUnblock, memsys.BOvhInval, memsys.BOvhAck, memsys.BOvhWBCtl} {
			if v := env.Traffic.Get(memsys.ClassOVH, b); v != 0 {
				t.Fatalf("%s has %v flit-hops of %v overhead", name, v, b)
			}
		}
	}
}

func TestFlexReducesLoadTrafficOnBarnes(t *testing.T) {
	// §5.2.1: Flex sends only communication-region words for Barnes-Hut.
	prog := workloads.MustByName("barnes", workloads.Tiny, 16)
	envA, _, _ := runProgram(t, prog, "DeNovo")
	prog2 := workloads.MustByName("barnes", workloads.Tiny, 16)
	envB, _, _ := runProgram(t, prog2, "DFlexL1")
	a := envA.Traffic.Snapshot().ClassTotal(memsys.ClassLD)
	b := envB.Traffic.Snapshot().ClassTotal(memsys.ClassLD)
	if b >= a {
		t.Fatalf("DFlexL1 load traffic %.0f >= DeNovo %.0f on barnes", b, a)
	}
}

func TestBypassReducesL2Insertions(t *testing.T) {
	// §5.2.1: L2 response bypass keeps streaming data out of the L2.
	prog := workloads.MustByName("kD-tree", workloads.Tiny, 16)
	envA, _, _ := runProgram(t, prog, "DFlexL2")
	prog2 := workloads.MustByName("kD-tree", workloads.Tiny, 16)
	envB, _, _ := runProgram(t, prog2, "DBypL2")
	a := envA.Prof.TotalWords(waste.LevelL2)
	b := envB.Prof.TotalWords(waste.LevelL2)
	if b >= a {
		t.Fatalf("DBypL2 inserted %d words into the L2, DFlexL2 %d; bypass must reduce it", b, a)
	}
}

func TestRequestBypassUsesBloomFilters(t *testing.T) {
	prog := workloads.MustByName("FFT", workloads.Tiny, 16)
	env, _, _ := runProgram(t, prog, "DBypFull")
	if env.Traffic.Get(memsys.ClassOVH, memsys.BOvhBloom) == 0 {
		t.Fatal("DBypFull generated no Bloom copy traffic")
	}
}

func TestFlexL2ProducesExcessWaste(t *testing.T) {
	// §5.3: with conventional line-granularity DRAM, L2 Flex drops
	// non-communication words at the MC (Excess waste) for barnes/kD-tree.
	prog := workloads.MustByName("barnes", workloads.Tiny, 16)
	env, _, _ := runProgram(t, prog, "DFlexL2")
	if env.Prof.Count(waste.LevelMem, waste.Excess) == 0 {
		t.Fatal("DFlexL2 on barnes produced no Excess waste")
	}
	// Without FlexL2 there is no Excess at all.
	prog2 := workloads.MustByName("barnes", workloads.Tiny, 16)
	env2, _, _ := runProgram(t, prog2, "DMemL1")
	if env2.Prof.Count(waste.LevelMem, waste.Excess) != 0 {
		t.Fatal("DMemL1 produced Excess waste without L2 Flex")
	}
}

func TestSelfInvalidationRefetches(t *testing.T) {
	// A reader of a written region must refetch after the barrier: the
	// runner's oracle already validates the VALUE; here we check the
	// invalidation waste category shows up at the L1.
	prog := workloads.MustByName("fluidanimate", workloads.Tiny, 16)
	env, _, _ := runProgram(t, prog, "DeNovo")
	if env.Prof.Count(waste.LevelL1, waste.Invalidate) == 0 {
		t.Fatal("self-invalidation produced no Invalidate waste")
	}
}

func TestDeNovoBeatsMESIOnTraffic(t *testing.T) {
	// Headline direction (§5.1): the fully optimized protocol cuts traffic
	// relative to the DeNovo baseline on bypassable benchmarks.
	prog := workloads.MustByName("FFT", workloads.Tiny, 16)
	envA, _, _ := runProgram(t, prog, "DeNovo")
	prog2 := workloads.MustByName("FFT", workloads.Tiny, 16)
	envB, _, _ := runProgram(t, prog2, "DBypFull")
	if envB.Traffic.Snapshot().Total() >= envA.Traffic.Snapshot().Total() {
		t.Fatalf("DBypFull traffic %.0f >= DeNovo %.0f on FFT",
			envB.Traffic.Snapshot().Total(), envA.Traffic.Snapshot().Total())
	}
}

func TestOwnershipHandoff(t *testing.T) {
	// Registration moves between cores across phases: A writes (registers),
	// B reads (forwarded from A), B writes (re-registration invalidates
	// A's stale copy), A reads B's value. The runner's oracle checks every
	// value; the invariant checker verifies single-registrant consistency.
	p := trace.NewProgram(&trace.Trace{
		Name: "handoff", Threads: 16, Footprint: 4096,
		Regions: []memsys.Region{{ID: 1, Name: "all", Base: 0, Size: 4096}},
		Ops: [][][]memsys.Op{
			pad([]memsys.Op{st(0), st(4)}),      // A writes
			pad(nil, []memsys.Op{ld(0), ld(4)}), // B reads (fwd from A)
			pad(nil, []memsys.Op{st(0), st(4)}), // B re-registers
			pad([]memsys.Op{ld(0), ld(4)}),      // A reads B's values
		},
		Written: [][]uint8{{1}, nil, {1}, nil},
	}, "")
	for _, name := range []string{"DeNovo", "DValidateL2", "DBypFull"} {
		t.Run(name, func(t *testing.T) { runProgram(t, p, name) })
	}
}

func TestL2EvictionRecallsRegisteredWords(t *testing.T) {
	// Overflow one L2 set of one home slice with registered lines: the L2
	// must recall ownership from the L1s and write the data to memory, and
	// later reads must still see the right values (oracle-checked).
	// Lines of the form 16i+1 share home slice 1 (line%16==1) and set 1
	// (line&3==1) at the Tiny scale (4 sets/slice), and their memory
	// channel differs from the home tile so writebacks cross the mesh.
	const lines = 24 // > 16 ways
	var writes, reads [][]memsys.Op
	writes = make([][]memsys.Op, 16)
	reads = make([][]memsys.Op, 16)
	for i := 0; i < lines; i++ {
		core := i % 16
		addr := uint32(16*i+1) * 64
		writes[core] = append(writes[core], st(addr))
		reads[core] = append(reads[core], ld(addr))
	}
	foot := uint32(16*lines+2) * 64
	p := trace.NewProgram(&trace.Trace{
		Name: "recall", Threads: 16, Footprint: foot,
		Regions: []memsys.Region{{ID: 1, Name: "all", Base: 0, Size: foot}},
		Ops:     [][][]memsys.Op{writes, reads},
		Written: [][]uint8{{1}, nil},
	}, "")
	for _, name := range []string{"DeNovo", "DValidateL2"} {
		t.Run(name, func(t *testing.T) {
			env, _, _ := runProgram(t, p, name)
			// Recalled dirty data must have produced L2->memory writebacks.
			if env.Traffic.Get(memsys.ClassWB, memsys.BWBMemUsed) == 0 {
				t.Fatal("no dirty data reached memory despite L2 overflow")
			}
		})
	}
}

func TestFlexOutsideCommFallsBackToLine(t *testing.T) {
	// Loads of fields outside the communication region must use line
	// requests, not degenerate per-word requests (§2: communication
	// regions are usage-specific). barnes' update phase reads vel/acc
	// which are outside the force-phase comm region; DFlexL1's request
	// count must stay close to the baseline's.
	prog := workloads.MustByName("barnes", workloads.Tiny, 16)
	envA, _, _ := runProgram(t, prog, "DeNovo")
	prog2 := workloads.MustByName("barnes", workloads.Tiny, 16)
	envB, _, _ := runProgram(t, prog2, "DFlexL1")
	a := envA.Traffic.Get(memsys.ClassLD, memsys.BReqCtl)
	b := envB.Traffic.Get(memsys.ClassLD, memsys.BReqCtl)
	if b > a*1.15 {
		t.Fatalf("DFlexL1 request control %.0f >> baseline %.0f", b, a)
	}
}

func TestHardwareBypassPredictorExtension(t *testing.T) {
	// The DBypHW extension (predictor.go) must (1) run every workload
	// correctly, and (2) reduce L2 insertions on a streaming benchmark
	// without any software bypass annotations.
	hw, err := core.ParseProtocol("DBypHW")
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(hw.Options, "BypHW") || slices.Contains(hw.Options, "BypL2") {
		t.Fatalf("DBypHW options %v: it must use the predictor, not annotations", hw.Options)
	}
	for _, bench := range workloads.Names() {
		prog := workloads.MustByName(bench, workloads.Tiny, 16)
		t.Run(bench, func(t *testing.T) { runProgram(t, prog, "DBypHW") })
	}
	// Streaming comparison: kD-tree edges give the predictor dead lines
	// to learn from.
	prog := workloads.MustByName("kD-tree", workloads.Tiny, 16)
	envBase, _, _ := runProgram(t, prog, "DFlexL2")
	prog2 := workloads.MustByName("kD-tree", workloads.Tiny, 16)
	envHW, _, _ := runProgram(t, prog2, "DBypHW")
	a := envBase.Prof.TotalWords(waste.LevelL2)
	b := envHW.Prof.TotalWords(waste.LevelL2)
	if b >= a {
		t.Fatalf("predictor bypass inserted %d L2 words, baseline %d; expected a reduction", b, a)
	}
}
