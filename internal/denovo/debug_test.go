package denovo_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/memsys"
	"repro/internal/workloads"
)

// TestDiagnostics runs the trickiest workload/variant pair and dumps the
// protocol state on deadlock or an oracle violation.
func TestDiagnostics(t *testing.T) {
	prog := workloads.MustByName("radix", workloads.Tiny, 16)
	env, err := memsys.NewEnv(testConfig(), prog.FootprintBytes(), prog.Regions())
	if err != nil {
		t.Fatal(err)
	}
	sys := newSystem(t, env, "DeNovo")
	r := core.NewRunner(env, sys, prog)
	if err := r.Run(); err != nil {
		t.Fatalf("%v\n%s", err, sys.DebugState())
	}
}

func ld(addr uint32) memsys.Op { return memsys.Op{Kind: memsys.OpLoad, Addr: addr} }
func st(addr uint32) memsys.Op { return memsys.Op{Kind: memsys.OpStore, Addr: addr} }

// pad extends a per-thread op table to 16 threads.
func pad(perThread ...[]memsys.Op) [][]memsys.Op {
	out := make([][]memsys.Op, 16)
	copy(out, perThread)
	return out
}
