package core_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/memsys"
	"repro/internal/workloads"
)

// noWarmup measures a program from cycle 0, so the flit-hop ledger records
// every packet the fabric carries.
type noWarmup struct{ memsys.Program }

func (noWarmup) WarmupPhases() int { return 0 }

// ledgerCell runs prog under proto on cfg with warm-up off and returns the
// ledger's total, the fabric's flit-hops and the ledger's NACK bucket.
// The run's trailing events, such as baseline DeNovo's fetch-on-write
// fills landing after the last barrier, open word instances after the
// run's Finish; a second Finish settles them, so their data shares reach
// the ledger too.
func ledgerCell(t testing.TB, cfg memsys.Config, proto string, prog memsys.Program) (ledger, fabric, nack float64) {
	t.Helper()
	env, err := memsys.NewEnv(cfg, prog.FootprintBytes(), prog.Regions())
	if err != nil {
		t.Fatal(err)
	}
	defer env.Recycle()
	p, err := core.NewProtocol(env, proto)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Recycle()
	if err := core.NewRunner(env, p, noWarmup{prog}).Run(); err != nil {
		t.Fatalf("%s/%s: %v", proto, prog.Name(), err)
	}
	env.Prof.Finish()
	fh := env.Traffic.Snapshot()
	return fh.Total(), float64(env.Mesh.FlitHops()), fh[memsys.ClassOVH][memsys.BOvhNack]
}

// checkLedger asserts that the ledger charged exactly the flit-hops the
// fabric carried, save the receivers' echo of request NACKs
// (memsys.Env.ChargeNack): each request NACK is charged by the send that
// carries it and, if its request still waits, once more where it lands,
// so the surplus is positive and at most half the NACK bucket. An exact
// cell must match whatever its NACK bucket.
func checkLedger(t testing.TB, cell string, exact bool, ledger, fabric, nack float64) {
	t.Helper()
	echo := ledger - fabric
	switch {
	case exact || nack == 0:
		if echo != 0 {
			t.Errorf("%s: ledger %v flit-hops, fabric %v (NACK bucket %v)", cell, ledger, fabric, nack)
		}
	case !(echo > 0 && 2*echo <= nack):
		t.Errorf("%s: ledger %v flit-hops exceeds fabric %v by %v, want a NACK echo in (0, %v]",
			cell, ledger, fabric, echo, nack/2)
	}
}

// ledgerRouters are the router models the random programs run on.
var ledgerRouters = []string{"ideal", "vc", "deflection"}

// TestLedgerMatchesFabric pins that every packet is charged by the send
// that carries it: with warm-up off, the flit-hop ledger adds up to the
// flit-hops the fabric carried, on every protocol over the six Tiny
// benchmarks (ideal router) and over random race-free programs under all
// three routers. No DeNovo-family cell here NACKs a request, so each is
// held to exact equality; MESI's cells carry the NACK echo.
func TestLedgerMatchesFabric(t *testing.T) {
	benchmarks, seeds := workloads.Names(), []int64{1, 7, 42, 1337, 90210}
	if testing.Short() {
		benchmarks, seeds = benchmarks[:1], seeds[:2]
	}
	check := func(cfg memsys.Config, proto string, prog memsys.Program, cell string) {
		v, err := core.ParseProtocol(proto)
		if err != nil {
			t.Fatal(err)
		}
		ledger, fabric, nack := ledgerCell(t, cfg, proto, prog)
		checkLedger(t, cell, v.Family == "DeNovo", ledger, fabric, nack)
	}
	tiny := memsys.Default().Scaled(workloads.Tiny.ScaleDiv())
	for _, bench := range benchmarks {
		prog := workloads.MustByName(bench, workloads.Tiny, 16)
		for _, proto := range core.ProtocolAliases() {
			check(tiny, proto, prog, proto+"/"+bench)
		}
	}
	for _, seed := range seeds {
		prog := newRandProgram(seed)
		for _, router := range ledgerRouters {
			cfg := memsys.Default().Scaled(64)
			cfg.Router = router
			for _, proto := range core.ProtocolAliases() {
				check(cfg, proto, prog, fmt.Sprintf("%s/seed %d/%s", proto, seed, router))
			}
		}
	}
}

// FuzzLedgerMatchesFabric holds the ledger to the fabric on random
// race-free programs under any named protocol (proto indexes
// core.ProtocolAliases) and router; the checked-in corpus runs seeds 1
// and 42 under MESI and DBypFull. A run that fails its load-value oracle
// or panics fails the target too: its ledger proves nothing.
func FuzzLedgerMatchesFabric(f *testing.F) {
	protos := core.ProtocolAliases()
	f.Fuzz(func(t *testing.T, seed int64, proto, router uint8) {
		name := protos[int(proto)%len(protos)]
		cfg := memsys.Default().Scaled(64)
		cfg.Router = ledgerRouters[int(router)%len(ledgerRouters)]
		ledger, fabric, nack := ledgerCell(t, cfg, name, newRandProgram(seed))
		checkLedger(t, fmt.Sprintf("%s/seed %d/%s", name, seed, cfg.Router), false, ledger, fabric, nack)
	})
}
