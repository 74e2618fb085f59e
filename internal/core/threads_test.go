package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/memsys"
	"repro/internal/workloads"
)

// checked wraps a protocol engine and runs check while the run is still
// going: at every barrier, and once every n core operations. A full check
// visits every L1 line, so runChecked sets n to the thread count, which
// keeps the cost per operation the same on every grid. It keeps the first
// error.
type checked struct {
	memsys.Protocol
	check func() error
	n     int
	ops   int
	err   error
}

func (c *checked) sample() {
	if c.ops++; c.ops%c.n == 0 && c.err == nil {
		c.err = c.check()
	}
}

func (c *checked) Load(core int, addr uint32, done func(uint32, memsys.Sample)) {
	c.sample()
	c.Protocol.Load(core, addr, done)
}

func (c *checked) Store(core int, addr uint32, val uint32) bool {
	c.sample()
	return c.Protocol.Store(core, addr, val)
}

func (c *checked) AtBarrier(written []uint8) {
	if c.err == nil {
		c.err = c.check()
	}
	c.Protocol.AtBarrier(written)
}

// runChecked runs one Tiny cell on a side x side mesh under the
// functional oracle. MESI's coherence is checked while the run is going
// (see checked), every engine's invariants at the end, and a run still
// going after bound fails.
func runChecked(t *testing.T, spec, bench string, threads, side int, bound time.Duration) {
	t.Helper()
	prog := workloads.MustByName(bench, workloads.Tiny, threads)
	cfg := memsys.Default().Scaled(workloads.Tiny.ScaleDiv()).WithMesh(side, side)
	env, err := memsys.NewEnv(cfg, prog.FootprintBytes(), prog.Regions())
	if err != nil {
		t.Fatal(err)
	}
	v, err := ParseProtocol(spec)
	if err != nil {
		t.Fatal(err)
	}
	proto := v.New(env)
	wrapped := &checked{Protocol: proto, check: func() error { return nil }, n: threads}
	if c, ok := proto.(interface{ CheckCoherence() error }); ok {
		wrapped.check = c.CheckCoherence
	}
	ctx, cancel := context.WithTimeout(context.Background(), bound)
	defer cancel()
	r := NewRunner(env, wrapped, prog)
	r.ctx = ctx
	if err := r.Run(); err != nil {
		t.Fatalf("%s/%s, %d threads on %dx%d: %v", spec, bench, threads, side, side, err)
	}
	if wrapped.err != nil {
		t.Fatalf("mid-run: %v", wrapped.err)
	}
	if err := proto.(interface{ CheckInvariants() error }).CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestThreadsPastSixteenTiles runs the coherence engines with more cores
// than the paper's 16, up to one per tile of the largest grid. Each cell
// takes well under a second; a directory that loses track of tiles past
// 15 livelocks here, or fails the oracle or a coherence check.
func TestThreadsPastSixteenTiles(t *testing.T) {
	rows := []struct{ threads, side int }{{17, 8}, {32, 8}, {64, 8}, {128, 16}, {256, 16}}
	for _, row := range rows {
		for _, bench := range []string{"FFT", "uniform"} {
			for _, spec := range []string{"MESI", "MMemL1", "DeNovo"} {
				name := fmt.Sprintf("%s/%s/%dx%d/%d", spec, bench, row.side, row.side, row.threads)
				t.Run(name, func(t *testing.T) {
					if row.side == 16 && testing.Short() {
						t.Skip("256-tile grids")
					}
					runChecked(t, spec, bench, row.threads, row.side, 20*time.Second)
				})
			}
		}
	}
}

// TestCoherenceCheckedMidRun runs radix under MESI at 32 threads, a run
// that used to finish, oracle and invariants passing, with a directory
// blind to tiles past 15. Its stale copies never lasted until the end of
// the run, nor to a barrier: only the checks between operations see them.
func TestCoherenceCheckedMidRun(t *testing.T) {
	runChecked(t, "MESI", "radix", 32, 8, 20*time.Second)
}
