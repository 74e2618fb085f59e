package core

import (
	"context"
	"fmt"

	"repro/internal/memsys"
	"repro/internal/mesh"
	"repro/internal/waste"
	"repro/internal/workloads"
)

// NewProtocol instantiates a protocol engine by configuration spec on an
// environment (registering its tiles on the mesh). The spec is resolved
// through the composable registry: a canonical name ("DBypL2"), a family
// root, or a composition ("DeNovo+BypL2", "MESI+MemL1").
func NewProtocol(env *memsys.Env, spec string) (memsys.Protocol, error) {
	v, err := ParseProtocol(spec)
	if err != nil {
		return nil, err
	}
	return v.New(env), nil
}

// Result is one (protocol, benchmark) measurement, detached from its Env.
type Result struct {
	Protocol  string
	Benchmark string

	FlitHops   memsys.FlitHops
	Waste      [3][8]uint64 // [waste.Level][waste.Category] words
	ExecCycles int64
	Time       memsys.TimeBreakdown // summed over cores
	WasteShare float64
	Net        mesh.NetStats // congestion telemetry over the measured window

	// KernelClamped counts events the kernel had to clamp to "now"
	// because a component scheduled them in the past. Any nonzero value
	// is a component-logic bug; the regression suite asserts zero across
	// the full Tiny matrix under both router models.
	KernelClamped uint64
}

// WasteTotal sums the measured words fetched into a level.
func (r *Result) WasteTotal(level waste.Level) uint64 {
	var s uint64
	for _, c := range waste.Categories {
		s += r.Waste[level][c]
	}
	return s
}

// RunOne simulates one benchmark under one protocol configuration and
// returns the detached measurement. Cores map one per tile, so a program
// with more threads than cfg has tiles is an error; the planner bounds
// built workloads, but a replayed trace fixes its own thread count.
// Cancelling ctx stops the simulation within 65,536 events and returns
// ctx's error.
func RunOne(ctx context.Context, cfg memsys.Config, protoName string, prog memsys.Program) (*Result, error) {
	if n := prog.Threads(); n > cfg.Tiles() {
		return nil, fmt.Errorf("%s has %d threads but the %dx%d mesh has %d tiles; run it on a mesh with at least %d tiles",
			prog.Name(), n, cfg.Width, cfg.Height, cfg.Tiles(), n)
	}
	env, err := memsys.NewEnv(cfg, prog.FootprintBytes(), prog.Regions())
	if err != nil {
		return nil, err
	}
	// The cell's memory goes to the next cell on every way out, once the
	// Result below holds copies of everything it reports.
	defer env.Recycle()
	proto, err := NewProtocol(env, protoName)
	if err != nil {
		return nil, err
	}
	defer proto.Recycle()
	r := NewRunner(env, proto, prog)
	defer r.recycle()
	r.ctx = ctx
	if err := r.Run(); err != nil {
		return nil, err
	}
	res := &Result{
		Protocol:      proto.Name(), // the normalized registry spec
		Benchmark:     prog.Name(),
		FlitHops:      env.Traffic.Snapshot(),
		Waste:         env.Prof.Snapshot(),
		ExecCycles:    r.ExecCycles(),
		WasteShare:    env.Traffic.WasteShare(),
		Net:           env.Mesh.Stats(),
		KernelClamped: env.K.Clamped(),
	}
	for _, tb := range r.Times {
		res.Time.Busy += tb.Busy
		res.Time.OnChip += tb.OnChip
		res.Time.ToMC += tb.ToMC
		res.Time.Mem += tb.Mem
		res.Time.FromMC += tb.FromMC
		res.Time.Sync += tb.Sync
	}
	return res, nil
}

// Matrix holds results for benchmarks x protocols, the unit every figure
// is drawn from.
type Matrix struct {
	Size       workloads.Size
	Topology   string // NoC topology every cell was simulated on
	Router     string // router model every cell was simulated with
	Benchmarks []string
	Protocols  []string
	Results    map[string]map[string]*Result // [benchmark][protocol]
}

// Get returns the result for (benchmark, protocol), or nil.
func (m *Matrix) Get(bench, proto string) *Result {
	if row := m.Results[bench]; row != nil {
		return row[proto]
	}
	return nil
}

// MatrixOptions configures one matrix: the run's single point, or the base
// every sweep point is stamped from (see Run).
type MatrixOptions struct {
	Size workloads.Size
	// Protocols selects the protocol specs. nil = all nine; an empty
	// non-nil list is an error (it would run no cells).
	Protocols []string
	// Benchmarks selects the workloads, as registry specs: ported
	// benchmark names, synthetic patterns with optional parameters
	// ("uniform(p=0.1)", "hotspot(t=2)"), or trace replays
	// ("replay(file=x.trc)"). nil = the paper's six benchmarks; an empty
	// non-nil list is an error.
	Benchmarks []string
	// The engine knobs (Knobs), one value for every cell. A zero value
	// leaves the knob unpinned, so the planner applies its default (16
	// threads, a 4x4 "mesh" topology, the "ideal" router, the vc router's
	// own VC geometry) and a sweep can claim its axis. Mesh is "WxH",
	// which memsys.ParseMeshDims parses; the tile count, MC corners and
	// Bloom banks follow it, and Threads must not exceed the tiles. VCs
	// and VCDepth need Router "vc".
	Threads, VCs, VCDepth  int
	Topology, Mesh, Router string
	// Workers bounds the number of simulations running concurrently:
	// 0 = one per available CPU (GOMAXPROCS), 1 = the serial reference
	// run, one pool worker claiming cells in order; a negative count is
	// a planning error. Cells are independent
	// simulations, so the assembled Matrix is bit-identical at every
	// worker count.
	Workers int
}
