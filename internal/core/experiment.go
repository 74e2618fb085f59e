package core

import (
	"repro/internal/memsys"
	"repro/internal/mesh"
	"repro/internal/waste"
	"repro/internal/workloads"
)

// ProtocolNames lists the nine configurations of §3.2/§3.3 in the paper's
// figure order. The registry (registry.go) accepts these as canonical
// aliases alongside composable "base+Option" specs.
func ProtocolNames() []string {
	return []string{
		"MESI", "MMemL1",
		"DeNovo", "DFlexL1", "DValidateL2", "DMemL1", "DFlexL2", "DBypL2", "DBypFull",
	}
}

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

	FlitHops   [memsys.NumClasses][memsys.NumBuckets]float64
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

// ClassTotal sums a traffic class.
func (r *Result) ClassTotal(c memsys.Class) float64 {
	var s float64
	for b := memsys.Bucket(0); b < memsys.NumBuckets; b++ {
		s += r.FlitHops[c][b]
	}
	return s
}

// Total sums all traffic.
func (r *Result) Total() float64 {
	var s float64
	for c := memsys.Class(0); c < memsys.NumClasses; c++ {
		s += r.ClassTotal(c)
	}
	return s
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
// returns the detached measurement.
func RunOne(cfg memsys.Config, protoName string, prog memsys.Program) (*Result, error) {
	env, err := memsys.NewEnv(cfg, prog.FootprintBytes(), prog.Regions())
	if err != nil {
		return nil, err
	}
	proto, err := NewProtocol(env, protoName)
	if err != nil {
		return nil, err
	}
	r := NewRunner(env, proto, prog)
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
	Size    workloads.Size
	Threads int // 0 = 16 (the paper's tile count)
	// Protocols selects the protocol specs. nil = all nine; an empty
	// non-nil list is an error (it would run no cells).
	Protocols []string
	// Benchmarks selects the workloads, as registry specs: ported
	// benchmark names, synthetic patterns with optional parameters
	// ("uniform(p=0.1)", "hotspot(t=2)"), or trace replays
	// ("replay(file=x.trc)"). nil = the paper's six benchmarks; an empty
	// non-nil list is an error.
	Benchmarks []string
	// Topology selects the NoC topology for every cell: "mesh" (default),
	// "ring", or "torus".
	Topology string
	// MeshWidth and MeshHeight re-dimension the tile grid for every cell
	// (0,0 = the paper's 4x4). Both must be set together; the tile count,
	// corner MC placement and Bloom bank geometry follow the dimensions
	// (memsys.Config.WithMesh), and Threads must not exceed the tile count.
	MeshWidth  int
	MeshHeight int
	// Router selects the fabric's forwarding model for every cell:
	// "ideal" (default), "vc" (the cycle-level VC wormhole router), or
	// "deflection" (the cycle-level bufferless deflection router).
	Router string
	// VCs overrides the vc router's virtual-channel count per input port
	// for every cell (0 = the model default; must be even and >= 2, see
	// memsys.Config.VCs).
	VCs int
	// VCDepth overrides the vc router's flit buffer depth per VC for every
	// cell (0 = the model default).
	VCDepth int
	// Workers bounds the number of simulations running concurrently:
	// 0 = one per available CPU (GOMAXPROCS), 1 = serial reference mode on
	// the calling goroutine. Cells are independent simulations, so the
	// assembled Matrix is bit-identical at every worker count.
	Workers int
}
