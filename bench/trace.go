package main

import (
	"encoding/json"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/job"
	"repro/internal/memsys"
	"repro/internal/workloads"
)

// The traced run's replay: the cells behind an op are re-simulated
// serially, each public layer call wrapped in a span, and the layers'
// work counters are read off each finished Env. The spans are recorded
// from the benchmark's own files, around the calls into each layer; the
// program itself is not instrumented.

// span is one timed call. Spans of one op share Op; Parent is the id of
// the span that made the call (0 for an op's root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// counters sums the layers' work counts over every replayed cell.
type counters struct {
	Events, Cycles, Clamped   uint64
	Packets, FlitHops, Defl   uint64
	Delivered                 uint64
	LatencyWeighted           float64 // Σ mean latency × delivered packets
	LinkUtilMax               float64
	WasteInstances            uint64
	DRAMRequests              uint64
	DRAMRowHits, DRAMRowTotal uint64
}

type tracer struct {
	t0    time.Time
	spans []span
	ops   int // ops replayed
	c     counters
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent int) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.ops, Name: name, Start: int64(time.Since(t.t0))})
	return id
}

func (t *tracer) end(id int) { t.spans[id-1].End = int64(time.Since(t.t0)) }

// durations returns the duration in seconds of every span named name.
func (t *tracer) durations(name string) []float64 {
	var d []float64
	for _, s := range t.spans {
		if s.Name == name {
			d = append(d, float64(s.End-s.Start)/1e9)
		}
	}
	return d
}

func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// replayConf is what a replayed cell needs beyond its benchmark and
// protocol: the system config, the input scale and the thread count.
type replayConf struct {
	cfg     memsys.Config
	size    workloads.Size
	threads int
}

// replayConfig resolves a request's per-cell system config the way the
// engine does for the knobs the workloads set. The replay's equality
// check is what proves the two agree.
func replayConfig(req job.Request) (replayConf, error) {
	size, err := job.SizeFromName(req.Size)
	if err != nil {
		return replayConf{}, err
	}
	cfg := memsys.Default().Scaled(size.ScaleDiv())
	if req.Mesh != "" {
		w, h, err := memsys.ParseMeshDims(req.Mesh)
		if err != nil {
			return replayConf{}, err
		}
		cfg = cfg.WithMesh(w, h)
	}
	if req.Router != "" {
		cfg.Router = req.Router
	}
	threads := req.Threads
	if threads == 0 {
		threads = 16
	}
	return replayConf{cfg: cfg, size: size, threads: threads}, nil
}

// replayMatrix re-simulates a matrix's cells in cell order (each
// benchmark's program built once, as the engine does) and returns their
// results.
func (t *tracer) replayMatrix(parent int, rc replayConf, benches, protos []string) ([]*core.Result, error) {
	var out []*core.Result
	for _, b := range benches {
		id := t.begin("workloads.ByName", parent)
		prog, err := workloads.ByName(b, rc.size, rc.threads)
		t.end(id)
		if err != nil {
			return nil, err
		}
		for _, p := range protos {
			r, err := t.replayCell(parent, rc.cfg, prog, p)
			if err != nil {
				return nil, err
			}
			out = append(out, r)
		}
	}
	return out, nil
}

// replayCell is core.RunOne with a span around each layer call.
func (t *tracer) replayCell(parent int, cfg memsys.Config, prog memsys.Program, proto string) (*core.Result, error) {
	cell := t.begin("cell", parent)
	defer t.end(cell)

	id := t.begin("memsys.NewEnv", cell)
	env, err := memsys.NewEnv(cfg, prog.FootprintBytes(), prog.Regions())
	t.end(id)
	if err != nil {
		return nil, err
	}
	id = t.begin("core.NewProtocol", cell)
	p, err := core.NewProtocol(env, proto)
	t.end(id)
	if err != nil {
		return nil, err
	}
	id = t.begin("core.Runner.Run", cell)
	r := core.NewRunner(env, p, prog)
	err = r.Run()
	t.end(id)
	if err != nil {
		return nil, err
	}

	id = t.begin("snapshot", cell)
	res := &core.Result{
		Protocol:      p.Name(),
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
	t.end(id)

	c := &t.c
	c.Events += env.K.Steps()
	c.Cycles += uint64(env.K.Now())
	c.Clamped += env.K.Clamped()
	c.Packets += env.Mesh.Packets()
	c.FlitHops += env.Mesh.FlitHops()
	c.Defl += res.Net.DeflectedHops
	c.Delivered += res.Net.Delivered
	c.LatencyWeighted += res.Net.LatencyMean * float64(res.Net.Delivered)
	c.LinkUtilMax = max(c.LinkUtilMax, res.Net.LinkUtilMax)
	c.WasteInstances += uint64(env.Prof.Instances())
	for _, ch := range env.Chans {
		c.DRAMRequests += ch.Reads + ch.Writes
		c.DRAMRowHits += ch.RowHits
		c.DRAMRowTotal += ch.RowHits + ch.RowMisses
	}
	return res, nil
}
