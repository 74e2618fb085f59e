package core

// The sharded experiment engine and its two-level scheduler. Every
// (benchmark, protocol) cell of a matrix is an independent simulation
// with its own Env (kernel, mesh, caches, DRAM), so cells can run on as
// many OS threads as the host offers. The discrete-event kernel is fully
// deterministic and workload Programs are immutable after construction,
// which makes a parallel run bit-identical to the serial one — only
// wall-clock time changes.
//
// A run is a list of points (a matrix is one point; Run in sweep.go plans
// them); a point is a batch of matrix cells; every cell of every point
// feeds one shared worker pool. Workers claim (point, cell) jobs from a
// single cursor in point-major order, under the lock that orders the
// run's progress stream (events.go), so early points finish (and
// persist, and stream to callers) first, while idle workers spill into
// later points instead of waiting at a per-point barrier. Each cell is an
// independent, fully deterministic simulation, so the schedule cannot
// change any result — only wall-clock time — and results are always
// assembled in point-major matrix order, which keeps the assembled output
// bit-identical at every worker count.

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/memsys"
	"repro/internal/workloads"
)

// matrixCell indexes one simulation job in matrix order (benchmark-major,
// the order the serial reference run claims cells in).
type matrixCell struct{ bench, proto int }

// matrixPlan is one fully resolved simulation batch — a matrix, or one
// sweep point: normalized options, the validated system config, the cell
// list, and per-cell result slots. Workload programs are built lazily on
// the point's first claimed cell so a 10,000-point sweep does not hold
// 10,000 programs alive up front.
type matrixPlan struct {
	opt        MatrixOptions
	cfg        memsys.Config
	benchSpecs []*workloads.Spec // parsed opt.Benchmarks, one per benchmark
	cells      []matrixCell

	buildOnce sync.Once
	buildErr  error
	progs     []memsys.Program

	results   []*Result
	errs      []error
	remaining atomic.Int64 // cells not yet finished; 0 = point complete
	announced bool         // first cell claimed (guarded by the stream's mutex)

	key    *PointKey // the point's cache key; nil without a cache, or uncacheable
	matrix *Matrix   // served from the cache (cached) or assembled
	cached bool
}

// planMatrix validates and normalizes one matrix configuration without
// running (or building) anything: every knob lands on the point's system
// config (knobs.go), protocol and workload specs are resolved through
// their registries so spelling variants of one configuration share a key
// and unknown names fail before any simulation, and the config is
// validated, with the two rules that span knobs.
func planMatrix(opt MatrixOptions) (*matrixPlan, error) {
	cfg := memsys.Default().Scaled(opt.Size.ScaleDiv())
	for _, k := range knobs {
		if err := k.land(&cfg, &opt); err != nil {
			return nil, err
		}
	}
	// An explicitly empty list (JSON "[]", unlike an omitted field) would
	// plan zero cells: a point that can never complete.
	switch {
	case opt.Protocols != nil && len(opt.Protocols) == 0:
		return nil, fmt.Errorf("core: empty protocol list; name at least one protocol, or leave the list unset for the paper's nine")
	case opt.Benchmarks != nil && len(opt.Benchmarks) == 0:
		return nil, fmt.Errorf("core: empty benchmark list; name at least one benchmark, or leave the list unset for the paper's six")
	}
	if opt.Protocols == nil {
		opt.Protocols = ProtocolNames()
	} else {
		// Normalize specs up front so whitespace spellings of one
		// composition share a matrix key (and unknown specs fail before
		// any cell runs). Two spellings of one configuration would
		// simulate the same cells twice and print duplicate figure rows,
		// so duplicates are an error, not a silent double-run.
		normalized := make([]string, len(opt.Protocols))
		seen := make(map[string]string, len(opt.Protocols))
		for i, spec := range opt.Protocols {
			v, err := ParseProtocol(spec)
			if err != nil {
				return nil, err
			}
			if prev, dup := seen[v.Spec]; dup {
				return nil, fmt.Errorf("core: protocols %q and %q are the same configuration %q", prev, spec, v.Spec)
			}
			seen[v.Spec] = spec
			normalized[i] = v.Spec
		}
		opt.Protocols = normalized
	}
	if opt.Benchmarks == nil {
		opt.Benchmarks = workloads.Names()
	}
	// Normalize workload specs like protocol specs: spelling variants of
	// one configuration share a matrix key, and unknown benchmarks fail
	// loudly before any cell runs (the old path silently skipped them via
	// a nil program). Duplicate canonical specs are an error for the same
	// reason as duplicate protocols.
	normalized := make([]string, len(opt.Benchmarks))
	benchSpecs := make([]*workloads.Spec, len(opt.Benchmarks))
	seen := make(map[string]string, len(opt.Benchmarks))
	for i, spec := range opt.Benchmarks {
		s, err := workloads.ParseSpec(spec)
		if err != nil {
			return nil, err
		}
		if prev, dup := seen[s.Canonical]; dup {
			return nil, fmt.Errorf("core: benchmarks %q and %q are the same workload %q", prev, spec, s.Canonical)
		}
		seen[s.Canonical] = spec
		normalized[i] = s.Canonical
		benchSpecs[i] = s
	}
	opt.Benchmarks = normalized

	if opt.Threads > cfg.Tiles {
		return nil, fmt.Errorf("core: threads %d > tiles %d (%s mesh); cores map one-per-tile, so shrink Threads/-threads or grow the mesh",
			opt.Threads, cfg.Tiles, opt.Mesh)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// Only the vc router reads VC geometry; under any other model the
	// knobs would be a silent no-op (and every point of a vcs= or
	// vcdepth= sweep identical).
	if (cfg.VCs != 0 || cfg.VCDepth != 0) && cfg.Router != "vc" {
		return nil, fmt.Errorf("core: VCs/VCDepth configure only the vc router and do nothing under the %s router; set Router/-router to vc", cfg.Router)
	}

	cells := make([]matrixCell, 0, len(opt.Benchmarks)*len(opt.Protocols))
	for bi := range opt.Benchmarks {
		for pi := range opt.Protocols {
			cells = append(cells, matrixCell{bi, pi})
		}
	}
	p := &matrixPlan{
		opt:        opt,
		cfg:        cfg,
		benchSpecs: benchSpecs,
		cells:      cells,
		results:    make([]*Result, len(cells)),
		errs:       make([]error, len(cells)),
	}
	p.remaining.Store(int64(len(cells)))
	return p, nil
}

// build constructs each workload program once per benchmark, shared across
// the plan's protocol cells: EmitOps is a pure function of (phase, thread)
// over state frozen at construction, so concurrent readers are safe. It
// runs on the first claimed cell (any worker) and is idempotent.
func (p *matrixPlan) build() error {
	p.buildOnce.Do(func() {
		progs := make([]memsys.Program, len(p.opt.Benchmarks))
		for i, spec := range p.benchSpecs {
			var err error
			if progs[i], err = spec.Build(p.opt.Size, p.opt.Threads); err != nil {
				p.buildErr = fmt.Errorf("core: %w", err)
				return
			}
		}
		p.progs = progs
	})
	return p.buildErr
}

// runCell simulates one cell into its result slot; errors land in the
// matching error slot so assemble can report the first one in matrix order.
func (p *matrixPlan) runCell(ctx context.Context, i int) {
	if err := p.build(); err != nil {
		p.errs[i] = err
		return
	}
	c := p.cells[i]
	res, err := RunOne(ctx, p.cfg, p.opt.Protocols[c.proto], p.progs[c.bench])
	if err != nil {
		p.errs[i] = fmt.Errorf("core: %s/%s: %w",
			p.opt.Protocols[c.proto], p.opt.Benchmarks[c.bench], err)
		return
	}
	p.results[i] = res
}

// shape returns the point's matrix without results.
func (p *matrixPlan) shape() Matrix {
	return Matrix{
		Size:       p.opt.Size,
		Topology:   p.cfg.Topology,
		Router:     p.cfg.Router,
		Benchmarks: p.opt.Benchmarks,
		Protocols:  p.opt.Protocols,
	}
}

// assemble builds the Matrix from the plan's completed cells, or returns
// the first cell error in matrix order (deterministically, whatever the
// schedule was).
func (p *matrixPlan) assemble() (*Matrix, error) {
	for _, err := range p.errs {
		if err != nil {
			return nil, err
		}
	}
	m := p.shape()
	m.Results = make(map[string]map[string]*Result, len(p.opt.Benchmarks))
	for i, c := range p.cells {
		bench := p.opt.Benchmarks[c.bench]
		row := m.Results[bench]
		if row == nil {
			row = make(map[string]*Result, len(p.opt.Protocols))
			m.Results[bench] = row
		}
		row[p.opt.Protocols[c.proto]] = p.results[i]
	}
	return &m, nil
}

// schedJob indexes one cell of one plan in the shared pool's claim order.
type schedJob struct{ point, cell int }

// runPlans drives every cell of every plan the cache did not serve through
// one shared worker pool. workers == 0 means one per available CPU;
// workers == 1 is the serial reference run, one pool goroutine claiming
// jobs in point-major order. A worker claims its next job under the
// stream's mutex and announces it (the point's "simulating" before its
// first cell) before it lets go, so cell events arrive in claim order. The
// first cell error stops the pool from claiming new work (in-flight cells
// finish; their points may still complete). Cancelling ctx also stops the
// cells in flight, each within 65,536 events, and is reported as the
// returned error. Per-point success or failure is read off each plan
// afterwards.
func runPlans(ctx context.Context, plans []*matrixPlan, workers int, st *stream, cache *PointCache) error {
	var jobs []schedJob
	for pi, p := range plans {
		if p.matrix == nil {
			for ci := range p.cells {
				jobs = append(jobs, schedJob{pi, ci})
			}
		}
	}
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}

	var (
		failed atomic.Bool // a cell errored: stop claiming new work
		next   int         // next job to claim, guarded by st.mu
		wg     sync.WaitGroup
	)
	claim := func() (schedJob, bool) {
		st.mu.Lock()
		defer st.mu.Unlock()
		if next >= len(jobs) || failed.Load() || ctx.Err() != nil {
			return schedJob{}, false
		}
		j := jobs[next]
		next++
		p := plans[j.point]
		c := p.cells[j.cell]
		if !p.announced {
			p.announced = true
			st.sendLocked(st.point(j.point, StatusSimulating, nil))
		}
		st.sendLocked(Event{Kind: KindCell, Bench: p.opt.Benchmarks[c.bench], Protocol: p.opt.Protocols[c.proto]})
		return j, true
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j, ok := claim()
				if !ok {
					return
				}
				p := plans[j.point]
				p.runCell(ctx, j.cell)
				if p.errs[j.cell] != nil {
					failed.Store(true)
				}
				if p.remaining.Add(-1) == 0 {
					p.finish(j.point, st, cache)
				}
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}

// finish assembles point i once its last cell has ended, persists it, and
// reports it. Assembly and the store run outside the stream's mutex.
func (p *matrixPlan) finish(i int, st *stream, cache *PointCache) {
	m, err := p.assemble()
	p.progs = nil // the point is done; let a long sweep's programs be collected
	if err != nil {
		// The cell error stays in p.errs; Run reports it in sweep order.
		return
	}
	p.matrix = m
	// A store failure must not fail the run — the point's result is in
	// hand; only a later resume pays (it resimulates). Report it loudly.
	var storeErr error
	if p.key != nil {
		storeErr = cache.Store(*p.key, m)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if storeErr != nil {
		st.sendLocked(st.point(i, StatusStoreFailed, storeErr))
	}
	st.sendLocked(st.point(i, StatusDone, nil))
}
