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
// single cursor in point-major order, so early points finish (and
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
// the order the old serial double loop used).
type matrixCell struct{ bench, proto int }

// matrixPlan is one fully resolved simulation batch — a matrix, or one
// sweep point: normalized options, the validated system config, the cell
// list, and per-cell result slots. Workload programs are built lazily on
// the point's first claimed cell so a 10,000-point sweep does not hold
// 10,000 programs alive up front.
type matrixPlan struct {
	opt        MatrixOptions
	cfg        memsys.Config
	benchSpecs []*workloads.Spec // non-nil when opt.Benchmarks was explicit
	cells      []matrixCell

	buildOnce sync.Once
	buildErr  error
	progs     []memsys.Program

	results   []*Result
	errs      []error
	remaining atomic.Int64 // cells not yet finished; 0 = point complete
	announced bool         // first cell claimed (guarded by the pool's progress mutex)
}

// planMatrix validates and normalizes one matrix configuration without
// running (or building) anything: protocol and workload specs are resolved
// through their registries so spelling variants of one configuration share
// a key and unknown names fail before any simulation, and the system
// config is validated with the axis overrides applied.
func planMatrix(opt MatrixOptions) (*matrixPlan, error) {
	if opt.Threads == 0 {
		opt.Threads = 16
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
	var benchSpecs []*workloads.Spec
	if opt.Benchmarks == nil {
		opt.Benchmarks = workloads.Names()
	} else {
		// Normalize workload specs like protocol specs: spelling variants
		// of one configuration share a matrix key, and unknown benchmarks
		// fail loudly before any cell runs (the old path silently skipped
		// them via a nil program). Duplicate canonical specs are an error
		// for the same reason as duplicate protocols.
		normalized := make([]string, len(opt.Benchmarks))
		benchSpecs = make([]*workloads.Spec, len(opt.Benchmarks))
		seen := make(map[string]string, len(opt.Benchmarks))
		for i, spec := range opt.Benchmarks {
			s, err := workloads.ParseSpec(spec)
			if err != nil {
				return nil, fmt.Errorf("core: %w", err)
			}
			if prev, dup := seen[s.Canonical]; dup {
				return nil, fmt.Errorf("core: benchmarks %q and %q are the same workload %q", prev, spec, s.Canonical)
			}
			seen[s.Canonical] = spec
			normalized[i] = s.Canonical
			benchSpecs[i] = s
		}
		opt.Benchmarks = normalized
	}

	cfg := memsys.Default().Scaled(opt.Size.ScaleDiv())
	if opt.MeshWidth != 0 || opt.MeshHeight != 0 {
		// Both dimensions travel together: a half-set pair would silently
		// simulate a shape the caller never asked for.
		if opt.MeshWidth < 1 || opt.MeshHeight < 1 {
			return nil, fmt.Errorf("core: mesh dimensions %dx%d: set both MeshWidth and MeshHeight to >= 1", opt.MeshWidth, opt.MeshHeight)
		}
		if opt.MeshWidth*opt.MeshHeight < 2 {
			return nil, fmt.Errorf("core: mesh dimensions %dx%d: a 1-tile network has no links; use at least 2 tiles", opt.MeshWidth, opt.MeshHeight)
		}
		cfg = cfg.WithMesh(opt.MeshWidth, opt.MeshHeight)
	}
	if opt.Threads > cfg.Tiles {
		return nil, fmt.Errorf("core: threads %d > tiles %d (%dx%d mesh); cores map one-per-tile, so shrink Threads/-threads or grow the mesh",
			opt.Threads, cfg.Tiles, cfg.MeshWidth, cfg.MeshHeight)
	}
	if opt.Topology != "" {
		cfg.Topology = opt.Topology
	}
	if opt.Router != "" {
		cfg.Router = opt.Router
	}
	if opt.VCs != 0 {
		cfg.VCs = opt.VCs
	}
	if opt.VCDepth != 0 {
		cfg.VCDepth = opt.VCDepth
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
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
		for i, bench := range p.opt.Benchmarks {
			var err error
			if p.benchSpecs != nil {
				progs[i], err = p.benchSpecs[i].Build(p.opt.Size, p.opt.Threads)
			} else {
				progs[i], err = workloads.ByName(bench, p.opt.Size, p.opt.Threads)
			}
			if err != nil {
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
func (p *matrixPlan) runCell(i int) {
	if err := p.build(); err != nil {
		p.errs[i] = err
		return
	}
	c := p.cells[i]
	res, err := RunOne(p.cfg, p.opt.Protocols[c.proto], p.progs[c.bench])
	if err != nil {
		p.errs[i] = fmt.Errorf("core: %s/%s: %w",
			p.opt.Protocols[c.proto], p.opt.Benchmarks[c.bench], err)
		return
	}
	p.results[i] = res
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
	m := &Matrix{
		Size:       p.opt.Size,
		Topology:   p.cfg.Topology,
		Router:     p.cfg.Router,
		Benchmarks: p.opt.Benchmarks,
		Protocols:  p.opt.Protocols,
		Results:    make(map[string]map[string]*Result, len(p.opt.Benchmarks)),
	}
	for i, c := range p.cells {
		bench := p.opt.Benchmarks[c.bench]
		row := m.Results[bench]
		if row == nil {
			row = make(map[string]*Result, len(p.opt.Protocols))
			m.Results[bench] = row
		}
		row[p.opt.Protocols[c.proto]] = p.results[i]
	}
	return m, nil
}

// schedJob indexes one cell of one plan in the shared pool's claim order.
type schedJob struct{ point, cell int }

// poolHooks are the scheduler's observation points. cellStarted and
// pointStarted fire under one mutex, in claim order (pointStarted before
// the point's first cellStarted); pointDone fires exactly once per
// completed point, on whichever worker finished its last cell.
type poolHooks struct {
	cellStarted  func(point, cell int)
	pointStarted func(point int)
	pointDone    func(point int, p *matrixPlan)
}

// runPlans drives every cell of every plan through one shared worker pool.
// workers <= 0 means one per available CPU; workers == 1 is the serial
// reference mode, running jobs in point-major order on the calling
// goroutine. The first cell error stops the pool from claiming new work
// (in-flight cells finish; their points may still complete); cancelling
// ctx does the same and is reported as the returned error. Per-point
// success or failure is read off each plan afterwards.
func runPlans(ctx context.Context, plans []*matrixPlan, workers int, hooks poolHooks) error {
	var jobs []schedJob
	for pi, p := range plans {
		for ci := range p.cells {
			jobs = append(jobs, schedJob{pi, ci})
		}
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}

	var (
		failed atomic.Bool // a cell errored: stop claiming new work
		progMu sync.Mutex  // serializes the started hooks
	)
	announce := func(j schedJob) {
		if hooks.pointStarted == nil && hooks.cellStarted == nil {
			return
		}
		p := plans[j.point]
		progMu.Lock()
		if !p.announced {
			p.announced = true
			if hooks.pointStarted != nil {
				hooks.pointStarted(j.point)
			}
		}
		if hooks.cellStarted != nil {
			hooks.cellStarted(j.point, j.cell)
		}
		progMu.Unlock()
	}
	runJob := func(j schedJob) {
		p := plans[j.point]
		p.runCell(j.cell)
		if p.errs[j.cell] != nil {
			failed.Store(true)
		}
		if p.remaining.Add(-1) == 0 && hooks.pointDone != nil {
			hooks.pointDone(j.point, p)
		}
	}

	if workers <= 1 {
		// Serial reference mode: jobs run in point-major order on the
		// calling goroutine, exactly like the original nested loops.
		for _, j := range jobs {
			if err := ctx.Err(); err != nil {
				return err
			}
			if failed.Load() {
				break
			}
			announce(j)
			runJob(j)
		}
		return ctx.Err()
	}

	var (
		cursor atomic.Int64 // next job to claim
		wg     sync.WaitGroup
	)
	cursor.Store(-1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1))
				if i >= len(jobs) || failed.Load() || ctx.Err() != nil {
					return
				}
				announce(jobs[i])
				runJob(jobs[i])
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}
