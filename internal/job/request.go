// Package job is the run-orchestration layer between a validated request
// and an assembled result. It factors everything the one-shot CLIs used
// to hand-wire — registry validation, matrix/sweep execution, progress
// plumbing, cache/resume policy, cancellation — into three reusable
// pieces layered under any transport:
//
//	Request  one matrix or sweep run, as plain serializable strings
//	         (every axis is already a registry spec with loud
//	         validation, which is what makes the API nearly free)
//	Run      executes a Request via the core engine with ONE serialized
//	         progress-event stream (events.go) and a content-addressed
//	         result cache
//	Queue    a bounded FIFO of Requests with per-job states, streamed
//	         events, cancellation and graceful drain
//
// cmd/trafficsim, cmd/papertables and examples/loadsweep are flag-parsing
// shims over this package; cmd/simserver is an HTTP/JSON transport over
// Queue (server.go). See DESIGN.md "The layered run pipeline".
package job

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/memsys"
	"repro/internal/workloads"
)

// UsageError marks a request the caller got wrong — an unknown name, a
// malformed spec, a conflicting knob combination — as opposed to a
// simulation failing at runtime. CLIs exit 2 on it (their usage-error
// convention) and the HTTP transport answers 400; the message is the
// same loud text either way.
type UsageError struct {
	// Err is the underlying validation error, verbatim.
	Err error
}

// Error returns the underlying message unchanged, so clients print
// exactly the text the registries and parsers produce.
func (e *UsageError) Error() string { return e.Err.Error() }

// Unwrap exposes the underlying error to errors.Is/As.
func (e *UsageError) Unwrap() error { return e.Err }

// IsUsageError reports whether err is a request-validation error (exit 2
// / HTTP 400) rather than a run failure (exit 1 / HTTP 500).
func IsUsageError(err error) bool {
	var u *UsageError
	return errors.As(err, &u)
}

func usage(err error) error { return &UsageError{Err: err} }

func usagef(format string, args ...any) error {
	return usage(fmt.Errorf(format, args...))
}

// Request is one run, fully described by transport-friendly values: every
// axis is a registry spec string the engine validates loudly, so a
// Request deserialized from JSON carries exactly the same vocabulary as
// one built from CLI flags. The zero value of each field means "engine
// default" — mirroring the CLIs, which only pin the knobs passed
// explicitly so sweeps can tell "defaulted" from "pinned".
type Request struct {
	// Figures lists the figure tables to assemble for a matrix run:
	// figure ids (core.FigureIDs) or "all". Meaningless under Sweep.
	Figures []string `json:"figures,omitempty"`
	// Summary adds the headline paper-vs-measured averages to a matrix
	// run's output.
	Summary bool `json:"summary,omitempty"`
	// Size is the input scale: "tiny" (default when empty), "small" or
	// "paper".
	Size string `json:"size,omitempty"`
	// Benchmarks selects workloads as registry specs (nil = the paper's
	// six). A workload-parameter sweep owns this axis; setting both is an
	// error.
	Benchmarks []string `json:"benchmarks,omitempty"`
	// Protocols selects protocol specs (nil = the paper's nine). A
	// protocol-axis sweep owns this axis.
	Protocols []string `json:"protocols,omitempty"`
	// Sweep, when non-empty, makes this a sweep run over the given spec
	// ("axis=v1,v2,..." or "family(key=lo..hi)"); empty means a matrix
	// run.
	Sweep string `json:"sweep,omitempty"`
	// Topology pins the NoC topology ("" = mesh, the engine default —
	// and the only spelling that lets a topology sweep run).
	Topology string `json:"topology,omitempty"`
	// Router pins the fabric forwarding model ("" = ideal).
	Router string `json:"router,omitempty"`
	// Mesh pins the tile-grid dimensions as "WxH" ("" = the paper's 4x4).
	Mesh string `json:"mesh,omitempty"`
	// VCs and VCDepth pin the vc router's buffer geometry (0 = model
	// default; dead — and rejected — under any other router).
	VCs     int `json:"vcs,omitempty"`
	VCDepth int `json:"vcdepth,omitempty"`
	// Threads is the simulated worker-thread count (0 = 16, the paper's
	// tile count).
	Threads int `json:"threads,omitempty"`
	// Workers bounds concurrent cell simulations (0 = one per CPU,
	// 1 = serial). Scheduling never changes results, only wall-clock.
	Workers int `json:"workers,omitempty"`
	// MaxPoints raises the sweep expansion cap (0 = the default cap,
	// core.DefaultSweepPointCap).
	MaxPoints int `json:"maxpoints,omitempty"`
}

// IsSweep reports whether the request is a sweep run.
func (r *Request) IsSweep() bool { return r.Sweep != "" }

// Kind names the request's run kind for statuses and logs.
func (r *Request) Kind() string {
	if r.IsSweep() {
		return "sweep"
	}
	return "matrix"
}

// Normalize applies the CLI's output defaulting: a matrix request that
// names no figures and no summary means "everything" — all figure tables
// plus the summary, exactly like running trafficsim with no -fig.
func (r *Request) Normalize() {
	if !r.IsSweep() && len(r.Figures) == 0 && !r.Summary {
		r.Figures = []string{"all"}
		r.Summary = true
	}
}

// SizeFromName resolves the input-scale name ("" defaults to tiny, the
// scale every CLI defaults to).
func SizeFromName(name string) (workloads.Size, error) {
	switch name {
	case "", "tiny":
		return workloads.Tiny, nil
	case "small":
		return workloads.Small, nil
	case "paper":
		return workloads.Paper, nil
	}
	return 0, fmt.Errorf("unknown size %q", name)
}

// FigureIDs returns the figure ids a matrix request renders, with "all"
// expanded, in request order.
func (r *Request) FigureIDs() []string {
	var ids []string
	for _, id := range r.Figures {
		if id == "all" {
			ids = append(ids, core.FigureIDs()...)
		} else {
			ids = append(ids, id)
		}
	}
	return ids
}

// Validate checks everything the pre-refactor CLIs checked before paying
// for any simulation, in the same order and with the same loud messages:
// knob conflicts, the input scale, figure ids, workload specs, the mesh
// shape, and — for sweeps — the spec itself plus axis-ownership
// conflicts. Every error is a UsageError (CLI exit 2, HTTP 400).
// Deliberately NOT checked here: what only planning finds — protocol
// specs, duplicate or empty lists, threads past the tile count, router
// geometry — which the engine reports when the run starts (the CLIs
// historically reported those at run time with exit 1, and byte-identical
// behavior is pinned); the HTTP transport closes that gap with
// ValidateStrict.
func (r *Request) Validate() error {
	if (r.VCs != 0 || r.VCDepth != 0) && r.Router != "vc" {
		return usagef("-vcs/-vcdepth configure the vc router and are dead under any other model; add -router vc")
	}
	if r.MaxPoints < 0 {
		return usagef("-maxpoints %d: the sweep cap must be >= 1 (default %d)", r.MaxPoints, core.DefaultSweepPointCap)
	}
	if _, err := SizeFromName(r.Size); err != nil {
		return usage(err)
	}
	for _, id := range r.Figures {
		if id == "all" {
			continue
		}
		if err := core.ValidFigureID(id); err != nil {
			return usage(err)
		}
	}
	for _, spec := range r.Benchmarks {
		if _, err := workloads.ParseSpec(spec); err != nil {
			return usage(err)
		}
	}
	if r.Mesh != "" {
		if _, _, err := memsys.ParseMeshDims(r.Mesh); err != nil {
			return usage(err)
		}
	}
	if r.IsSweep() {
		if len(r.Figures) > 0 || r.Summary {
			return usagef("-sweep prints its own assembled table; drop -fig/-summary")
		}
		s, err := core.ParseSweepLimit(r.Sweep, r.MaxPoints)
		if err != nil {
			return usage(err)
		}
		opt, err := r.matrixOptions()
		if err != nil {
			return usage(err)
		}
		if _, err := s.PointOptions(opt); err != nil {
			return usage(err)
		}
	}
	return nil
}

// ValidateStrict is Validate plus the checks the CLIs defer to run time:
// the request is planned by core.Plan, the planner core.Run itself runs,
// so a transport that wants every malformed request rejected at
// submission (the HTTP server's 400 contract) catches whatever Run would
// reject — protocol specs, duplicate or empty lists, threads past the
// tile count, a bad router geometry — before the job queues, with the
// planner's own message.
func (r *Request) ValidateStrict() error {
	if err := r.Validate(); err != nil {
		return err
	}
	opt, err := r.matrixOptions()
	if err != nil {
		return usage(err)
	}
	if err := core.Plan(opt, r.runOptions()); err != nil {
		return usage(err)
	}
	return nil
}

// runOptions maps the request's sweep onto the engine's run options (an
// empty Sweep runs the matrix as a one-point sweep).
func (r *Request) runOptions() core.RunOptions {
	return core.RunOptions{Sweep: r.Sweep, MaxPoints: r.MaxPoints}
}

// matrixOptions maps the request onto the engine's per-point options: zero
// fields stay zero so the engine applies its own defaults and sweeps can
// still claim unpinned axes.
func (r *Request) matrixOptions() (core.MatrixOptions, error) {
	size, err := SizeFromName(r.Size)
	if err != nil {
		return core.MatrixOptions{}, err
	}
	opt := core.MatrixOptions{
		Size:       size,
		Threads:    r.Threads,
		Protocols:  r.Protocols,
		Benchmarks: r.Benchmarks,
		Topology:   r.Topology,
		Router:     r.Router,
		VCs:        r.VCs,
		VCDepth:    r.VCDepth,
		Workers:    r.Workers,
	}
	if r.Mesh != "" {
		w, h, err := memsys.ParseMeshDims(r.Mesh)
		if err != nil {
			return core.MatrixOptions{}, err
		}
		opt.MeshWidth, opt.MeshHeight = w, h
	}
	return opt, nil
}
