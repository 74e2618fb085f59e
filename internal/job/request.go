// Package job is the run-orchestration layer between a request and an
// assembled result. It factors everything the front ends share —
// request validation, matrix/sweep execution, progress plumbing,
// cache/resume policy, cancellation — into three pieces layered under
// any transport:
//
//	Request  one matrix or sweep run, as plain serializable strings;
//	         ValidateStrict is its one validator, and it ends in
//	         core.Plan, the planner core.Run itself runs
//	Run      executes a Request via the core engine with ONE serialized
//	         progress-event stream (events.go) and a content-addressed
//	         result cache
//	Queue    a bounded FIFO of Requests with per-job states, streamed
//	         events, cancellation and graceful drain
//
// cmd/trafficsim and cmd/papertables are flag-parsing shims over this
// package; cmd/simserver is an HTTP/JSON transport over Queue
// (server.go). See DESIGN.md "The layered run pipeline".
package job

import (
	"errors"
	"fmt"

	"repro/internal/core"
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
	// Topology, Router, Mesh, VCs, VCDepth and Threads pin the engine
	// knobs of the same names (core.Knobs); "" or 0 leaves a knob at the
	// engine default, the only spelling that lets a sweep over it run.
	Topology string `json:"topology,omitempty"`
	Router   string `json:"router,omitempty"`
	Mesh     string `json:"mesh,omitempty"`
	VCs      int    `json:"vcs,omitempty"`
	VCDepth  int    `json:"vcdepth,omitempty"`
	Threads  int    `json:"threads,omitempty"`
	// Workers bounds concurrent cell simulations (0 = one per CPU,
	// 1 = serial). Scheduling never changes results, only wall-clock.
	Workers int `json:"workers,omitempty"`
	// MaxPoints raises the sweep expansion cap (0 = the default cap,
	// core.DefaultSweepPointCap), up to core.MaxSweepPointCap. It
	// configures sweeps only: a matrix request that sets it is an error.
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

// ValidateStrict is the one request validator; every entry point calls
// it before anything simulates. It checks what only the request knows —
// MaxPoints, the input scale, figure ids, and figures or a summary beside
// a sweep — then plans the request with core.Plan, the planner core.Run
// itself runs, so a request it accepts cannot fail planning inside Run.
// Every error is a UsageError (CLI exit 2, HTTP 400) carrying the
// parser's, the registry's or the planner's own message.
func (r *Request) ValidateStrict() error {
	if r.MaxPoints < 0 {
		return usagef("-maxpoints %d: the sweep cap must be >= 1 (default %d)", r.MaxPoints, core.DefaultSweepPointCap)
	}
	if r.MaxPoints != 0 && !r.IsSweep() {
		return usagef("-maxpoints configures sweep runs and is dead without one; add -sweep")
	}
	opt, err := r.matrixOptions()
	if err != nil {
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
	if r.IsSweep() && (len(r.Figures) > 0 || r.Summary) {
		return usagef("-sweep prints its own assembled table; drop -fig/-summary")
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
	return core.MatrixOptions{
		Size:       size,
		Threads:    r.Threads,
		Protocols:  r.Protocols,
		Benchmarks: r.Benchmarks,
		Topology:   r.Topology,
		Mesh:       r.Mesh,
		Router:     r.Router,
		VCs:        r.VCs,
		VCDepth:    r.VCDepth,
		Workers:    r.Workers,
	}, nil
}
