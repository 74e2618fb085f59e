package job

import (
	"context"

	"repro/internal/core"
)

// RunConfig is the per-run policy a transport attaches to a Request:
// where cached results live and where progress events go. The zero value
// runs without a cache and without events.
type RunConfig struct {
	// Cache, if non-nil, is the content-addressed result store: points
	// (a matrix is one) already present are served from disk
	// bit-identically, and completed ones persist as the run goes — which
	// is also what makes an interrupted run resumable.
	Cache *core.PointCache
	// Events, if non-nil, receives the run's unified progress stream
	// under the contract documented in events.go: serialized delivery,
	// gap-free Seq, lifecycle order per point.
	Events func(Event)
}

// Outcome is a run's assembled result: exactly one of Matrix (matrix
// requests) or Sweep (sweep requests) is non-nil. After a cancelled or
// failed sweep, Sweep still carries every point that completed — partial
// results are returned alongside the error, never discarded. A matrix
// that did not complete leaves the Outcome nil.
type Outcome struct {
	// Matrix is the matrix run's full benchmark x protocol result: the
	// single point of the one-point sweep the engine ran.
	Matrix *core.Matrix `json:"matrix,omitempty"`
	// Sweep is the sweep run's per-point results in sweep order.
	Sweep *core.SweepResult `json:"sweep,omitempty"`
}

// Run executes a validated Request through core.Run — a matrix request
// is the engine's one-point sweep, so both kinds share the worker pool,
// the bit-identical-at-any-worker-count assembly, the cache/resume
// machinery and context cancellation. The engine's progress stream
// (cell starts and point lifecycles, already serialized) is numbered and
// forwarded to rc.Events.
//
// Errors: a UsageError means the request itself is wrong (callers
// usually Validate first, making that unreachable); anything else is a
// run failure. A cancelled or failing sweep returns the partial Outcome
// alongside the error — with a cache attached, those points are already
// persisted, so resubmitting the same request resumes instead of
// restarting.
func Run(ctx context.Context, req Request, rc RunConfig) (*Outcome, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	opt, err := req.matrixOptions()
	if err != nil {
		return nil, usage(err)
	}
	ro := req.runOptions()
	ro.Cache = rc.Cache
	if rc.Events != nil {
		// core.Run delivers one event at a time, so the counter needs no
		// lock of its own.
		var seq int64
		ro.Progress = func(p core.SweepProgress) {
			ev := newEvent(p)
			ev.Seq = seq
			seq++
			rc.Events(ev)
		}
	}
	res, err := core.Run(ctx, opt, ro)
	var out *Outcome
	switch {
	case res == nil:
	case req.IsSweep():
		out = &Outcome{Sweep: res}
	case len(res.Points) == 1:
		out = &Outcome{Matrix: res.Points[0].Matrix}
	}
	return out, err
}
