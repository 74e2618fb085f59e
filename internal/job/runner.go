package job

import (
	"context"

	"repro/internal/core"
)

// Event is the engine's progress event; core.Event documents the stream's
// contract. It and the constants below alias core's definitions under the
// names the benchmark module's service client reads.
type Event = core.Event

// The core event kind and statuses of the same names.
const (
	KindCell          = core.KindCell
	StatusCached      = core.StatusCached
	StatusStoreFailed = core.StatusStoreFailed
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
	// Events, if non-nil, receives the run's progress stream under the
	// contract documented on core.Event: serialized delivery, gap-free
	// Seq, cell events in claim order, lifecycle order per point.
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

// Run validates req with ValidateStrict and executes it through core.Run
// — a matrix request is the engine's one-point sweep, so both kinds share
// the worker pool, the bit-identical-at-any-worker-count assembly, the
// cache/resume machinery and context cancellation. The engine delivers
// its progress stream (cell claims and point lifecycles, serialized and
// numbered) to rc.Events.
//
// Errors: a UsageError means the request itself is wrong and nothing
// ran; anything else is a run failure. A cancelled or failing sweep
// returns the partial Outcome alongside the error — with a cache
// attached, those points are already persisted, so resubmitting the same
// request resumes instead of restarting.
func Run(ctx context.Context, req Request, rc RunConfig) (*Outcome, error) {
	if err := req.ValidateStrict(); err != nil {
		return nil, err
	}
	opt, _ := req.matrixOptions() // validated above
	ro := req.runOptions()
	ro.Cache, ro.Progress = rc.Cache, rc.Events
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
