package job

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/core"
)

// State is a queued job's lifecycle state.
type State string

// The job states. A job moves queued -> running -> done|failed|cancelled;
// cancel-while-queued jumps straight to cancelled without ever running.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final (no more events, result —
// possibly partial — available).
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Queue errors every transport maps onto its own vocabulary (CLI exit
// codes, HTTP statuses).
var (
	// ErrQueueFull: the bounded FIFO is at capacity; the submission was
	// rejected, not dropped — retry later.
	ErrQueueFull = errors.New("job: queue full, retry later")
	// ErrShutdown: the queue is draining and accepts no new jobs.
	ErrShutdown = errors.New("job: queue is shutting down")
	// ErrUnknownJob: no job with that id was ever submitted here.
	ErrUnknownJob = errors.New("job: unknown job id")
	// ErrFinished: the job already reached a terminal state, so there is
	// nothing left to cancel.
	ErrFinished = errors.New("job: already finished")
)

// Progress counts a job's unified-stream events, the cheap summary a
// status poll wants without replaying the stream.
type Progress struct {
	// CellsStarted counts matrix cells claimed by workers so far.
	CellsStarted int `json:"cells_started"`
	// PointsTotal is the run's point count: the sweep's expansion size,
	// or 1 for a matrix job (a one-point sweep). It is 0 until the first
	// point event.
	PointsTotal int `json:"points_total,omitempty"`
	// PointsDone counts completed points — simulated and cache-served
	// alike.
	PointsDone int `json:"points_done,omitempty"`
	// PointsCached counts the subset of completed points served from the
	// cache; PointsDone - PointsCached is the simulated count.
	PointsCached int `json:"points_cached,omitempty"`
}

// Status is a point-in-time snapshot of one job.
type Status struct {
	// ID is the queue-assigned job id ("job-1", "job-2", ...).
	ID string `json:"id"`
	// Kind is "matrix" or "sweep".
	Kind string `json:"kind"`
	// State is the job's current lifecycle state.
	State State `json:"state"`
	// Error carries the run error for failed (and cancelled) jobs.
	Error string `json:"error,omitempty"`
	// Progress summarizes the event stream so far.
	Progress Progress `json:"progress"`
	// Events is the number of stream events recorded so far (the next
	// EventsSince cursor).
	Events int `json:"events"`
}

// QueueOptions configures NewQueue.
type QueueOptions struct {
	// Bound caps the jobs waiting to run (running jobs hold no slot);
	// Submit past it fails with ErrQueueFull instead of queueing
	// unboundedly. 0 means 16.
	Bound int
	// Executors is the number of jobs running concurrently. The default
	// (0) means 1: a single job already saturates the host through the
	// engine's shared worker pool, so concurrent jobs buy latency overlap
	// only when individual requests are small.
	Executors int
	// Cache, if non-nil, is the shared result store every job runs
	// against: identical submissions are served cached and bit-identical,
	// and cancelled sweeps keep their finished points for the next
	// submission to resume from.
	Cache *core.PointCache
}

// task is one submitted job. All fields are guarded by the queue's
// mutex; events/outcome are only handed out as snapshots.
type task struct {
	id        string
	req       Request
	state     State
	err       error
	outcome   *Outcome
	events    []Event
	prog      Progress
	cancelled bool
	cancel    context.CancelFunc
	notify    chan struct{} // closed and replaced on every change
	done      chan struct{} // closed once, on reaching a terminal state
}

// bump wakes every waiter: the previous notify channel closes and a
// fresh one takes its place.
func (t *task) bump() {
	close(t.notify)
	t.notify = make(chan struct{})
}

// Queue is a bounded FIFO of Requests running through the shared engine:
// Submit validates and enqueues, executor goroutines run jobs in
// submission order via Run, Status/EventsSince/Result observe, Cancel
// stops (queued or running), Shutdown drains gracefully. Completed jobs
// stay observable for the queue's lifetime — the result store for "fetch
// the result later" transports; the content-addressed cache, not the job
// map, is the durable layer.
type Queue struct {
	opts QueueOptions
	// runFn is the execution seam (Run in production; tests substitute a
	// controllable fake to pin queue semantics without simulating).
	runFn func(context.Context, Request, RunConfig) (*Outcome, error)

	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu     sync.Mutex
	jobs   map[string]*task
	ch     chan *task
	closed bool
	nextID int
	wg     sync.WaitGroup
}

// NewQueue starts a queue with opts.Executors executor goroutines.
// Callers own its lifecycle: Shutdown drains it.
func NewQueue(opts QueueOptions) *Queue {
	if opts.Bound <= 0 {
		opts.Bound = 16
	}
	if opts.Executors <= 0 {
		opts.Executors = 1
	}
	ctx, cancel := context.WithCancel(context.Background())
	q := &Queue{
		opts:       opts,
		runFn:      Run,
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       make(map[string]*task),
		ch:         make(chan *task, opts.Bound),
	}
	for i := 0; i < opts.Executors; i++ {
		q.wg.Add(1)
		go func() {
			defer q.wg.Done()
			for t := range q.ch {
				q.exec(t)
			}
		}()
	}
	return q
}

// Submit validates req with ValidateStrict (which ends in core.Plan, the
// planner the run itself uses, so anything the run would reject fails
// here with the same loud message) and enqueues it. It returns the job id,
// ErrQueueFull when the FIFO is at its bound, ErrShutdown after
// Shutdown, or the validation UsageError.
func (q *Queue) Submit(req Request) (string, error) {
	if err := req.ValidateStrict(); err != nil {
		return "", err
	}
	req.Normalize()
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return "", ErrShutdown
	}
	q.nextID++
	t := &task{
		id:     fmt.Sprintf("job-%d", q.nextID),
		req:    req,
		state:  StateQueued,
		notify: make(chan struct{}),
		done:   make(chan struct{}),
	}
	select {
	case q.ch <- t:
	default:
		q.nextID-- // the id was never exposed; reuse it
		return "", ErrQueueFull
	}
	q.jobs[t.id] = t
	return t.id, nil
}

// exec runs one dequeued job to a terminal state (or skips it if it was
// cancelled while queued).
func (q *Queue) exec(t *task) {
	q.mu.Lock()
	if t.state != StateQueued { // cancelled while queued
		q.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancel(q.baseCtx)
	t.cancel = cancel
	t.state = StateRunning
	t.bump()
	q.mu.Unlock()

	out, err := q.runFn(ctx, t.req, RunConfig{
		Cache:  q.opts.Cache,
		Events: func(ev Event) { q.record(t, ev) },
	})
	cancel()

	q.mu.Lock()
	t.outcome = out
	switch {
	case err == nil:
		t.state = StateDone
	case t.cancelled || errors.Is(err, context.Canceled):
		t.state = StateCancelled
		t.err = err
	default:
		t.state = StateFailed
		t.err = err
	}
	close(t.done)
	t.bump()
	q.mu.Unlock()
}

// record appends one stream event and folds it into the progress counts.
func (q *Queue) record(t *task, ev Event) {
	q.mu.Lock()
	t.events = append(t.events, ev)
	switch ev.Kind {
	case core.KindCell:
		t.prog.CellsStarted++
	case core.KindPoint:
		t.prog.PointsTotal = ev.Total
		switch ev.Status {
		case core.StatusCached:
			t.prog.PointsCached++
			t.prog.PointsDone++
		case core.StatusDone:
			t.prog.PointsDone++
		}
	}
	t.bump()
	q.mu.Unlock()
}

func (q *Queue) lookup(id string) (*task, error) {
	t := q.jobs[id]
	if t == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	return t, nil
}

// Status snapshots one job.
func (q *Queue) Status(id string) (Status, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	t, err := q.lookup(id)
	if err != nil {
		return Status{}, err
	}
	st := Status{
		ID:       t.id,
		Kind:     t.req.Kind(),
		State:    t.state,
		Progress: t.prog,
		Events:   len(t.events),
	}
	if t.err != nil {
		st.Error = t.err.Error()
	}
	return st, nil
}

// Request returns the job's (normalized) request — what renderers need
// to turn an Outcome back into the CLI's exact tables.
func (q *Queue) Request(id string) (Request, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	t, err := q.lookup(id)
	if err != nil {
		return Request{}, err
	}
	return t.req, nil
}

// Result returns the job's outcome. For done jobs that is the full
// result; for cancelled or failed sweeps it is the partial result
// (completed points, never discarded) and may be nil when nothing
// finished. Non-terminal jobs have no result yet — callers gate on
// Status.
func (q *Queue) Result(id string) (*Outcome, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	t, err := q.lookup(id)
	if err != nil {
		return nil, err
	}
	return t.outcome, nil
}

// EventsSince returns the job's unified-stream events from position
// `from` on, the current state, and a channel that closes on the next
// change — everything a streaming transport needs to replay history and
// then follow live without polling.
func (q *Queue) EventsSince(id string, from int) ([]Event, State, <-chan struct{}, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	t, err := q.lookup(id)
	if err != nil {
		return nil, "", nil, err
	}
	if from < 0 {
		from = 0
	}
	var evs []Event
	if from < len(t.events) {
		evs = append(evs, t.events[from:]...)
	}
	return evs, t.state, t.notify, nil
}

// Cancel stops a job: a queued job goes straight to cancelled (it never
// runs), a running job's context is cancelled so the engine stops its
// running cells within 65,536 events each and keeps — and, with a
// cache, has already persisted — every completed point. Cancelling a
// terminal job returns ErrFinished.
func (q *Queue) Cancel(id string) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	t, err := q.lookup(id)
	if err != nil {
		return err
	}
	switch t.state {
	case StateQueued:
		t.state = StateCancelled
		t.cancelled = true
		close(t.done)
		t.bump()
		return nil
	case StateRunning:
		t.cancelled = true
		if t.cancel != nil {
			t.cancel()
		}
		return nil
	default:
		return fmt.Errorf("%w: %s is %s", ErrFinished, id, t.state)
	}
}

// Wait blocks until the job reaches a terminal state or ctx is done.
func (q *Queue) Wait(ctx context.Context, id string) error {
	q.mu.Lock()
	t, err := q.lookup(id)
	q.mu.Unlock()
	if err != nil {
		return err
	}
	select {
	case <-t.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Shutdown drains the queue gracefully: no new submissions, queued jobs
// are cancelled (they never started; nothing is lost), and running jobs
// get until ctx expires to finish. When the grace period runs out the
// running jobs' contexts are cancelled — the engine stops the running
// cells within 65,536 events and returns partial results, and with a
// shared cache every completed sweep point is already persisted, so the
// next submission of the same request resumes instead of restarting.
// Shutdown returns once every executor has stopped.
func (q *Queue) Shutdown(ctx context.Context) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		q.wg.Wait()
		return
	}
	q.closed = true
	close(q.ch)
	for _, t := range q.jobs {
		if t.state == StateQueued {
			t.state = StateCancelled
			t.cancelled = true
			close(t.done)
			t.bump()
		}
	}
	q.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		q.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
	case <-ctx.Done():
		q.mu.Lock()
		for _, t := range q.jobs {
			if t.state == StateRunning {
				t.cancelled = true
				if t.cancel != nil {
					t.cancel()
				}
			}
		}
		q.mu.Unlock()
		<-drained
	}
	q.baseCancel()
}
