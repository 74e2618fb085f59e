package job

import (
	"context"
	"errors"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// blockingRunner is a controllable fake for the queue's runFn seam: it
// reports each start on started, then blocks until release closes or the
// job's context is cancelled (returning a partial outcome alongside the
// context error, the engine's contract).
type blockingRunner struct {
	started chan string
	release chan struct{}
}

func newBlockingRunner() *blockingRunner {
	return &blockingRunner{started: make(chan string, 16), release: make(chan struct{})}
}

func (b *blockingRunner) run(ctx context.Context, req Request, rc RunConfig) (*Outcome, error) {
	b.started <- req.Sweep
	select {
	case <-b.release:
		return &Outcome{Sweep: &core.SweepResult{Expected: 2}}, nil
	case <-ctx.Done():
		return &Outcome{Sweep: &core.SweepResult{Expected: 2}}, ctx.Err()
	}
}

func waitStart(t *testing.T, b *blockingRunner) {
	t.Helper()
	select {
	case <-b.started:
	case <-time.After(5 * time.Second):
		t.Fatal("job never started")
	}
}

func waitTerminal(t *testing.T, q *Queue, id string) Status {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := q.Wait(ctx, id); err != nil {
		t.Fatalf("Wait(%s): %v", id, err)
	}
	st, err := q.Status(id)
	if err != nil {
		t.Fatalf("Status(%s): %v", id, err)
	}
	return st
}

// The FIFO bound counts waiting jobs: with the single executor occupied,
// submissions queue up to the bound, the next one is rejected loudly with
// ErrQueueFull (not dropped, not blocked), and capacity freed by a
// finishing job is usable again.
func TestQueueBoundSaturation(t *testing.T) {
	b := newBlockingRunner()
	q := NewQueue(QueueOptions{Bound: 2})
	q.runFn = b.run
	defer q.Shutdown(context.Background())

	first, err := q.Submit(Request{})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitStart(t, b) // the executor holds job 1; the FIFO is empty again
	var queued []string
	for i := 0; i < 2; i++ {
		id, err := q.Submit(Request{})
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		queued = append(queued, id)
	}
	if _, err := q.Submit(Request{}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("Submit past the bound: err = %v, want ErrQueueFull", err)
	}

	close(b.release)
	for _, id := range append([]string{first}, queued...) {
		if st := waitTerminal(t, q, id); st.State != StateDone {
			t.Fatalf("job %s finished %s, want done", id, st.State)
		}
	}
	if _, err := q.Submit(Request{}); err != nil {
		t.Fatalf("Submit after drain: %v", err)
	}
}

// Cancelling a queued job is immediate — it never runs, the executor
// skips it — while cancelling a running job cancels its context and the
// job keeps the partial outcome the runner returned. A second cancel is
// ErrFinished either way.
func TestQueueCancelQueuedVsRunning(t *testing.T) {
	b := newBlockingRunner()
	q := NewQueue(QueueOptions{Bound: 4})
	q.runFn = b.run
	defer func() { close(b.release); q.Shutdown(context.Background()) }()

	running, err := q.Submit(Request{})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitStart(t, b)
	queued, err := q.Submit(Request{})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}

	if err := q.Cancel(queued); err != nil {
		t.Fatalf("Cancel(queued): %v", err)
	}
	st := waitTerminal(t, q, queued)
	if st.State != StateCancelled {
		t.Fatalf("queued job state = %s, want cancelled", st.State)
	}
	out, err := q.Result(queued)
	if err != nil || out != nil {
		t.Fatalf("cancelled-while-queued result = %v, %v; want nil, nil (it never ran)", out, err)
	}

	if err := q.Cancel(running); err != nil {
		t.Fatalf("Cancel(running): %v", err)
	}
	st = waitTerminal(t, q, running)
	if st.State != StateCancelled {
		t.Fatalf("running job state = %s, want cancelled", st.State)
	}
	out, err = q.Result(running)
	if err != nil || out == nil || out.Sweep == nil {
		t.Fatalf("cancelled-while-running result = %v, %v; want the partial outcome", out, err)
	}
	if err := q.Cancel(running); !errors.Is(err, ErrFinished) {
		t.Fatalf("second Cancel: err = %v, want ErrFinished", err)
	}

	// The executor skipped the cancelled-while-queued job; it must still
	// be alive to run new submissions.
	id, err := q.Submit(Request{})
	if err != nil {
		t.Fatalf("Submit after cancels: %v", err)
	}
	waitStart(t, b)
	if st, _ := q.Status(id); st.State != StateRunning {
		t.Fatalf("post-cancel job state = %s, want running", st.State)
	}
}

// Graceful drain: Shutdown rejects new submissions, cancels queued jobs
// (nothing lost — they never started), and when the grace period expires
// force-cancels running jobs, which keep their partial outcomes.
func TestQueueShutdownDrainPartials(t *testing.T) {
	b := newBlockingRunner()
	q := NewQueue(QueueOptions{Bound: 4})
	q.runFn = b.run

	running, err := q.Submit(Request{})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitStart(t, b)
	queued, err := q.Submit(Request{})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}

	grace, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	q.Shutdown(grace) // returns only once the executors stopped

	if _, err := q.Submit(Request{}); !errors.Is(err, ErrShutdown) {
		t.Fatalf("Submit after Shutdown: err = %v, want ErrShutdown", err)
	}
	if st, _ := q.Status(queued); st.State != StateCancelled {
		t.Fatalf("queued job state = %s, want cancelled", st.State)
	}
	if out, _ := q.Result(queued); out != nil {
		t.Fatalf("queued job has an outcome (%v); it never ran", out)
	}
	st, _ := q.Status(running)
	if st.State != StateCancelled {
		t.Fatalf("running job state = %s, want cancelled (grace expired)", st.State)
	}
	out, _ := q.Result(running)
	if out == nil || out.Sweep == nil {
		t.Fatal("force-cancelled job lost its partial outcome")
	}
}

// Submit validates strictly: malformed requests never enter the queue,
// and the error text is the registries' and the planner's own (the same
// message the CLIs print and the HTTP transport returns as a 400).
func TestQueueSubmitValidation(t *testing.T) {
	q := NewQueue(QueueOptions{})
	defer q.Shutdown(context.Background())

	cases := []struct {
		req  Request
		want string
	}{
		{Request{Size: "huge"}, `unknown size "huge"`},
		{Request{Sweep: "hotspot(t=4)"}, "no parameter has multiple values"},
		{Request{Sweep: "hotspot(t=1,2)", Benchmarks: []string{"FFT"}}, "sets the benchmark axis"},
		{Request{Protocols: []string{"NOPE"}}, "NOPE"},
		{Request{Protocols: []string{}, Benchmarks: []string{"FFT"}, Figures: []string{"5.1a"}}, "core: empty protocol list"},
		{Request{Benchmarks: []string{}, Protocols: []string{"MESI"}}, "core: empty benchmark list"},
		{Request{Sweep: "hotspot(t=1,2)", Protocols: []string{}}, "core: sweep point hotspot.t = 1: core: empty protocol list"},
		{Request{Threads: 100, Benchmarks: []string{"FFT"}, Protocols: []string{"MESI"}}, "core: threads 100 > tiles 16"},
		{Request{Threads: -3, Benchmarks: []string{"FFT"}, Protocols: []string{"MESI"}}, "core: threads -3 must be >= 1"},
		{Request{VCs: 4}, "vc router"},
		{Request{Router: "vc", VCs: 3}, "memsys: VCs = 3; the dateline split needs an even count >= 2"},
		{Request{Router: "vc", VCDepth: -2}, "memsys: VCDepth = -2 must not be negative"},
		{Request{Router: "vc", VCs: 20000000}, "memsys: VCs = 20000000 exceeds the maximum 64"},
		{Request{Router: "vc", VCDepth: 200000000}, "memsys: VCDepth = 200000000 exceeds the maximum 64"},
		{Request{Mesh: "2x2"}, "core: threads 16 > tiles 4"},
		{Request{Mesh: "2000x2000", Benchmarks: []string{"FFT"}, Protocols: []string{"MESI"}}, "memsys: mesh dimensions 2000x2000: each side must be at most 16"},
		{Request{Mesh: "4x17"}, "memsys: mesh dimensions 4x17: each side must be at most 16"},
		{Request{Mesh: "4294967297x4294967297"}, "memsys: mesh dimensions 4294967297x4294967297: each side must be at most 16"},
		{Request{Protocols: []string{"MESI", "MESI"}}, `core: protocols "MESI" and "MESI" are the same configuration`},
		{Request{Benchmarks: []string{"FFT", " FFT "}}, `core: benchmarks "FFT" and " FFT " are the same workload`},
		{Request{Sweep: "threads=1,2", MaxPoints: 10001}, "core: sweep cap 10001 exceeds the ceiling of 10000 points"},
		{Request{Sweep: "threads=1,2", MaxPoints: 2000000000}, "core: sweep cap 2000000000 exceeds the ceiling of 10000 points"},
		{Request{Figures: []string{"5.1a"}, MaxPoints: 500}, "-maxpoints configures sweep runs and is dead without one; add -sweep"},
	}
	for _, c := range cases {
		id, err := q.Submit(c.req)
		if err == nil {
			t.Fatalf("Submit(%+v) accepted as %s, want validation error", c.req, id)
		}
		if !IsUsageError(err) {
			t.Fatalf("Submit(%+v): %v is not a UsageError", c.req, err)
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Fatalf("Submit(%+v): error %q does not contain %q", c.req, err, c.want)
		}
	}
}

// An identical resubmission is served entirely from the shared cache —
// zero simulated points — and renders bit-identically to the first run.
// This is the server's result-store contract end to end on the real
// runner.
func TestQueueCachedResubmissionBitIdentical(t *testing.T) {
	cache, err := core.OpenPointCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	q := NewQueue(QueueOptions{Cache: cache})
	defer q.Shutdown(context.Background())

	req := Request{Sweep: "hotspot(t=1,2)", Protocols: []string{"MESI"}, Workers: 1}
	render := func(id string) string {
		t.Helper()
		out, err := q.Result(id)
		if err != nil || out == nil {
			t.Fatalf("Result(%s): %v, %v", id, out, err)
		}
		r, err := q.Request(id)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if err := out.RenderText(&sb, r); err != nil {
			t.Fatalf("RenderText: %v", err)
		}
		return sb.String()
	}

	first, err := q.Submit(req)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if st := waitTerminal(t, q, first); st.State != StateDone {
		t.Fatalf("first run: %s (%s)", st.State, st.Error)
	}

	second, err := q.Submit(req)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	st := waitTerminal(t, q, second)
	if st.State != StateDone {
		t.Fatalf("second run: %s (%s)", st.State, st.Error)
	}
	if st.Progress.PointsDone != 2 || st.Progress.PointsCached != 2 {
		t.Fatalf("resubmission progress = %+v, want 2/2 points cached (0 simulated)", st.Progress)
	}
	if a, b := render(first), render(second); a != b {
		t.Fatalf("cached resubmission rendered differently:\n--- first\n%s\n--- second\n%s", a, b)
	}
}

// A trace's thread count is read only when its cell builds the program,
// so a 32-thread replay on the 16-tile default mesh passes Submit. The job
// must then end failed with the tile message, and the queue must keep
// serving: the old panic in a pool goroutine ended the whole process.
func TestQueueReplayMoreThreadsThanTilesFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fft32.trc")
	if err := trace.WriteFile(path, trace.Record(workloads.MustByName("FFT", workloads.Tiny, 32))); err != nil {
		t.Fatal(err)
	}
	q := NewQueue(QueueOptions{})
	defer q.Shutdown(context.Background())

	req := Request{Figures: []string{"5.1a"}, Protocols: []string{"DeNovo"}, Workers: 1}
	req.Benchmarks = []string{"replay(file=" + path + ")"}
	bad, err := q.Submit(req)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if st := waitTerminal(t, q, bad); st.State != StateFailed || !strings.Contains(st.Error, "has 16 tiles") {
		t.Fatalf("32-thread replay on 4x4: %s (%q), want failed with the tile count", st.State, st.Error)
	}

	req.Benchmarks = []string{"FFT"}
	good, err := q.Submit(req)
	if err != nil {
		t.Fatalf("Submit after the failed job: %v", err)
	}
	if st := waitTerminal(t, q, good); st.State != StateDone {
		t.Fatalf("job after the failed one: %s (%s), want done", st.State, st.Error)
	}
}

// Cancelling a running job stops the cell it is simulating: a Small
// radix cell runs for seconds, and the job must reach cancelled well
// before that (DELETE on simserver and Shutdown's force-cancel rely on
// this).
func TestQueueCancelStopsRunningCell(t *testing.T) {
	if testing.Short() {
		t.Skip("times a Small cell, which -race slows tenfold")
	}
	q := NewQueue(QueueOptions{})
	defer q.Shutdown(context.Background())
	id, err := q.Submit(Request{Size: "small", Figures: []string{"5.1a"},
		Protocols: []string{"MESI"}, Benchmarks: []string{"radix"}})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	for seen := 0; ; {
		evs, _, changed, err := q.EventsSince(id, seen)
		if err != nil {
			t.Fatal(err)
		}
		if slices.ContainsFunc(evs, func(ev Event) bool { return ev.Kind == KindCell }) {
			break
		}
		seen += len(evs)
		select {
		case <-changed:
		case <-deadline:
			t.Fatal("the cell never started")
		}
	}
	start := time.Now()
	if err := q.Cancel(id); err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, q, id); st.State != StateCancelled {
		t.Fatalf("state %s (%s), want cancelled", st.State, st.Error)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("job stopped %v after the cancel, want under 2s", d)
	}
}
