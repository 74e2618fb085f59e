package job

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

func postJob(t *testing.T, ts *httptest.Server, body string) *http.Response {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeError(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	var e struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatalf("error body did not decode: %v", err)
	}
	return e.Error
}

// malformedBodies are request bodies the server must refuse with a 400,
// each with a substring of its error. FuzzRequestValidate seeds its
// corpus with them.
var malformedBodies = []struct {
	body string
	want string
}{
	// The exact message trafficsim -sweep 'hotspot(t=4)' prints.
	{`{"sweep":"hotspot(t=4)"}`, `core: sweep "hotspot(t=4)": no parameter has multiple values (use a range like t=1..16 or a list like t=1,2,4)`},
	{`{"sweep":"hotspot(t=1,2)","benchmarks":["FFT"]}`, "sets the benchmark axis"},
	{`{"size":"huge"}`, `unknown size "huge"`},
	{`{"protocols":["NOPE"]}`, "NOPE"},
	// Explicitly empty lists ([] is not an omitted field) would run
	// zero cells: a matrix with nothing to render, a sweep that never
	// completes a point.
	{`{"protocols":[],"benchmarks":["FFT"],"figures":["5.1a"]}`, "core: empty protocol list"},
	{`{"benchmarks":[],"protocols":["MESI"]}`, "core: empty benchmark list"},
	{`{"sweep":"hotspot(t=1,2)","protocols":[]}`, "core: sweep point hotspot.t = 1: core: empty protocol list"},
	// What only the planner catches is rejected at submit with the
	// planner's own message, never queued to fail as a 500.
	{`{"threads":100,"benchmarks":["FFT"],"protocols":["MESI"]}`, "core: threads 100 > tiles 16"},
	{`{"threads":-3,"benchmarks":["FFT"],"protocols":["MESI"]}`, "core: threads -3 must be >= 1"},
	// VC geometry does nothing outside the vc router.
	{`{"vcs":4}`, "vc router"},
	{`{"router":"vc","vcs":3}`, "memsys: VCs = 3; the dateline split needs an even count >= 2"},
	{`{"router":"vc","vcdepth":-2}`, "memsys: VCDepth = -2 must not be negative"},
	// Unbounded VC geometry used to be accepted and then run the
	// process out of memory building the router.
	{`{"router":"vc","vcs":20000000}`, "memsys: VCs = 20000000 exceeds the maximum 64"},
	{`{"router":"vc","vcdepth":200000000}`, "memsys: VCDepth = 200000000 exceeds the maximum 64"},
	{`{"mesh":"2x2"}`, "core: threads 16 > tiles 4"},
	// So were unbounded mesh dimensions.
	{`{"mesh":"2000x2000","benchmarks":["FFT"],"protocols":["MESI"]}`, "memsys: mesh dimensions 2000x2000: each side must be at most 16"},
	{`{"mesh":"17x4"}`, "memsys: mesh dimensions 17x4: each side must be at most 16"},
	{`{"mesh":"4294967297x4294967297"}`, "memsys: mesh dimensions 4294967297x4294967297: each side must be at most 16"},
	{`{"protocols":["MESI","MESI"]}`, `core: protocols "MESI" and "MESI" are the same configuration`},
	{`{"benchmarks":["FFT"," FFT "]}`, `core: benchmarks "FFT" and " FFT " are the same workload`},
	// The sweep cap has a ceiling: planning cost grows with every point.
	{`{"sweep":"threads=1,2","maxpoints":10001}`, "core: sweep cap 10001 exceeds the ceiling of 10000 points"},
	{`{"sweep":"threads=1,2","maxpoints":2000000000}`, "core: sweep cap 2000000000 exceeds the ceiling of 10000 points"},
	// A sweep cap beside a matrix is dead, as the CLI says.
	{`{"figures":["5.1a"],"maxpoints":500}`, "-maxpoints configures sweep runs and is dead without one; add -sweep"},
	{`{"bogus":1}`, "invalid request JSON"},
	{`not json`, "invalid request JSON"},
}

// Malformed submissions are loud 4xx with the same validation messages
// the CLIs print — the registry's own words, not a generic "bad request".
func TestServerRejectsMalformedRequests(t *testing.T) {
	q := NewQueue(QueueOptions{})
	defer q.Shutdown(context.Background())
	ts := httptest.NewServer(NewServer(q))
	defer ts.Close()

	for _, c := range malformedBodies {
		resp := postJob(t, ts, c.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("POST %s: status %d, want 400", c.body, resp.StatusCode)
		}
		if msg := decodeError(t, resp); !strings.Contains(msg, c.want) {
			t.Fatalf("POST %s: error %q does not contain %q", c.body, msg, c.want)
		}
	}

	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/job-99")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET unknown job: status %d, want 404", resp.StatusCode)
	}
}

// The whole HTTP lifecycle on a real sweep: submit, stream the NDJSON
// events to completion, fetch the result — whose text rendering is
// byte-identical to what the orchestration layer (and therefore the CLI)
// produces — then resubmit and get the cache-served twin, also
// byte-identical, with zero simulated points.
func TestServerJobLifecycle(t *testing.T) {
	cache, err := core.OpenPointCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	q := NewQueue(QueueOptions{Cache: cache})
	defer q.Shutdown(context.Background())
	ts := httptest.NewServer(NewServer(q))
	defer ts.Close()

	const body = `{"sweep":"hotspot(t=1,2)","protocols":["MESI"],"workers":1}`
	resp := postJob(t, ts, body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, want 202", resp.StatusCode)
	}
	var sub submitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if sub.ID == "" || sub.State != StateQueued {
		t.Fatalf("submit response = %+v", sub)
	}

	// Stream events to completion: NDJSON, one Event per line, gap-free
	// Seq, closing when the job reaches a terminal state.
	resp, err = ts.Client().Get(ts.URL + "/v1/jobs/" + sub.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("events Content-Type = %q", ct)
	}
	var events []Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	resp.Body.Close()
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("event stream was empty")
	}
	for i, ev := range events {
		if int(ev.Seq) != i {
			t.Fatalf("event %d has Seq %d: stream must be gap-free", i, ev.Seq)
		}
	}

	// The stream ended, so the job is terminal.
	st := httpStatus(t, ts, sub.ID)
	if st.State != StateDone {
		t.Fatalf("job state = %s (%s), want done", st.State, st.Error)
	}
	if st.Progress.PointsDone != 2 {
		t.Fatalf("progress = %+v, want 2 points done", st.Progress)
	}

	// Replaying the stream from an offset returns only the tail.
	resp, err = ts.Client().Get(fmt.Sprintf("%s/v1/jobs/%s/events?from=%d", ts.URL, sub.ID, len(events)-1))
	if err != nil {
		t.Fatal(err)
	}
	tail, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if n := bytes.Count(tail, []byte("\n")); n != 1 {
		t.Fatalf("events?from=%d returned %d lines, want 1", len(events)-1, n)
	}

	// The text rendering is the byte-identity contract: exactly what the
	// orchestration layer renders for this request (which the CLI shims
	// print verbatim — pinned against the real binaries in CI).
	req := Request{Sweep: "hotspot(t=1,2)", Protocols: []string{"MESI"}, Workers: 1}
	out, err := q.Result(sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	if err := out.RenderText(&want, req); err != nil {
		t.Fatal(err)
	}
	text := httpResultText(t, ts, sub.ID)
	if text != want.String() {
		t.Fatalf("result?format=text differs from RenderText:\n--- http\n%s\n--- direct\n%s", text, want.String())
	}

	// The JSON result carries the assembled table and per-point metadata.
	resp, err = ts.Client().Get(ts.URL + "/v1/jobs/" + sub.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	var res resultResponse
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if res.Sweep == nil || res.Sweep.Expected != 2 || len(res.Sweep.Points) != 2 || res.Sweep.Table == nil {
		t.Fatalf("result JSON = %+v, want a complete 2-point sweep", res)
	}

	// Cancelling a finished job is a conflict, not a silent no-op.
	delReq, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+sub.ID, nil)
	resp, err = ts.Client().Do(delReq)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("DELETE on a done job: status %d, want 409", resp.StatusCode)
	}

	// An identical resubmission is served from the shared cache: zero
	// simulated points, byte-identical text.
	resp = postJob(t, ts, body)
	var sub2 submitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub2); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := q.Wait(ctx, sub2.ID); err != nil {
		t.Fatal(err)
	}
	st2 := httpStatus(t, ts, sub2.ID)
	if st2.State != StateDone || st2.Progress.PointsCached != 2 || st2.Progress.PointsDone != 2 {
		t.Fatalf("resubmission status = %+v, want done with 2/2 points cached", st2)
	}
	if text2 := httpResultText(t, ts, sub2.ID); text2 != text {
		t.Fatalf("cache-served result differs:\n--- first\n%s\n--- second\n%s", text, text2)
	}
}

// A matrix job is a one-point sweep: it reports the point lifecycle as
// point 0 of 1, so a cache-served resubmission shows points_cached 1, and
// the JSON result's matrix.cached comes from that count.
func TestServerMatrixCachedResubmission(t *testing.T) {
	cache, err := core.OpenPointCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	q := NewQueue(QueueOptions{Cache: cache})
	defer q.Shutdown(context.Background())
	ts := httptest.NewServer(NewServer(q))
	defer ts.Close()

	submit := func() (Status, resultResponse) {
		t.Helper()
		resp := postJob(t, ts, `{"figures":["5.1a"],"benchmarks":["FFT"],"protocols":["MESI"],"workers":1}`)
		var sub submitResponse
		if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := q.Wait(ctx, sub.ID); err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + sub.ID + "/result")
		if err != nil {
			t.Fatal(err)
		}
		var res resultResponse
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if res.Matrix == nil || len(res.Matrix.Figures) != 1 {
			t.Fatalf("result JSON = %+v, want one matrix figure", res)
		}
		return httpStatus(t, ts, sub.ID), res
	}

	st, res := submit()
	if want := (Progress{CellsStarted: 1, PointsTotal: 1, PointsDone: 1}); st.State != StateDone || st.Progress != want {
		t.Fatalf("first matrix job = %+v, want done with progress %+v", st, want)
	}
	if res.Matrix.Cached {
		t.Fatal("first matrix result claims to be cached")
	}
	st, res = submit()
	if want := (Progress{PointsTotal: 1, PointsDone: 1, PointsCached: 1}); st.State != StateDone || st.Progress != want {
		t.Fatalf("resubmitted matrix job = %+v, want done with progress %+v", st, want)
	}
	if !res.Matrix.Cached {
		t.Fatal("cache-served matrix result is not marked cached")
	}
}

func httpStatus(t *testing.T, ts *httptest.Server, id string) Status {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET status: %d", resp.StatusCode)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func httpResultText(t *testing.T, ts *httptest.Server, id string) string {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + id + "/result?format=text")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET result?format=text: %d", resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// A full FIFO answers 503 + Retry-After — backpressure, not an error the
// client can't distinguish from a broken server.
func TestServerQueueFull(t *testing.T) {
	b := newBlockingRunner()
	q := NewQueue(QueueOptions{Bound: 1})
	q.runFn = b.run
	defer func() { close(b.release); q.Shutdown(context.Background()) }()
	ts := httptest.NewServer(NewServer(q))
	defer ts.Close()

	resp := postJob(t, ts, `{}`)
	resp.Body.Close()
	waitStart(t, b)
	resp = postJob(t, ts, `{}`) // fills the single waiting slot
	resp.Body.Close()
	resp = postJob(t, ts, `{}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit past the bound: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without a Retry-After header")
	}
}

// DELETE on a running job cancels it; with nothing completed the result
// endpoint reports the conflict instead of inventing an empty table.
func TestServerCancelRunning(t *testing.T) {
	started := make(chan struct{}, 1)
	q := NewQueue(QueueOptions{})
	q.runFn = func(ctx context.Context, req Request, rc RunConfig) (*Outcome, error) {
		started <- struct{}{}
		<-ctx.Done()
		return nil, ctx.Err()
	}
	defer q.Shutdown(context.Background())
	ts := httptest.NewServer(NewServer(q))
	defer ts.Close()

	resp := postJob(t, ts, `{}`)
	var sub submitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("job never started")
	}

	// Fetching the result of an unfinished job is a 409 pointing at the
	// event stream, not an empty 200.
	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + sub.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("result of a running job: status %d, want 409", resp.StatusCode)
	}

	delReq, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+sub.ID, nil)
	resp, err = ts.Client().Do(delReq)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE running job: status %d, want 200", resp.StatusCode)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := q.Wait(ctx, sub.ID); err != nil {
		t.Fatal(err)
	}
	if st := httpStatus(t, ts, sub.ID); st.State != StateCancelled {
		t.Fatalf("state after DELETE = %s, want cancelled", st.State)
	}
	resp, err = ts.Client().Get(ts.URL + "/v1/jobs/" + sub.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("result of a cancelled-empty job: status %d, want 409", resp.StatusCode)
	}
}

// The catalog endpoint serves exactly the papertables text, and liveness
// answers without touching the queue.
func TestServerCatalogAndHealth(t *testing.T) {
	q := NewQueue(QueueOptions{})
	defer q.Shutdown(context.Background())
	ts := httptest.NewServer(NewServer(q))
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/v1/catalog")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("catalog: status %d", resp.StatusCode)
	}
	var want bytes.Buffer
	if err := FprintInventory(&want, "4x4"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatal("catalog differs from FprintInventory output")
	}

	resp, err = ts.Client().Get(ts.URL + "/v1/catalog?mesh=bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("catalog with bad mesh: status %d, want 400", resp.StatusCode)
	}

	resp, err = ts.Client().Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte(`"ok":true`)) {
		t.Fatalf("healthz: %d %q", resp.StatusCode, body)
	}
}
