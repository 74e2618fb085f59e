package job

// The HTTP/JSON transport over Queue — the service face of the layered
// pipeline (cmd/simserver is a flag-parsing shim around this handler):
//
//	POST   /v1/jobs             submit a Request, get a job id (202)
//	GET    /v1/jobs/{id}        status + progress counts
//	GET    /v1/jobs/{id}/events unified progress stream as NDJSON
//	GET    /v1/jobs/{id}/result assembled SweepTable / figure JSON
//	                            (?format=text renders the CLI's exact
//	                            bytes, the byte-identity contract)
//	DELETE /v1/jobs/{id}        cancel (queued or running)
//	GET    /v1/catalog          the registry inventories, as text
//	GET    /v1/healthz          liveness
//
// Errors are loud and carry the same validation messages the CLIs
// print: a malformed Request is a 400 with the registry's own error
// text, a full queue is a 503 with Retry-After, an unknown id is a 404.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/core"
)

// Server serves the job API over a Queue.
type Server struct {
	q   *Queue
	mux *http.ServeMux
}

// NewServer builds the handler around an existing queue (whose lifecycle
// — including graceful Shutdown — the caller owns).
func NewServer(q *Queue) *Server {
	s := &Server{q: q, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /v1/jobs", s.submit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.status)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.events)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.result)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.cancel)
	s.mux.HandleFunc("GET /v1/catalog", s.catalog)
	s.mux.HandleFunc("GET /v1/healthz", s.healthz)
	return s
}

// ServeHTTP dispatches to the API routes.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// writeJSON writes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

// writeError writes the loud error body; the message is whatever the
// registries and parsers said, verbatim.
func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// submitResponse acknowledges an accepted job.
type submitResponse struct {
	// ID is the queue-assigned job id.
	ID string `json:"id"`
	// State is the job's state at acceptance (always "queued").
	State State `json:"state"`
	// URL is the job's status resource.
	URL string `json:"url"`
}

func (s *Server) submit(w http.ResponseWriter, r *http.Request) {
	var req Request
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("invalid request JSON: %w", err))
		return
	}
	id, err := s.q.Submit(req)
	switch {
	case err == nil:
	case IsUsageError(err):
		writeError(w, http.StatusBadRequest, err)
		return
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrShutdown):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, err)
		return
	default:
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusAccepted, submitResponse{ID: id, State: StateQueued, URL: "/v1/jobs/" + id})
}

func (s *Server) status(w http.ResponseWriter, r *http.Request) {
	st, err := s.q.Status(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// events streams the job's unified progress stream as NDJSON: recorded
// history first (from ?from=seq, default 0), then live events as they
// arrive, ending when the job reaches a terminal state. Every line is
// one Event; Seq is gap-free, so a dropped connection resumes with
// ?from=<last seq + 1>.
func (s *Server) events(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	from := 0
	if f := r.URL.Query().Get("from"); f != "" {
		n, err := strconv.Atoi(f)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("invalid from=%q: want a non-negative event sequence number", f))
			return
		}
		from = n
	}
	if _, _, _, err := s.q.EventsSince(id, from); err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for {
		evs, state, changed, err := s.q.EventsSince(id, from)
		if err != nil {
			return
		}
		for _, ev := range evs {
			enc.Encode(ev)
		}
		from += len(evs)
		if flusher != nil && len(evs) > 0 {
			flusher.Flush()
		}
		if state.Terminal() {
			return
		}
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		}
	}
}

// sweepResultBody is the JSON shape of a completed (or partial) sweep.
type sweepResultBody struct {
	// Spec and Axis identify the sweep.
	Spec string `json:"spec"`
	Axis string `json:"axis"`
	// Expected is the sweep's expansion size; fewer points than expected
	// means a partial (cancelled or failed) result.
	Expected int `json:"expected"`
	// Points lists each completed point's axis value and whether it was
	// served from the cache.
	Points []sweepPointMeta `json:"points"`
	// Table is the assembled curve table (core.SweepTable).
	Table *core.SweepTable `json:"table"`
}

// sweepPointMeta is one completed point's metadata.
type sweepPointMeta struct {
	// Value is the point's axis value.
	Value string `json:"value"`
	// Cached reports cache service (bit-identical to simulation).
	Cached bool `json:"cached"`
}

// matrixResultBody is the JSON shape of a completed matrix run: the
// requested figure tables plus the summary, mirroring the CLI's output
// selection.
type matrixResultBody struct {
	// Figures holds one rendered table per requested figure id.
	Figures []*core.Table `json:"figures,omitempty"`
	// Summary is the headline paper-vs-measured averages, when requested.
	Summary *core.Summary `json:"summary,omitempty"`
	// Cached reports that the matrix (the run's single point) was served
	// from the cache.
	Cached bool `json:"cached,omitempty"`
}

// resultResponse is the result endpoint's JSON envelope.
type resultResponse struct {
	// ID and State identify the job; State is done or cancelled (a
	// cancelled sweep still carries its completed points).
	ID    string `json:"id"`
	State State  `json:"state"`
	// Error carries the run error alongside a partial result.
	Error string `json:"error,omitempty"`
	// Sweep or Matrix holds the result, by request kind.
	Sweep  *sweepResultBody  `json:"sweep,omitempty"`
	Matrix *matrixResultBody `json:"matrix,omitempty"`
}

func (s *Server) result(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, err := s.q.Status(id)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	if !st.State.Terminal() {
		writeError(w, http.StatusConflict,
			fmt.Errorf("job %s is %s; the result is available once it finishes (stream /v1/jobs/%s/events to follow)", id, st.State, id))
		return
	}
	out, err := s.q.Result(id)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	if st.State == StateFailed {
		writeError(w, http.StatusInternalServerError, errors.New(st.Error))
		return
	}
	if out == nil {
		writeError(w, http.StatusConflict, fmt.Errorf("job %s was cancelled before any result assembled", id))
		return
	}
	req, err := s.q.Request(id)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	if format := r.URL.Query().Get("format"); format == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if err := out.RenderText(w, req); err != nil {
			// Mid-stream figure errors surface inline; headers are gone.
			fmt.Fprintf(w, "render error: %v\n", err)
		}
		return
	}
	resp := resultResponse{ID: id, State: st.State, Error: st.Error}
	if out.Sweep != nil {
		body := &sweepResultBody{
			Spec:     out.Sweep.Spec,
			Axis:     out.Sweep.Axis,
			Expected: out.Sweep.Expected,
			Points:   []sweepPointMeta{},
			Table:    out.Sweep.Table(),
		}
		for _, p := range out.Sweep.Points {
			body.Points = append(body.Points, sweepPointMeta{Value: p.Value, Cached: p.Cached})
		}
		resp.Sweep = body
	} else if out.Matrix != nil {
		body := &matrixResultBody{Cached: st.Progress.PointsCached == 1}
		for _, fid := range req.FigureIDs() {
			t, err := out.Matrix.Figure(fid)
			if err != nil {
				writeError(w, http.StatusInternalServerError, err)
				return
			}
			body.Figures = append(body.Figures, t)
		}
		if req.Summary {
			body.Summary = out.Matrix.Summarize()
		}
		resp.Matrix = body
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) cancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	err := s.q.Cancel(id)
	switch {
	case err == nil:
	case errors.Is(err, ErrUnknownJob):
		writeError(w, http.StatusNotFound, err)
		return
	case errors.Is(err, ErrFinished):
		writeError(w, http.StatusConflict, err)
		return
	default:
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	st, err := s.q.Status(id)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// catalog serves the registry inventories (the papertables text) so API
// clients can discover the same vocabulary -help prints; ?mesh=WxH
// renders the geometry-dependent tables at other shapes.
func (s *Server) catalog(w http.ResponseWriter, r *http.Request) {
	dims := r.URL.Query().Get("mesh")
	if dims == "" {
		dims = "4x4"
	}
	var b strings.Builder
	if err := FprintInventory(&b, dims); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, b.String())
}

func (s *Server) healthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}
