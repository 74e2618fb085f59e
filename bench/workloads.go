package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"repro/internal/core"
	"repro/internal/job"
)

// pinnedProcs is the parallelism every workload runs at, whatever the
// host offers: engine workers, service executors and clients, and the
// child's GOMAXPROCS. Two commits measured on different hosts then do
// identical work.
const pinnedProcs = 2

// opRecord is one op's measurement as a workload child reports it. Times
// are wall seconds.
type opRecord struct {
	Start  float64 `json:"start"` // since the window opened
	Dur    float64 `json:"dur"`
	Failed string  `json:"failed,omitempty"` // why the op failed or was refused

	// Simulation ops: Σ Result.ExecCycles over the op's cells (simulated
	// cycles of the measured windows) and the RenderText share of Dur.
	Cycles int64   `json:"cycles,omitempty"`
	Render float64 `json:"render,omitempty"`

	// Service jobs: "hit" (served from the cache) or "miss" (simulated),
	// and the job's path split at the client: POST round trip, 202 to the
	// first event line, first event to the end of the stream, result GET.
	Class       string  `json:"class,omitempty"`
	Submit      float64 `json:"submit,omitempty"`
	QueueWait   float64 `json:"queue_wait,omitempty"`
	Run         float64 `json:"run,omitempty"`
	Result      float64 `json:"result,omitempty"`
	Rejected    bool    `json:"rejected,omitempty"`
	StoreFailed int     `json:"store_failed,omitempty"`
}

// workload is one benchmark workload inside its child process. Setup
// happens in its constructor; run and replay may be called once each.
type workload interface {
	// run performs ops until win closes and returns them in completion
	// order, each checked.
	run(win *window) []opRecord
	// replay re-simulates the cells behind ops already run, one public
	// layer call at a time under tr, and returns an error when a replayed
	// result differs from what the op produced.
	replay(tr *tracer) error
	close() error
}

func newWorkload(name string, seed int64, root, artifacts string, spec *benchSpec) (workload, error) {
	switch name {
	case "paper-tiny":
		golden, err := loadGolden(filepath.Join(root, "internal/core/testdata/golden_tiny.json"))
		if err != nil {
			return nil, err
		}
		return &simWorkload{req: paperRequest(seed), check: golden.check}, nil
	case "noc-vc", "noc-deflection":
		router := name[len("noc-"):]
		want := ""
		if seed == 1 {
			want = spec.Digests[name]
		}
		return &simWorkload{req: nocRequest(seed, router), check: (&digestGate{want: want}).check}, nil
	case "service-mix":
		return newService(seed, artifacts)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// simWorkload runs one job.Request per op through the orchestration
// layer, renders it as the CLI would, and gates the result.
type simWorkload struct {
	req   job.Request
	check func(*job.Outcome) error
	first *job.Outcome // the first op's result, which replay re-derives
}

func (s *simWorkload) run(win *window) []opRecord {
	var recs []opRecord
	for win.more(recs) {
		recs = append(recs, win.op(func() opRecord { return s.op(win) }))
	}
	return recs
}

func (s *simWorkload) op(win *window) opRecord {
	t0 := time.Now()
	out, err := job.Run(context.Background(), s.req, job.RunConfig{})
	tr := time.Now()
	if err == nil {
		req := s.req
		req.Normalize()
		err = out.RenderText(&bytes.Buffer{}, req)
	}
	t1 := time.Now()
	rec := opRecord{Start: t0.Sub(win.start).Seconds(), Dur: t1.Sub(t0).Seconds(), Render: t1.Sub(tr).Seconds()}
	if err == nil {
		err = s.check(out)
	}
	if err != nil {
		rec.Failed = err.Error()
		return rec
	}
	for _, r := range outcomeCells(out) {
		rec.Cycles += r.ExecCycles
	}
	if s.first == nil {
		s.first = out
	}
	return rec
}

func (s *simWorkload) replay(tr *tracer) error {
	if s.first == nil {
		return errors.New("replay: no op completed")
	}
	cfg, err := replayConfig(s.req)
	if err != nil {
		return err
	}
	op := tr.begin("op", 0)
	defer tr.end(op)
	for _, m := range outcomeMatrices(s.first) {
		got, err := tr.replayMatrix(op, cfg, m.Benchmarks, m.Protocols)
		if err != nil {
			return err
		}
		for i, want := range matrixCells(m) {
			if !reflect.DeepEqual(got[i], want) {
				return fmt.Errorf("replay: %s/%s differs from the op's cell", want.Benchmark, want.Protocol)
			}
		}
	}
	tr.ops++
	return nil
}

func (s *simWorkload) close() error { return nil }

// outcomeMatrices lists an outcome's matrices: the matrix run's, or each
// sweep point's in sweep order.
func outcomeMatrices(out *job.Outcome) []*core.Matrix {
	if out.Sweep == nil {
		return []*core.Matrix{out.Matrix}
	}
	var ms []*core.Matrix
	for _, p := range out.Sweep.Points {
		ms = append(ms, p.Matrix)
	}
	return ms
}

// matrixCells lists a matrix's results in cell order (benchmark-major).
func matrixCells(m *core.Matrix) []*core.Result {
	var rs []*core.Result
	for _, b := range m.Benchmarks {
		for _, p := range m.Protocols {
			rs = append(rs, m.Get(b, p))
		}
	}
	return rs
}

func outcomeCells(out *job.Outcome) []*core.Result {
	var rs []*core.Result
	for _, m := range outcomeMatrices(out) {
		rs = append(rs, matrixCells(m)...)
	}
	return rs
}

// checkClamped fails on any kernel clamp: a clamp is a component
// scheduling into the past, a logic bug whatever else the cell reports.
func checkClamped(out *job.Outcome) error {
	for _, r := range outcomeCells(out) {
		if r == nil {
			return errors.New("missing cell result")
		}
		if r.KernelClamped != 0 {
			return fmt.Errorf("%s/%s: %d kernel clamps", r.Benchmark, r.Protocol, r.KernelClamped)
		}
	}
	return nil
}

// goldenFigures are the paper figures internal/core/testdata/golden_tiny.json
// pins; "net" is telemetry the golden leaves out.
var goldenFigures = []string{"5.1a", "5.1b", "5.1c", "5.1d", "5.2", "5.3a", "5.3b", "5.3c"}

// golden is the checked-in Tiny matrix snapshot, keyed for an
// order-independent comparison: the seed permutes the request's protocol
// order, and table rows follow it.
type golden struct {
	heads map[string]string // figure -> JSON of the table without rows
	rows  map[string]string // figure|bench|protocol -> JSON of the row values
}

func loadGolden(path string) (*golden, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f struct{ Figures map[string]*core.Table }
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	g := &golden{heads: map[string]string{}, rows: map[string]string{}}
	for _, id := range goldenFigures {
		t := f.Figures[id]
		if t == nil {
			return nil, fmt.Errorf("%s: no figure %s", path, id)
		}
		g.add(id, t)
	}
	return g, nil
}

// add keys a table's JSON encoding; the encoding round-trips float64
// exactly, so equal keys mean equal values after a JSON round trip.
func (g *golden) add(id string, t *core.Table) {
	head := *t
	head.Rows = nil
	g.heads[id] = mustJSON(head)
	for _, r := range t.Rows {
		g.rows[id+"|"+r.Bench+"|"+r.Protocol] = mustJSON(r.Values)
	}
}

func (g *golden) check(out *job.Outcome) error {
	if err := checkClamped(out); err != nil {
		return err
	}
	got := &golden{heads: map[string]string{}, rows: map[string]string{}}
	for _, id := range goldenFigures {
		t, err := out.Matrix.Figure(id)
		if err != nil {
			return err
		}
		got.add(id, t)
		if got.heads[id] != g.heads[id] {
			return fmt.Errorf("figure %s: title or columns differ from the golden", id)
		}
	}
	if len(got.rows) != len(g.rows) {
		return fmt.Errorf("%d figure rows, golden has %d", len(got.rows), len(g.rows))
	}
	for k, v := range got.rows {
		if g.rows[k] != v {
			return fmt.Errorf("figure row %s differs from the golden", k)
		}
	}
	return nil
}

// digestGate requires every op of a run to produce the same cell results
// as its first op, and the first to match want when one is given.
type digestGate struct {
	want, first string
}

func (d *digestGate) check(out *job.Outcome) error {
	if err := checkClamped(out); err != nil {
		return err
	}
	h := sha256.New()
	for _, r := range outcomeCells(out) {
		fmt.Fprintln(h, mustJSON(r))
	}
	sum := hex.EncodeToString(h.Sum(nil))
	switch {
	case d.first == "" && d.want != "" && sum != d.want:
		return fmt.Errorf("result digest %s, want the reference %s", sum, d.want)
	case d.first == "":
		d.first = sum
	case sum != d.first:
		return fmt.Errorf("result digest %s differs from the run's first op (%s)", sum, d.first)
	}
	return nil
}

// mustJSON encodes values this program built from plain data; the
// encoding cannot fail.
func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(b)
}

func durations(recs []opRecord) []float64 {
	var d []float64
	for _, r := range recs {
		if r.Failed == "" {
			d = append(d, r.Dur)
		}
	}
	return d
}
