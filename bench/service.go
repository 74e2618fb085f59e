package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/job"
)

// svcReplayJobs is how many simulated jobs the traced run replays.
const svcReplayJobs = 16

// service is the service-mix workload: an in-process job server over a
// fresh result cache, driven over loopback HTTP by pinnedProcs
// closed-loop clients.
type service struct {
	cacheDir string
	q        *job.Queue
	srv      *http.Server
	served   chan error
	base     string
	client   *http.Client

	mu     sync.Mutex
	gen    *jobGen
	bodies map[int][]byte // root job index -> first result body
	misses []int          // simulated jobs' indexes, kept for replay
}

func newService(seed int64, artifacts string) (*service, error) {
	s := &service{gen: newJobGen(seed), bodies: make(map[int][]byte)}
	dir, err := os.MkdirTemp(artifacts, "svc-cache-")
	if err != nil {
		return nil, err
	}
	s.cacheDir = dir
	cache, err := core.OpenPointCache(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	s.q = job.NewQueue(job.QueueOptions{Executors: pinnedProcs, Cache: cache})
	s.srv = &http.Server{Handler: job.NewServer(s.q)}
	s.served = make(chan error, 1)
	go func() { s.served <- s.srv.Serve(ln) }()
	s.base = "http://" + ln.Addr().String()
	s.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     pinnedProcs,
		MaxIdleConnsPerHost: pinnedProcs,
		DisableCompression:  true,
	}}
	return s, nil
}

func (s *service) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.client.CloseIdleConnections()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	s.q.Shutdown(ctx)
	return errors.Join(err, os.RemoveAll(s.cacheDir))
}

func (s *service) run(win *window) []opRecord {
	var (
		mu   sync.Mutex
		recs []opRecord
		wg   sync.WaitGroup
	)
	for c := 0; c < pinnedProcs; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				done := len(recs)
				mu.Unlock()
				if !win.open() && done >= win.minOps {
					return
				}
				i, j := s.claim()
				rec := win.op(func() opRecord { return s.do(win, i, j) })
				mu.Lock()
				recs = append(recs, rec)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return recs
}

// claim draws the next job of the sequence.
func (s *service) claim() (int, svcJob) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.gen.next()
	return len(s.gen.jobs) - 1, j
}

// do runs job i end to end as a client would: submit, follow the event
// stream to its end, fetch the text result.
func (s *service) do(win *window, i int, j svcJob) opRecord {
	t0 := time.Now()
	rec := opRecord{Start: t0.Sub(win.start).Seconds()}
	class, storeFailed, body, err := s.exchange(j, &rec, t0)
	rec.Dur = time.Since(t0).Seconds()
	rec.Class, rec.StoreFailed = class, storeFailed
	if err == nil {
		err = s.checkBody(j.Root, i, class, body)
	}
	if err != nil {
		rec.Failed = fmt.Sprintf("job %d (%s): %v", i, j.Kind, err)
	}
	return rec
}

// errRejected marks a submission the server refused with 503.
var errRejected = errors.New("refused: 503")

func (s *service) exchange(j svcJob, rec *opRecord, t0 time.Time) (class string, storeFailed int, body []byte, err error) {
	resp, err := s.client.Post(s.base+"/v1/jobs", "application/json", bytes.NewReader(j.Body))
	if err != nil {
		return "", 0, nil, err
	}
	var ack struct{ ID string }
	err = json.NewDecoder(resp.Body).Decode(&ack)
	drain(resp)
	switch {
	case resp.StatusCode == http.StatusServiceUnavailable:
		rec.Rejected = true
		return "", 0, nil, errRejected
	case resp.StatusCode != http.StatusAccepted:
		return "", 0, nil, fmt.Errorf("submit: HTTP %d", resp.StatusCode)
	case err != nil:
		return "", 0, nil, fmt.Errorf("submit: %w", err)
	}
	t1 := time.Now()
	rec.Submit = t1.Sub(t0).Seconds()

	resp, err = s.client.Get(s.base + "/v1/jobs/" + ack.ID + "/events")
	if err != nil {
		return "", 0, nil, err
	}
	var t2 time.Time
	cells, cached := 0, 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if t2.IsZero() {
			t2 = time.Now()
		}
		var ev job.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			drain(resp)
			return "", 0, nil, fmt.Errorf("events: %w", err)
		}
		switch {
		case ev.Kind == job.KindCell:
			cells++
		case ev.Status == job.StatusCached:
			cached++
		case ev.Status == job.StatusStoreFailed:
			storeFailed++
		}
	}
	err = sc.Err()
	drain(resp)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("events: HTTP %d", resp.StatusCode)
	}
	if err == nil && t2.IsZero() {
		err = errors.New("events: empty stream")
	}
	if err != nil {
		return "", storeFailed, nil, err
	}
	t3 := time.Now()
	rec.QueueWait, rec.Run = t2.Sub(t1).Seconds(), t3.Sub(t2).Seconds()
	class = "miss"
	if cells == 0 && cached > 0 {
		class = "hit"
	}

	resp, err = s.client.Get(s.base + "/v1/jobs/" + ack.ID + "/result?format=text")
	if err != nil {
		return class, storeFailed, nil, err
	}
	body, err = io.ReadAll(resp.Body)
	drain(resp)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("result: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	rec.Result = time.Since(t3).Seconds()
	return class, storeFailed, body, err
}

// checkBody requires a cache-served body to be byte-identical to the
// first body served for the same request, and keeps the first body of
// every request (and the first simulated jobs, for replay).
func (s *service) checkBody(root, i int, class string, body []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	first, seen := s.bodies[root]
	if !seen {
		s.bodies[root] = body
		if class == "miss" && len(s.misses) < svcReplayJobs {
			s.misses = append(s.misses, i)
		}
		return nil
	}
	if class == "hit" && !bytes.Equal(first, body) {
		return errors.New("cache-served result differs from the first result for this request")
	}
	return nil
}

// replay re-simulates the cells of the first simulated jobs, assembles
// each job's outcome from them and requires its text rendering to equal
// the body the server returned.
func (s *service) replay(tr *tracer) error {
	if len(s.misses) == 0 {
		return errors.New("replay: no job was simulated")
	}
	for _, i := range s.misses {
		j := s.gen.jobs[i]
		req := j.Req
		req.Normalize()
		rc, err := replayConfig(req)
		if err != nil {
			return err
		}
		op := tr.begin("op", 0)
		out, err := s.replayJob(tr, op, rc, req)
		if err == nil {
			var b bytes.Buffer
			id := tr.begin("job.Outcome.RenderText", op)
			err = out.RenderText(&b, req)
			tr.end(id)
			if err == nil && !bytes.Equal(b.Bytes(), s.bodies[j.Root]) {
				err = errors.New("replayed result renders differently from the served body")
			}
		}
		tr.end(op)
		if err != nil {
			return fmt.Errorf("replay job %d: %w", i, err)
		}
		tr.ops++
	}
	return nil
}

func (s *service) replayJob(tr *tracer, op int, rc replayConf, req job.Request) (*job.Outcome, error) {
	matrix := func(benches []string) (*core.Matrix, error) {
		rs, err := tr.replayMatrix(op, rc, benches, req.Protocols)
		if err != nil {
			return nil, err
		}
		// Service jobs have one protocol, so results are in benchmark
		// order and carry the canonical spellings the engine keys by.
		m := &core.Matrix{
			Size: rc.size, Topology: rc.cfg.Topology, Router: rc.cfg.Router,
			Protocols: []string{rs[0].Protocol},
			Results:   map[string]map[string]*core.Result{},
		}
		for _, r := range rs {
			m.Benchmarks = append(m.Benchmarks, r.Benchmark)
			m.Results[r.Benchmark] = map[string]*core.Result{r.Protocol: r}
		}
		return m, nil
	}
	if !req.IsSweep() {
		m, err := matrix(req.Benchmarks)
		return &job.Outcome{Matrix: m}, err
	}
	sw, err := core.ParseSweep(req.Sweep)
	if err != nil {
		return nil, err
	}
	pts, err := sw.PointOptions(core.MatrixOptions{Protocols: req.Protocols})
	if err != nil {
		return nil, err
	}
	res := &core.SweepResult{Spec: sw.Spec, Axis: sw.Axis, Expected: len(pts)}
	for k, p := range pts {
		m, err := matrix(p.Benchmarks)
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, &core.SweepPoint{Value: sw.Values[k], Matrix: m})
	}
	return &job.Outcome{Sweep: res}, nil
}

// drain finishes a response body so its connection is reused.
func drain(resp *http.Response) {
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}
