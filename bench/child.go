package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"time"
)

// childResult is what a measuring child reports to its parent, as the
// last line of its standard output.
type childResult struct {
	GOMAXPROCS int                `json:"gomaxprocs"`
	Ops        []opRecord         `json:"ops"`
	Cal        []calSample        `json:"cal"`
	Layer      map[string]float64 `json:"layer,omitempty"`
	Errors     []string           `json:"errors,omitempty"`
}

// childMain runs inside a workload's own process: it sets the workload up,
// announces "ready" on standard output (the parent's set-up clock stops
// there), and — unless it is only a set-up probe — measures, then prints
// its childResult.
func childMain(o options, spec *benchSpec, root string) error {
	ws, ok := spec.workload(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	artifacts := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(artifacts, 0o755); err != nil {
		return err
	}
	w, err := newWorkload(o.workload, o.seed, root, artifacts, spec)
	if err != nil {
		return err
	}
	fmt.Println("ready")
	if o.child == "probe" {
		return w.close()
	}

	res := childResult{GOMAXPROCS: runtime.GOMAXPROCS(0)}
	length := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		res.Ops, res.Layer, err = traced(w, o, artifacts, length)
	} else {
		res.Ops, res.Cal = measure(w, length, ws.MinOps)
	}
	if err != nil {
		res.Errors = append(res.Errors, err.Error())
	}
	if err := w.close(); err != nil {
		res.Errors = append(res.Errors, "close: "+err.Error())
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// traced is the per-layer run. A third of the window runs ops untraced,
// a third runs them under the CPU profiler, and then the first ops' cells
// are replayed serially with a span around every layer call. The profile
// and the spans are left in the artifact directory for inspection.
func traced(w workload, o options, artifacts string, length time.Duration) ([]opRecord, map[string]float64, error) {
	plain := w.run(newWindow(length/3, 1))

	base := filepath.Join(artifacts, fmt.Sprintf("%s-seed%d", o.workload, o.seed))
	f, err := os.Create(base + ".pprof")
	if err != nil {
		return plain, nil, err
	}
	defer f.Close()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := pprof.StartCPUProfile(f); err != nil {
		return plain, nil, err
	}
	profiled := w.run(newWindow(length/3, 1))
	pprof.StopCPUProfile()
	mem := memSince(&before)
	ops := slices.Concat(plain, profiled)

	if _, err := f.Seek(0, 0); err != nil {
		return ops, nil, err
	}
	prof, err := parseProfile(f)
	if err != nil {
		return ops, nil, err
	}
	tr := newTracer()
	rerr := w.replay(tr)
	if err := tr.write(base + ".spans.json"); err != nil {
		return ops, nil, err
	}
	return ops, layerMetrics(o.workload, plain, profiled, mem, cpuShares(prof), tr), rerr
}
