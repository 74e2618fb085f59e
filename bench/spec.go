package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// specJSON is the benchmark's own description: the commands, each
// workload's op and reason, every metric with its unit, direction and
// bound, the layer map and the reference digests. The types below read
// the parts the program uses. BENCHMARK.json at the repository root lists
// the subset of metrics an external harness gates on; see README.md.
//
//go:embed spec.json
var specJSON []byte

type benchSpec struct {
	DefaultSeed int            `json:"default_seed"`
	Probes      int            `json:"probes"`
	Workloads   []workloadSpec `json:"workloads"`
	Metrics     []metricSpec   `json:"metrics"`
	// Digests holds the seed-1 reference digest of each NoC workload's
	// op results.
	Digests map[string]string `json:"digests"`
}

type workloadSpec struct {
	Name   string `json:"name"`
	MinOps int    `json:"min_ops"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
	// Floor is the absolute allowance that applies when Bound times the
	// base median is smaller.
	Floor     float64  `json:"floor"`
	Workloads []string `json:"workloads"`
}

func loadSpec() (*benchSpec, error) {
	var s benchSpec
	if err := json.Unmarshal(specJSON, &s); err != nil {
		return nil, fmt.Errorf("spec.json: %w", err)
	}
	return &s, nil
}

func (s *benchSpec) workload(name string) (workloadSpec, bool) {
	for _, w := range s.Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

func (s *benchSpec) metric(name string) (metricSpec, bool) {
	for _, m := range s.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metricSpec{}, false
}

// appliesTo reports whether the metric is reported on workload w.
func (m metricSpec) appliesTo(w string) bool {
	for _, x := range m.Workloads {
		if x == w || x == "*" {
			return true
		}
	}
	return false
}

// harnessSpec is the part of BENCHMARK.json the program reads: which
// metrics the last output line carries, untraced and traced.
type harnessSpec struct {
	RunSeconds float64 `json:"run_seconds"`
	EndToEnd   []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadHarness(root string) (*harnessSpec, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var h harnessSpec
	if err := json.Unmarshal(raw, &h); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &h, nil
}

// findRoot locates the repository root — the directory whose go.mod
// declares module repro — from the working directory or its parent, so
// the program runs from the root (as bench/run.sh does) or from bench/.
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		raw, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(raw), "module repro\n") {
			return filepath.Abs(dir)
		}
	}
	return "", fmt.Errorf("no repository root (a go.mod declaring module repro) in . or ..")
}
