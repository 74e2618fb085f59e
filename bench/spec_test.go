package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// TestHarnessMatchesSpec keeps BENCHMARK.json, which external harnesses
// read, in step with spec.json and with what the program reports.
func TestHarnessMatchesSpec(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var h struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
		} `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &h); err != nil {
		t.Fatal(err)
	}

	var hw, sw []string
	for _, w := range h.Workloads {
		hw = append(hw, w.Name)
	}
	for _, w := range spec.Workloads {
		sw = append(sw, w.Name)
	}
	if !reflect.DeepEqual(hw, sw) {
		t.Errorf("BENCHMARK.json workloads %v, spec.json %v", hw, sw)
	}

	// Every gated metric is one spec.json reports on every workload.
	for _, e := range h.EndToEnd {
		m, ok := spec.metric(e.Name)
		if !ok || m.Unit != e.Unit || m.Better != e.Better {
			t.Errorf("end_to_end %s (%s, %s) has no matching spec.json metric", e.Name, e.Unit, e.Better)
			continue
		}
		for _, w := range sw {
			if !m.appliesTo(w) {
				t.Errorf("end_to_end %s is not reported on %s", e.Name, w)
			}
		}
	}

	// The layer map lists exactly what a traced run reports; per_layer is
	// the part of it measured on every workload (the client-side job
	// timings exist only on service-mix).
	var hl, sl, produced []string
	for _, l := range h.PerLayer {
		hl = append(hl, l.Name)
	}
	var layers struct{ Layers []struct{ Metrics []string } }
	if err := json.Unmarshal(specJSON, &layers); err != nil {
		t.Fatal(err)
	}
	for _, l := range layers.Layers {
		sl = append(sl, l.Metrics...)
	}
	produced = sortedKeys(layerMetrics("noc-vc", nil, nil, memDelta{}, nil, newTracer()))
	sort.Strings(hl)
	sort.Strings(sl)
	if !reflect.DeepEqual(sl, produced) {
		t.Errorf("spec.json layers %v\ntraced runs report %v", sl, produced)
	}
	for _, name := range hl {
		if _, ok := slices.BinarySearch(produced, name); !ok {
			t.Errorf("BENCHMARK.json per_layer %s is not reported", name)
		}
	}
}

func TestNormalizeTrace(t *testing.T) {
	got := normalizeTrace([]string{"--workload", "noc-vc", "--trace", "0", "-seed", "2", "-trace"})
	want := []string{"--workload", "noc-vc", "-trace=0", "-seed", "2", "-trace"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("normalizeTrace = %q, want %q", got, want)
	}
}
