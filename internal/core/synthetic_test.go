package core_test

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/workloads"
)

// Every registry workload — benchmarks, synthetic defaults, presets —
// must run end to end under representative rungs of the protocol ladder
// with the functional oracle active, produce traffic, and never force the
// kernel to clamp a past-time event.
func TestRegistryWorkloadsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload x protocol sweep is slow; run without -short")
	}
	m, err := runMatrix(core.MatrixOptions{
		Size:       workloads.Tiny,
		Benchmarks: workloads.RegistryWorkloads(),
		Protocols:  []string{"MESI", "DeNovo", "DBypFull"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, bench := range m.Benchmarks {
		for _, proto := range m.Protocols {
			res := m.Get(bench, proto)
			if res == nil {
				t.Fatalf("%s/%s: missing cell", bench, proto)
			}
			if res.FlitHops.Total() <= 0 || res.ExecCycles <= 0 {
				t.Errorf("%s/%s: no traffic or time measured", bench, proto)
			}
			if res.KernelClamped != 0 {
				t.Errorf("%s/%s: kernel clamped %d past-time events", bench, proto, res.KernelClamped)
			}
		}
	}
	// The synthetic pattern suite must give the optimization ladder
	// traction: DeNovo's overhead collapse (no unblock/inval/ack) removes
	// traffic vs MESI on every default pattern. (DBypFull is deliberately
	// not asserted — its Bloom-guarded request bypass can pay more in NACK
	// retries than it saves under extreme sharing, which is exactly the
	// kind of workload-dependence the pattern suite exists to expose.)
	for _, pattern := range []string{"uniform", "transpose", "bitcomp", "hotspot", "neighbor", "prodcons"} {
		dn, base := m.Get(pattern, "DeNovo"), m.Get(pattern, "MESI")
		if dn.FlitHops.Total() >= base.FlitHops.Total() {
			t.Errorf("DeNovo (%0.f flit-hops) not below MESI (%0.f) on %s", dn.FlitHops.Total(), base.FlitHops.Total(), pattern)
		}
	}
}

// Figure outputs over synthetic workloads must be bit-identical at any
// worker count, like the ported benchmarks.
func TestSyntheticMatrixWorkerEquality(t *testing.T) {
	run := func(workers int) *core.Matrix {
		m, err := runMatrix(core.MatrixOptions{
			Size:       workloads.Tiny,
			Benchmarks: []string{"uniform", "hotspot(t=2)", "prodcons"},
			Protocols:  []string{"MESI", "DBypFull"},
			Workers:    workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	serial, parallel := run(1), run(4)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("synthetic matrix diverges between serial and parallel runs")
	}
	for _, id := range core.FigureIDs() {
		a, err := serial.Figure(id)
		if err != nil {
			t.Fatal(err)
		}
		b, err := parallel.Figure(id)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("figure %s differs across worker counts", id)
		}
	}
}

// Spelling variants of one workload spec must collapse to one matrix key,
// and unknown specs must fail before any cell runs.
func TestMatrixNormalizesWorkloadSpecs(t *testing.T) {
	m, err := runMatrix(core.MatrixOptions{
		Size:       workloads.Tiny,
		Benchmarks: []string{" uniform( p = 0.05 ) "},
		Protocols:  []string{"MESI"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Benchmarks) != 1 || m.Benchmarks[0] != "uniform" {
		t.Fatalf("benchmarks = %v, want the canonical [uniform]", m.Benchmarks)
	}
	res := m.Get("uniform", "MESI")
	if res == nil || res.Benchmark != "uniform" {
		t.Fatalf("canonical cell missing or mislabeled: %+v", res)
	}
	_, err = runMatrix(core.MatrixOptions{
		Size:       workloads.Tiny,
		Benchmarks: []string{"uniform(p=nope)"},
		Protocols:  []string{"MESI"},
	})
	if err == nil || !strings.Contains(err.Error(), "not a number") {
		t.Fatalf("malformed spec error %v does not name the failure", err)
	}
	// Two spellings of one configuration must be rejected, not silently
	// simulated twice into duplicate figure rows — on both axes.
	_, err = runMatrix(core.MatrixOptions{
		Size:       workloads.Tiny,
		Benchmarks: []string{"uniform", "uniform(p=0.05)"},
		Protocols:  []string{"MESI"},
	})
	if err == nil || !strings.Contains(err.Error(), "same workload") {
		t.Fatalf("duplicate workload specs error = %v", err)
	}
	_, err = runMatrix(core.MatrixOptions{
		Size:       workloads.Tiny,
		Benchmarks: []string{"FFT"},
		Protocols:  []string{"MMemL1", " MMemL1 "},
	})
	if err == nil || !strings.Contains(err.Error(), "same configuration") {
		t.Fatalf("duplicate protocol specs error = %v", err)
	}
}

func TestValidFigureID(t *testing.T) {
	for _, id := range core.FigureIDs() {
		if err := core.ValidFigureID(id); err != nil {
			t.Errorf("listed figure %q rejected: %v", id, err)
		}
	}
	for _, id := range []string{"", "9.9", "fig", "5.1e"} {
		if err := core.ValidFigureID(id); err == nil {
			t.Errorf("figure id %q accepted", id)
		}
	}
}

// The regression the Clamped counter exists for: across the full golden
// Tiny matrix under both router models, no component may schedule into
// the past. The ideal-router half piggybacks on the golden matrix shape;
// the vc router exercises the cycle-level tick pipeline.
func TestKernelNeverClampsTinyMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("three full Tiny matrices are slow; run without -short")
	}
	for _, router := range []string{"ideal", "vc", "deflection"} {
		m, err := runMatrix(core.MatrixOptions{Size: workloads.Tiny, Router: router})
		if err != nil {
			t.Fatal(err)
		}
		for _, bench := range m.Benchmarks {
			for _, proto := range m.Protocols {
				if res := m.Get(bench, proto); res.KernelClamped != 0 {
					t.Errorf("router %s, %s/%s: %d events clamped to now — component scheduled into the past",
						router, bench, proto, res.KernelClamped)
				}
			}
		}
	}
}
