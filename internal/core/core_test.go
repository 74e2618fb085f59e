package core_test

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/memsys"
	"repro/internal/waste"
	"repro/internal/workloads"
)

func TestProtocolRegistry(t *testing.T) {
	names := core.ProtocolNames()
	if len(names) != 9 {
		t.Fatalf("%d protocols, want 9", len(names))
	}
	prog := workloads.MustByName("LU", workloads.Tiny, 16)
	for _, n := range names {
		env, err := memsys.NewEnv(memsys.Default().Scaled(64), prog.FootprintBytes(), prog.Regions())
		if err != nil {
			t.Fatal(err)
		}
		p, err := core.NewProtocol(env, n)
		if err != nil {
			t.Fatalf("NewProtocol(%s): %v", n, err)
		}
		if p.Name() != n {
			t.Fatalf("protocol %q reports name %q", n, p.Name())
		}
	}
	env, _ := memsys.NewEnv(memsys.Default().Scaled(64), 64, nil)
	if _, err := core.NewProtocol(env, "bogus"); err == nil {
		t.Fatal("bogus protocol accepted")
	}
}

func TestRunOneProducesResult(t *testing.T) {
	prog := workloads.MustByName("FFT", workloads.Tiny, 16)
	res, err := core.RunOne(memsys.Default().Scaled(64), "MESI", prog)
	if err != nil {
		t.Fatal(err)
	}
	if res.Protocol != "MESI" || res.Benchmark != "FFT" {
		t.Fatal("result identity wrong")
	}
	if res.Total() <= 0 || res.ExecCycles <= 0 {
		t.Fatal("empty result")
	}
	if res.Time.Total() <= 0 {
		t.Fatal("no time breakdown")
	}
	if res.WasteTotal(waste.LevelL1) == 0 {
		t.Fatal("no L1 fetch words")
	}
}

func tinyMatrix(t *testing.T, protocols, benches []string) *core.Matrix {
	t.Helper()
	m, err := runMatrix(core.MatrixOptions{
		Size:       workloads.Tiny,
		Protocols:  protocols,
		Benchmarks: benches,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMatrixAndFigures(t *testing.T) {
	m := tinyMatrix(t, []string{"MESI", "MMemL1", "DeNovo"}, []string{"FFT", "LU"})
	if m.Get("FFT", "MESI") == nil || m.Get("LU", "DeNovo") == nil {
		t.Fatal("matrix missing results")
	}
	for _, id := range core.FigureIDs() {
		tab, err := m.Figure(id)
		if err != nil {
			t.Fatal(err)
		}
		if len(tab.Rows) != 6 { // 2 benches x 3 protocols
			t.Fatalf("%s: %d rows, want 6", id, len(tab.Rows))
		}
		s := tab.String()
		if !strings.Contains(s, "FFT") || !strings.Contains(s, "MESI") {
			t.Fatalf("%s rendering missing labels:\n%s", id, s)
		}
	}
	if _, err := m.Figure("9.9"); err == nil {
		t.Fatal("unknown figure accepted")
	}
}

func TestMESIBaselineNormalizesTo100(t *testing.T) {
	m := tinyMatrix(t, []string{"MESI", "DeNovo"}, []string{"radix"})
	for _, id := range []string{"5.1a", "5.2", "5.3a", "5.3b", "5.3c"} {
		tab, err := m.Figure(id)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range tab.Rows {
			if row.Protocol != "MESI" {
				continue
			}
			if tot := row.Total(); tot < 99.9 || tot > 100.1 {
				t.Fatalf("%s: MESI row sums to %.2f%%, want 100%%", id, tot)
			}
		}
	}
}

func TestSummaryDirections(t *testing.T) {
	// At tiny scale the absolute numbers differ from the paper, but the
	// headline directions must hold: the optimized protocols reduce
	// traffic relative to MESI on average.
	m := tinyMatrix(t, []string{"MESI", "MMemL1", "DeNovo", "DFlexL1", "DBypFull"},
		[]string{"FFT", "radix", "barnes"})
	s := m.Summarize()
	if s.TrafficDBypFullVsMESI <= 0 {
		t.Fatalf("DBypFull does not reduce traffic vs MESI: %.3f", s.TrafficDBypFullVsMESI)
	}
	if s.TrafficMMemL1VsMESI <= 0 {
		t.Fatalf("MMemL1 does not reduce traffic vs MESI: %.3f", s.TrafficMMemL1VsMESI)
	}
	if s.MESIOverheadShare <= 0 {
		t.Fatal("MESI overhead share is zero")
	}
	if s.MESIOverheadUnblock < 0.3 {
		t.Fatalf("unblock share %.2f; expected dominant per §5.2.4", s.MESIOverheadUnblock)
	}
	out := s.String()
	if !strings.Contains(out, "paper") || !strings.Contains(out, "39.5%") {
		t.Fatal("summary rendering missing paper reference values")
	}
}

func TestMatrixProgressCallback(t *testing.T) {
	calls := 0
	_, err := core.Run(context.Background(), core.MatrixOptions{
		Size:       workloads.Tiny,
		Protocols:  []string{"MESI"},
		Benchmarks: []string{"LU"},
	}, core.RunOptions{Progress: func(ev core.SweepProgress) {
		if ev.Status == core.SweepCellStarted {
			calls++
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("progress called %d times, want 1", calls)
	}
}

func TestUnknownBenchmarkRejected(t *testing.T) {
	_, err := runMatrix(core.MatrixOptions{
		Size:       workloads.Tiny,
		Benchmarks: []string{"nope"},
		Protocols:  []string{"MESI"},
	})
	if err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestDeterministicRuns(t *testing.T) {
	// Two identical runs must produce bit-identical traffic and timing:
	// the whole simulator is deterministic (no map-order leakage).
	for _, proto := range []string{"MESI", "DBypFull"} {
		a, err := core.RunOne(memsys.Default().Scaled(64), proto,
			workloads.MustByName("barnes", workloads.Tiny, 16))
		if err != nil {
			t.Fatal(err)
		}
		b, err := core.RunOne(memsys.Default().Scaled(64), proto,
			workloads.MustByName("barnes", workloads.Tiny, 16))
		if err != nil {
			t.Fatal(err)
		}
		if a.ExecCycles != b.ExecCycles {
			t.Fatalf("%s: exec cycles differ: %d vs %d", proto, a.ExecCycles, b.ExecCycles)
		}
		if a.Total() != b.Total() {
			t.Fatalf("%s: traffic differs: %v vs %v", proto, a.Total(), b.Total())
		}
		if a.FlitHops != b.FlitHops {
			t.Fatalf("%s: traffic breakdown differs", proto)
		}
		if a.Waste != b.Waste {
			t.Fatalf("%s: waste counts differ", proto)
		}
	}
}
