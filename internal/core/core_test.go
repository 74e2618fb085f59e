package core_test

import (
	"context"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/memsys"
	"repro/internal/trace"
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
	res, err := core.RunOne(context.Background(), memsys.Default().Scaled(64), "MESI", prog)
	if err != nil {
		t.Fatal(err)
	}
	if res.Protocol != "MESI" || res.Benchmark != "FFT" {
		t.Fatal("result identity wrong")
	}
	if res.FlitHops.Total() <= 0 || res.ExecCycles <= 0 {
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

// A summary over a protocol subset must not print the averages it cannot
// compute as 0.0%: each line that needs a protocol the matrix did not run
// says n/a and names what is missing, and the lines it can compute keep
// their numbers.
func TestSummaryNotRun(t *testing.T) {
	m := tinyMatrix(t, []string{"MESI", "DeNovo"}, []string{"FFT"})
	out := m.Summarize().String()
	for _, want := range []string{
		"traffic: DBypFull vs MESI                  measured n/a (DBypFull not run)   paper   39.5%",
		"traffic: DBypFull vs MMemL1                measured n/a (DBypFull, MMemL1 not run)   paper   35.2%",
		"exec time: MMemL1 vs MESI                  measured n/a (MMemL1 not run)   paper    3.8%",
		"DBypFull remaining waste share             measured n/a (DBypFull not run)   paper    8.8%",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("summary lacks the line %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "measured    0.0%") {
		t.Errorf("summary reports an average it never computed as 0.0%%:\n%s", out)
	}
	if n := strings.Count(out, "n/a"); n != 8 {
		t.Errorf("%d n/a lines, want 8 (every traffic and time line but DeNovo vs MESI, and the DBypFull waste share):\n%s", n, out)
	}
}

func TestMatrixProgressCallback(t *testing.T) {
	calls := 0
	_, err := core.Run(context.Background(), core.MatrixOptions{
		Size:       workloads.Tiny,
		Protocols:  []string{"MESI"},
		Benchmarks: []string{"LU"},
	}, core.RunOptions{Progress: func(ev core.Event) {
		if ev.Kind == core.KindCell {
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

// A replayed trace fixes its own thread count, which the planner cannot
// see: a 32-thread trace on the default 16-tile mesh must fail its cell
// with an error that names the mismatch once (not panic in a pool
// worker), and the same trace runs on a mesh with a tile per thread.
func TestReplayMoreThreadsThanTiles(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fft32.trc")
	if err := trace.WriteFile(path, trace.Record(workloads.MustByName("FFT", workloads.Tiny, 32))); err != nil {
		t.Fatal(err)
	}
	opt := core.MatrixOptions{
		Size:       workloads.Tiny,
		Benchmarks: []string{"replay(file=" + path + ")"},
		Protocols:  []string{"DeNovo"},
	}
	_, err := runMatrix(opt)
	if err == nil {
		t.Fatal("a 32-thread trace ran on a 16-tile mesh")
	}
	for _, want := range []string{"has 32 threads", "4x4 mesh has 16 tiles", "at least 32 tiles"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not say %q", err, want)
		}
	}
	if n := strings.Count(err.Error(), "core:"); n != 1 {
		t.Errorf("error %q carries the core: prefix %d times, want once", err, n)
	}
	opt.Mesh = "8x8"
	if _, err := runMatrix(opt); err != nil {
		t.Fatalf("8x8 replay: %v", err)
	}
}

// TestBloomGeometry pins the §4.4 Bloom-geometry study: filters x entries
// per L2 slice for the request-bypass filters, DBypFull on FFT at Tiny.
// Smaller filters do not erode the bypass benefit here. Bloom-copy
// traffic halves with the entry count (7,680 -> 3,840 flit-hops) and total
// traffic and exec cycles fall with it; the filter count does not move
// FFT at all. BenchmarkAblationBloom* shows the same on radix.
func TestBloomGeometry(t *testing.T) {
	cases := []struct {
		filters, entries int
		total, bloom     float64
		cycles           int64
	}{
		{32, 512, 38893, 7680, 7817},
		{8, 512, 38893, 7680, 7817},
		{32, 64, 35031, 3840, 7620},
		{4, 64, 35031, 3840, 7620},
	}
	prog := workloads.MustByName("FFT", workloads.Tiny, 16)
	for _, c := range cases {
		cfg := memsys.Default().Scaled(workloads.Tiny.ScaleDiv())
		cfg.Bloom.FiltersPerSlice, cfg.Bloom.Entries = c.filters, c.entries
		res, err := core.RunOne(context.Background(), cfg, "DBypFull", prog)
		if err != nil {
			t.Fatalf("%dx%d: %v", c.filters, c.entries, err)
		}
		total, bloom := res.FlitHops.Total(), res.FlitHops[memsys.ClassOVH][memsys.BOvhBloom]
		if total != c.total || bloom != c.bloom || res.ExecCycles != c.cycles {
			t.Errorf("%dx%d: total %.0f, bloom %.0f, cycles %d; want %.0f, %.0f, %d",
				c.filters, c.entries, total, bloom, res.ExecCycles, c.total, c.bloom, c.cycles)
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	// Two identical runs must produce bit-identical traffic and timing:
	// the whole simulator is deterministic (no map-order leakage).
	for _, proto := range []string{"MESI", "DBypFull"} {
		a, err := core.RunOne(context.Background(), memsys.Default().Scaled(64), proto,
			workloads.MustByName("barnes", workloads.Tiny, 16))
		if err != nil {
			t.Fatal(err)
		}
		b, err := core.RunOne(context.Background(), memsys.Default().Scaled(64), proto,
			workloads.MustByName("barnes", workloads.Tiny, 16))
		if err != nil {
			t.Fatal(err)
		}
		if a.ExecCycles != b.ExecCycles {
			t.Fatalf("%s: exec cycles differ: %d vs %d", proto, a.ExecCycles, b.ExecCycles)
		}
		if a.FlitHops.Total() != b.FlitHops.Total() {
			t.Fatalf("%s: traffic differs: %v vs %v", proto, a.FlitHops.Total(), b.FlitHops.Total())
		}
		if a.FlitHops != b.FlitHops {
			t.Fatalf("%s: traffic breakdown differs", proto)
		}
		if a.Waste != b.Waste {
			t.Fatalf("%s: waste counts differ", proto)
		}
	}
}
