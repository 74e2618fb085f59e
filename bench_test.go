// Benchmark harness: one benchmark per paper table/figure (DESIGN.md's
// per-experiment index), plus ablation benches for the design choices the
// paper calls out. The full protocol x benchmark matrix is expensive, so
// it is computed once per `go test -bench` process at the Small scale and
// shared by every figure benchmark; each figure bench then reports its
// headline values as custom metrics.
//
// Regenerate everything with:
//
//	go test -bench=. -benchmem
//
// The metric names encode (figure, quantity); values are percentages
// normalized to the MESI baseline, as in the paper's graphs.
package repro

import (
	"context"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/memsys"
	"repro/internal/trace"
	"repro/internal/workloads"
)

var (
	matrixOnce sync.Once
	matrix     *core.Matrix
	matrixErr  error
)

// sharedMatrix runs the full 9-protocol x 6-benchmark cross product once.
func sharedMatrix(b *testing.B) *core.Matrix {
	b.Helper()
	matrixOnce.Do(func() {
		var res *core.SweepResult
		res, matrixErr = core.Run(context.Background(), core.MatrixOptions{Size: workloads.Small}, core.RunOptions{})
		if matrixErr == nil {
			matrix = res.Points[0].Matrix
		}
	})
	if matrixErr != nil {
		b.Fatal(matrixErr)
	}
	return matrix
}

// reportFigure rebuilds a figure table per iteration (the measured work)
// and reports the normalized stack totals of the headline protocols.
func reportFigure(b *testing.B, id string) {
	m := sharedMatrix(b)
	var t *core.Table
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		t, err = m.Figure(id)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	// Report the average stacked height per protocol (percent of MESI).
	sums := map[string]float64{}
	counts := map[string]int{}
	for _, row := range t.Rows {
		sums[row.Protocol] += row.Total()
		counts[row.Protocol]++
	}
	for _, proto := range []string{"MESI", "MMemL1", "DeNovo", "DFlexL1", "DBypFull"} {
		if n := counts[proto]; n > 0 {
			b.ReportMetric(sums[proto]/float64(n), proto+"_%")
		}
	}
}

// BenchmarkTable4_1_Parameters verifies/reports the simulated system of
// Table 4.1 (pure configuration; the interesting output is the metrics).
func BenchmarkTable4_1_Parameters(b *testing.B) {
	var cfg memsys.Config
	for i := 0; i < b.N; i++ {
		cfg = memsys.Default()
	}
	b.ReportMetric(float64(cfg.Tiles()), "tiles")
	b.ReportMetric(float64(cfg.L1Bytes)/1024, "L1_KB")
	b.ReportMetric(float64(cfg.L2SliceBytes*cfg.Tiles())/1024/1024, "L2_MB")
	b.ReportMetric(float64(cfg.LinkLatency), "link_cycles")
}

// BenchmarkTable4_2_Inputs reports the benchmark footprints per scale.
func BenchmarkTable4_2_Inputs(b *testing.B) {
	var total uint32
	for i := 0; i < b.N; i++ {
		total = 0
		for _, name := range workloads.Names() {
			total += workloads.MustByName(name, workloads.Small, 16).FootprintBytes()
		}
	}
	b.ReportMetric(float64(total)/1024/1024, "small_total_MB")
}

// One benchmark per figure of the evaluation (§5).

func BenchmarkFig5_1a_OverallTraffic(b *testing.B)   { reportFigure(b, "5.1a") }
func BenchmarkFig5_1b_LoadTraffic(b *testing.B)      { reportFigure(b, "5.1b") }
func BenchmarkFig5_1c_StoreTraffic(b *testing.B)     { reportFigure(b, "5.1c") }
func BenchmarkFig5_1d_WritebackTraffic(b *testing.B) { reportFigure(b, "5.1d") }
func BenchmarkFig5_2_ExecutionTime(b *testing.B)     { reportFigure(b, "5.2") }
func BenchmarkFig5_3a_L1FetchWaste(b *testing.B)     { reportFigure(b, "5.3a") }
func BenchmarkFig5_3b_L2FetchWaste(b *testing.B)     { reportFigure(b, "5.3b") }
func BenchmarkFig5_3c_MemFetchWaste(b *testing.B)    { reportFigure(b, "5.3c") }

// BenchmarkHeadlineSummary reports the paper's §5.1 averages as metrics
// (values are reduction percentages; paper: 39.5 / 13.9 / 6.2 / 10.5).
func BenchmarkHeadlineSummary(b *testing.B) {
	m := sharedMatrix(b)
	var s *core.Summary
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s = m.Summarize()
	}
	b.StopTimer()
	b.ReportMetric(s.TrafficDBypFullVsMESI*100, "traffic_DBypFull_vs_MESI_%")
	b.ReportMetric(s.TrafficDeNovoVsMESI*100, "traffic_DeNovo_vs_MESI_%")
	b.ReportMetric(s.TrafficMMemL1VsMESI*100, "traffic_MMemL1_vs_MESI_%")
	b.ReportMetric(s.TimeDBypFullVsMESI*100, "time_DBypFull_vs_MESI_%")
	b.ReportMetric(s.DBypFullWasteShare*100, "DBypFull_waste_%")
	b.ReportMetric(s.MESIOverheadShare*100, "MESI_overhead_%")
}

// --- Ablation benches (design choices called out in DESIGN.md) ---

// ablationRun measures one (protocol, benchmark) pair at Tiny scale under
// a possibly modified configuration and reports traffic + time metrics.
func ablationRun(b *testing.B, proto, bench string, mutate func(*memsys.Config)) {
	ablationRunSized(b, workloads.Tiny, proto, bench, mutate)
}

func ablationRunSized(b *testing.B, size workloads.Size, proto, bench string, mutate func(*memsys.Config)) {
	b.Helper()
	b.ReportAllocs()
	var res *core.Result
	for i := 0; i < b.N; i++ {
		cfg := memsys.Default().Scaled(size.ScaleDiv())
		if mutate != nil {
			mutate(&cfg)
		}
		var err error
		res, err = core.RunOne(context.Background(), cfg, proto, workloads.MustByName(bench, size, 16))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.FlitHops.Total(), "flit-hops")
	b.ReportMetric(float64(res.ExecCycles), "cycles")
	b.ReportMetric(res.WasteShare*100, "waste_%")
}

// Write-combining batching (§4.2): the 10,000-cycle timeout lets
// registrations for a line coalesce into one message. Cutting the timeout
// to near zero degenerates into per-word registration traffic — the same
// failure §5.2.2 describes for radix when the table cannot hold a line
// long enough. (The 32-entry cap itself rarely binds in this simulator:
// the scattered lines fall out of the small L1 first, carrying their
// pending registrations with the combined writeback.)
func BenchmarkAblationWriteCombineBatched(b *testing.B) {
	ablationRun(b, "DValidateL2", "FFT", nil)
}

func BenchmarkAblationWriteCombineNoBatch(b *testing.B) {
	ablationRun(b, "DValidateL2", "FFT", func(c *memsys.Config) { c.WriteCombineTimeout = 1 })
}

// Bloom filter geometry (§4.4): smaller filters cut total traffic here.
// On radix at Tiny, 2x64 filters in place of 32x512 shrink the Bloom-copy
// traffic from 30,720 to 3,840 flit-hops while the rest grows by only 392,
// so the total falls from 414,551 to 388,063 flit-hops; the wasted share
// rises from 5.76% to 6.15%. TestBloomGeometry pins the same effect on FFT.
func BenchmarkAblationBloomPaperSize(b *testing.B) {
	ablationRun(b, "DBypFull", "radix", nil)
}

func BenchmarkAblationBloomTiny(b *testing.B) {
	ablationRun(b, "DBypFull", "radix", func(c *memsys.Config) {
		c.Bloom.FiltersPerSlice = 2
		c.Bloom.Entries = 64
	})
}

// MemToL1 (§3.1): latency win for DeNovo without a traffic change; the
// MESI variant (MMemL1) also saves traffic.
func BenchmarkAblationDeNovoNoMemToL1(b *testing.B) {
	ablationRun(b, "DValidateL2", "FFT", nil)
}

func BenchmarkAblationDeNovoMemToL1(b *testing.B) {
	ablationRun(b, "DMemL1", "FFT", nil)
}

// Flex packet cap (§5.3): kD-tree's two-record edge communication region
// is exactly the 64B packet cap. Halving the cap truncates the prefetch,
// forcing extra requests and refetches — the packet-size sensitivity the
// paper blames for two of three edge lines being read twice from memory.
func BenchmarkAblationFlexCap4Flits(b *testing.B) {
	ablationRun(b, "DFlexL2", "kD-tree", nil)
}

func BenchmarkAblationFlexCap2Flits(b *testing.B) {
	ablationRun(b, "DFlexL2", "kD-tree", func(c *memsys.Config) { c.MaxDataFlits = 2 })
}

// Protocol end-to-end micro-benchmarks: simulation throughput per
// protocol family on one workload (events are the simulator's cost unit).
func BenchmarkSimThroughputMESI(b *testing.B) {
	ablationRun(b, "MESI", "LU", nil)
}

func BenchmarkSimThroughputDBypFull(b *testing.B) {
	ablationRun(b, "DBypFull", "LU", nil)
}

// Cycle-level vc-router throughput: the same end-to-end runs under the vc
// wormhole model, whose per-cycle kernel tick dominates simulator cost.
// These pin the hot-path optimizations (kernel recurring-tick slot,
// allocation-free flit paths); the before/after numbers are recorded in
// CHANGES.md ("Made the cycle loop fast").
func vcRun(c *memsys.Config) { c.Router = "vc" }

func BenchmarkSimThroughputVCMESI(b *testing.B) {
	ablationRun(b, "MESI", "LU", vcRun)
}

func BenchmarkSimThroughputVCDBypFull(b *testing.B) {
	ablationRun(b, "DBypFull", "LU", vcRun)
}

func BenchmarkSimThroughputVCHotspot(b *testing.B) {
	ablationRun(b, "MESI", "hotspot(t=1)", vcRun)
}

func BenchmarkSimThroughputVCUniform(b *testing.B) {
	ablationRun(b, "MESI", "uniform", vcRun)
}

// End-to-end throughput on the deflection router (the PR 10 third
// fabric model): the bufferless tick loop replaces vc's credit and
// allocation machinery with oldest-first arbitration plus the endpoint
// reorder buffer. The hotspot shape is the interesting one — it is where
// deflections (and the DeflectedHops waste category) actually occur.
func deflRun(c *memsys.Config) { c.Router = "deflection" }

func BenchmarkSimThroughputDeflectionMESI(b *testing.B) {
	ablationRun(b, "MESI", "LU", deflRun)
}

func BenchmarkSimThroughputDeflectionHotspot(b *testing.B) {
	ablationRun(b, "MESI", "hotspot(t=1)", deflRun)
}

func BenchmarkSimThroughputDeflectionUniform(b *testing.B) {
	ablationRun(b, "MESI", "uniform", deflRun)
}

// Mesh-scaling throughput (the PR 8 geometry axis): the same vc-router
// end-to-end runs on re-dimensioned fabrics. The 16 worker threads map to
// the first 16 of 64/256 tiles, so the larger grids are sparser — on a
// 16x16 mesh with a single hot tile most of the fabric idles, which is
// exactly the case the O(active) tick path (active-node bitmask instead
// of a per-cycle scan of all 256 routers) exists for.
func mesh8x8VCRun(c *memsys.Config)   { *c = c.WithMesh(8, 8); c.Router = "vc" }
func mesh16x16VCRun(c *memsys.Config) { *c = c.WithMesh(16, 16); c.Router = "vc" }

func BenchmarkSimThroughputVCMesh8x8(b *testing.B) {
	ablationRun(b, "MESI", "uniform", mesh8x8VCRun)
}

func BenchmarkSimThroughputVCMesh16x16(b *testing.B) {
	ablationRun(b, "MESI", "uniform", mesh16x16VCRun)
}

func BenchmarkSimThroughputVCSparseHotspot16x16(b *testing.B) {
	ablationRun(b, "MESI", "hotspot(t=1)", mesh16x16VCRun)
}

// Extension beyond the paper (its §6 follow-up): hardware counter-based
// reuse prediction for L2 bypass instead of software annotations.
// Compare with the software-annotated DBypL2 on the same benchmark.
func BenchmarkExtensionBypassSoftware(b *testing.B) {
	ablationRun(b, "DBypL2", "kD-tree", nil)
}

func BenchmarkExtensionBypassHardware(b *testing.B) {
	ablationRun(b, "DBypHW", "kD-tree", nil)
}

// --- Synthetic-pattern benches (the PR 4 workload axis) ---
//
// The same traffic/time/waste metrics on the registry's synthetic
// patterns, so the trajectory tracks protocol behavior under controlled
// sharing shapes alongside the application mixes. Hotspot at a single hot
// tile is the concentration extreme; uniform is the spread extreme.
func BenchmarkAblationSyntheticUniformMESI(b *testing.B) {
	ablationRun(b, "MESI", "uniform", nil)
}

func BenchmarkAblationSyntheticUniformDeNovo(b *testing.B) {
	ablationRun(b, "DeNovo", "uniform", nil)
}

func BenchmarkAblationSyntheticHotspotMESI(b *testing.B) {
	ablationRun(b, "MESI", "hotspot(t=1)", nil)
}

func BenchmarkAblationSyntheticHotspotDeNovo(b *testing.B) {
	ablationRun(b, "DeNovo", "hotspot(t=1)", nil)
}

// --- Sweep benches (the PR 5 third axis) ---
//
// One assembled curve per bench: the Tiny hotspot concentration sweep
// (the golden sweep's shape) and a vc-router injection-rate sweep. The
// reported metrics are the curve's endpoints — traffic and mean packet
// latency at the lightest and heaviest point — so the trajectory tracks
// the curve shape, not just one operating point.
func sweepBench(b *testing.B, opt core.MatrixOptions, spec string) {
	b.Helper()
	var table *core.SweepTable
	for i := 0; i < b.N; i++ {
		res, err := core.Run(context.Background(), opt, core.RunOptions{Sweep: spec})
		if err != nil {
			b.Fatal(err)
		}
		table = res.Table()
	}
	// Endpoints of one protocol's curve (the first listed), so first-vs-last
	// deltas measure the load axis, not a protocol difference.
	proto := table.Rows[0].Protocol
	var curve []core.SweepRow
	for _, r := range table.Rows {
		if r.Protocol == proto {
			curve = append(curve, r)
		}
	}
	first, last := curve[0], curve[len(curve)-1]
	b.ReportMetric(float64(len(table.Rows)), "rows")
	b.ReportMetric(first.Values[0], "first_flit-hops")
	b.ReportMetric(last.Values[0], "last_flit-hops")
	b.ReportMetric(first.Values[2], "first_mean_lat")
	b.ReportMetric(last.Values[2], "last_mean_lat")
}

func BenchmarkSweepHotspotConcentration(b *testing.B) {
	sweepBench(b, core.MatrixOptions{
		Size:      workloads.Tiny,
		Protocols: []string{"MESI", "DeNovo"},
	}, "hotspot(t=1,2,4,8,16)")
}

func BenchmarkSweepUniformLoadVC(b *testing.B) {
	sweepBench(b, core.MatrixOptions{
		Size:      workloads.Tiny,
		Router:    "vc",
		Protocols: []string{"MESI"},
	}, "uniform(p=0.02..0.1..0.04)")
}

// Trace replay overhead: replaying a recorded FFT trace must cost the
// same simulated work as the live program (the recorded stream is
// bit-identical); the bench pins the replay path's throughput.
func BenchmarkAblationTraceReplayFFT(b *testing.B) {
	dir := b.TempDir()
	path := dir + "/fft.trc"
	if err := trace.WriteFile(path, trace.Record(workloads.MustByName("FFT", workloads.Tiny, 16))); err != nil {
		b.Fatal(err)
	}
	ablationRun(b, "MESI", "replay(file="+path+")", nil)
}
