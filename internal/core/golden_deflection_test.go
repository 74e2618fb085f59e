package core_test

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/memsys"
	"repro/internal/workloads"
)

const goldenDeflPath = "testdata/golden_tiny_deflection.json"

// goldenDeflFigureIDs are the deflection snapshot's tables: the headline
// traffic figure plus the congestion-telemetry table. Unlike the main
// golden (where "net" is excluded so new telemetry columns stay cheap),
// the deflection snapshot pins "net" on purpose — DeflectedHops and the
// deflection router's latency profile ARE the behavior under test.
var goldenDeflFigureIDs = []string{"5.1a", "net"}

// goldenDeflOptions is the pinned configuration: the full Tiny benchmark
// suite under the protocol ladder's endpoints and midpoint, every cell on
// the deflection router.
func goldenDeflOptions() core.MatrixOptions {
	return core.MatrixOptions{
		Size:      workloads.Tiny,
		Protocols: []string{"MESI", "DeNovo", "DBypFull"},
		Router:    "deflection",
	}
}

// TestGoldenTinyDeflection pins the deflection router end to end the same
// way TestGoldenTinyMatrix pins the ideal model: the Tiny matrix under
// Router=deflection must reproduce the checked-in figure and telemetry
// tables exactly — deflected-hop counts included. Intentional model
// changes regenerate the snapshot with:
//
//	go test ./internal/core -run TestGoldenTinyDeflection -update
func TestGoldenTinyDeflection(t *testing.T) {
	if testing.Short() {
		t.Skip("full Tiny deflection matrix is slow; run without -short")
	}
	m, err := runMatrix(goldenDeflOptions())
	if err != nil {
		t.Fatal(err)
	}
	got := goldenFile{Figures: make(map[string]*core.Table, len(goldenDeflFigureIDs))}
	for _, id := range goldenDeflFigureIDs {
		tab, err := m.Figure(id)
		if err != nil {
			t.Fatal(err)
		}
		got.Figures[id] = tab
	}

	// Sanity the snapshot is pinning real deflection behavior, not a
	// silently-ideal run: some cell must have recorded deflected hops.
	var deflTotal float64
	net := got.Figures["net"]
	col := -1
	for i, c := range net.Columns {
		if c == "Defl Hops" {
			col = i
		}
	}
	if col < 0 {
		t.Fatalf("congestion table has no Defl Hops column: %v", net.Columns)
	}
	for _, row := range net.Rows {
		deflTotal += row.Values[col]
	}
	if deflTotal <= 0 {
		t.Fatal("no cell of the Tiny deflection matrix recorded deflected hops")
	}

	if *updateGolden {
		buf, err := json.MarshalIndent(&got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenDeflPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenDeflPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d figures)", goldenDeflPath, len(got.Figures))
		return
	}

	raw, err := os.ReadFile(goldenDeflPath)
	if err != nil {
		t.Fatalf("%v — generate the snapshot with -update", err)
	}
	var want goldenFile
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("corrupt golden file: %v", err)
	}
	// Round-trip the measured state through JSON so both sides compare
	// post-serialization (identical float64 round-trips, normalized nils).
	buf, err := json.Marshal(&got)
	if err != nil {
		t.Fatal(err)
	}
	var gotRT goldenFile
	if err := json.Unmarshal(buf, &gotRT); err != nil {
		t.Fatal(err)
	}
	for _, id := range goldenDeflFigureIDs {
		w, g := want.Figures[id], gotRT.Figures[id]
		if w == nil {
			t.Errorf("figure %s missing from golden file — regenerate with -update", id)
			continue
		}
		if reflect.DeepEqual(w, g) {
			continue
		}
		if !reflect.DeepEqual(w.Columns, g.Columns) {
			t.Errorf("figure %s: columns drifted: want %v, got %v", id, w.Columns, g.Columns)
			continue
		}
		if len(w.Rows) != len(g.Rows) {
			t.Errorf("figure %s: %d rows, golden has %d", id, len(g.Rows), len(w.Rows))
			continue
		}
		for i := range w.Rows {
			if !reflect.DeepEqual(w.Rows[i], g.Rows[i]) {
				t.Errorf("figure %s row %d (%s/%s) drifted:\nwant %v\ngot  %v",
					id, i, w.Rows[i].Bench, w.Rows[i].Protocol, w.Rows[i].Values, g.Rows[i].Values)
			}
		}
	}
}

// TestDeflectionMatrixMatchesSerial extends the bit-identical-at-any-
// worker-count guarantee to the deflection router: a serial run and a
// default-width parallel run of the same matrix must agree on every
// counter, deflected hops included.
func TestDeflectionMatrixMatchesSerial(t *testing.T) {
	run := func(workers int) *core.Matrix {
		m, err := runMatrix(core.MatrixOptions{
			Size:       workloads.Tiny,
			Protocols:  []string{"MESI", "DBypFull"},
			Benchmarks: []string{"FFT"},
			Router:     "deflection",
			Workers:    workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	serial, parallel := run(1), run(0)
	if serial.Router != "deflection" || parallel.Router != "deflection" {
		t.Fatalf("matrix router %q/%q, want deflection", serial.Router, parallel.Router)
	}
	for _, proto := range serial.Protocols {
		a, b := serial.Get("FFT", proto), parallel.Get("FFT", proto)
		if a == nil || b == nil {
			t.Fatalf("%s: missing cell", proto)
		}
		if a.FlitHops != b.FlitHops || a.ExecCycles != b.ExecCycles ||
			a.Waste != b.Waste || a.Time != b.Time || a.Net != b.Net {
			t.Fatalf("%s: deflection cell diverges between serial and parallel runs", proto)
		}
		if a.Net.Router != "deflection" {
			t.Fatalf("%s: cell ran router %q", proto, a.Net.Router)
		}
		if a.Net.PeakVCOccupancy <= 0 {
			t.Fatalf("%s: deflection run recorded no local-queue occupancy", proto)
		}
	}
}

// End to end, a saturating hotspot on the deflection router records
// deflected hops and a strictly higher mean packet latency than the
// ideal reservation model: misrouting detours are measured, not hidden.
func TestDeflectionHotspotEndToEnd(t *testing.T) {
	wl := workloads.MustByName("hotspot(t=1)", workloads.Tiny, 16)
	cfg := memsys.Default().Scaled(workloads.Tiny.ScaleDiv())
	ideal, err := core.RunOne(context.Background(), cfg, "MESI", wl)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Router = "deflection"
	defl, err := core.RunOne(context.Background(), cfg, "MESI", wl)
	if err != nil {
		t.Fatal(err)
	}
	if defl.Net.DeflectedHops == 0 {
		t.Fatal("hotspot run on the deflection router recorded zero deflected hops")
	}
	if ideal.Net.DeflectedHops != 0 {
		t.Fatalf("ideal router reported %d deflected hops", ideal.Net.DeflectedHops)
	}
	if !(defl.Net.LatencyMean > ideal.Net.LatencyMean) {
		t.Fatalf("deflection mean latency %.2f not above ideal %.2f",
			defl.Net.LatencyMean, ideal.Net.LatencyMean)
	}
}

// The saturation claim behind the sweep pin: under a rising hotspot load
// the deflection router's latency curve diverges from the vc router's —
// at high injection the two cycle-level models must not agree (deflection
// pays detours where vc pays buffering) — and only tables containing
// deflection cells grow the Defl% column.
func TestDeflectionSweepDivergesFromVC(t *testing.T) {
	if testing.Short() {
		t.Skip("two 3-point sweeps are slow; run without -short")
	}
	sweep := func(router string) *core.SweepTable {
		res, err := runSweep(core.MatrixOptions{
			Size:      workloads.Tiny,
			Protocols: []string{"MESI"},
			Router:    router,
		}, "hotspot(t=1,4,16)")
		if err != nil {
			t.Fatal(err)
		}
		return res.Table()
	}
	vc, defl := sweep("vc"), sweep("deflection")

	wantVC := []string{"Traffic", "Cycles", "MeanLat", "MaxLat", "Util%", "Waste%", "L1Waste%"}
	if !reflect.DeepEqual(vc.Columns, wantVC) {
		t.Fatalf("vc sweep columns %v, want the historical set %v", vc.Columns, wantVC)
	}
	if !reflect.DeepEqual(defl.Columns, append(wantVC, "Defl%")) {
		t.Fatalf("deflection sweep columns %v, want %v plus Defl%%", defl.Columns, wantVC)
	}
	if len(vc.Rows) != len(defl.Rows) {
		t.Fatalf("row mismatch: vc %d, deflection %d", len(vc.Rows), len(defl.Rows))
	}
	col := func(t2 *core.SweepTable, name string) int {
		for i, c := range t2.Columns {
			if c == name {
				return i
			}
		}
		t.Fatalf("column %s missing from %v", name, t2.Columns)
		return -1
	}
	meanVC, meanDefl := col(vc, "MeanLat"), col(defl, "MeanLat")
	deflIdx := col(defl, "Defl%")
	diverged, deflected := false, false
	for i := range vc.Rows {
		if vc.Rows[i].Values[meanVC] != defl.Rows[i].Values[meanDefl] {
			diverged = true
		}
		if defl.Rows[i].Values[deflIdx] > 0 {
			deflected = true
		}
	}
	if !diverged {
		t.Fatal("vc and deflection latency curves are identical across the hotspot sweep")
	}
	if !deflected {
		t.Fatal("no point of the deflection sweep reported a nonzero Defl%")
	}
}
