package core_test

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/workloads"
)

var updateGolden = flag.Bool("update", false,
	"rewrite internal/core/testdata/golden_tiny.json from the current model")

// goldenFigureIDs are the snapshotted paper figures. The congestion table
// ("net") is deliberately excluded: it is new telemetry, not a pinned
// paper figure, and may grow columns without invalidating the model.
var goldenFigureIDs = []string{"5.1a", "5.1b", "5.1c", "5.1d", "5.2", "5.3a", "5.3b", "5.3c"}

// goldenFile is the serialized snapshot of every figure the full Tiny
// matrix produces, plus the headline summary.
type goldenFile struct {
	Figures map[string]*core.Table
	Summary *core.Summary
}

const goldenPath = "testdata/golden_tiny.json"

// TestGoldenTinyMatrix is the golden-figure regression suite: the full
// 6-benchmark x 9-protocol Tiny matrix must reproduce the checked-in
// figure tables and summary exactly, field for field. Any model change
// that shifts a figure — an accidental refactor drift as much as a real
// protocol change — fails here; intentional changes regenerate the
// snapshot with:
//
//	go test ./internal/core -run TestGoldenTinyMatrix -update
func TestGoldenTinyMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("full 6x9 matrix is slow; run without -short")
	}
	m, err := runMatrix(core.MatrixOptions{Size: workloads.Tiny})
	if err != nil {
		t.Fatal(err)
	}
	got := goldenFile{
		Figures: make(map[string]*core.Table, len(goldenFigureIDs)),
		Summary: m.Summarize(),
	}
	for _, id := range goldenFigureIDs {
		tab, err := m.Figure(id)
		if err != nil {
			t.Fatal(err)
		}
		got.Figures[id] = tab
	}

	if *updateGolden {
		buf, err := json.MarshalIndent(&got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d figures)", goldenPath, len(got.Figures))
		return
	}

	raw, err := os.ReadFile(goldenPath)
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

	if !reflect.DeepEqual(want.Summary, gotRT.Summary) {
		t.Errorf("summary drifted from golden:\nwant %+v\ngot  %+v", want.Summary, gotRT.Summary)
	}
	for _, id := range goldenFigureIDs {
		w, g := want.Figures[id], gotRT.Figures[id]
		if w == nil {
			t.Errorf("figure %s missing from golden file — regenerate with -update", id)
			continue
		}
		if reflect.DeepEqual(w, g) {
			continue
		}
		// Localize the drift for the failure message.
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
