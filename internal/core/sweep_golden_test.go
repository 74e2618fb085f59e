package core_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/workloads"
)

const goldenSweepPath = "testdata/golden_sweep_tiny.json"

// goldenSweepOptions is the pinned sweep configuration: a Tiny hotspot
// concentration sweep under the ladder's endpoints, parallel by default
// (the determinism test proves worker count cannot matter).
func goldenSweepOptions() (core.MatrixOptions, string) {
	return core.MatrixOptions{
		Size:      workloads.Tiny,
		Protocols: []string{"MESI", "DeNovo", "DBypFull"},
	}, "hotspot(t=1,2,4,8,16)"
}

// TestGoldenTinySweep pins the assembled sweep table the same way
// TestGoldenTinyMatrix pins the figure tables: the Tiny hotspot sweep must
// reproduce the checked-in curve table exactly, at any worker count.
// Intentional model changes regenerate the snapshot with:
//
//	go test ./internal/core -run TestGoldenTinySweep -update
func TestGoldenTinySweep(t *testing.T) {
	if testing.Short() {
		t.Skip("5-point sweep x 3 protocols is slow; run without -short")
	}
	opt, spec := goldenSweepOptions()
	res, err := runSweep(opt, spec)
	if err != nil {
		t.Fatal(err)
	}
	got := res.Table()

	if *updateGolden {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenSweepPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenSweepPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d rows)", goldenSweepPath, len(got.Rows))
		return
	}

	raw, err := os.ReadFile(goldenSweepPath)
	if err != nil {
		t.Fatalf("%v — generate the snapshot with -update", err)
	}
	var want core.SweepTable
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("corrupt golden sweep file: %v", err)
	}
	// Round-trip the measured table through JSON so both sides compare
	// post-serialization (identical float64 round-trips, normalized nils).
	buf, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	var gotRT core.SweepTable
	if err := json.Unmarshal(buf, &gotRT); err != nil {
		t.Fatal(err)
	}

	if gotRT.Spec != want.Spec || gotRT.Axis != want.Axis {
		t.Errorf("sweep identity drifted: got (%q, %q), want (%q, %q)", gotRT.Spec, gotRT.Axis, want.Spec, want.Axis)
	}
	if !reflect.DeepEqual(gotRT.Columns, want.Columns) {
		t.Fatalf("columns drifted: got %v, want %v", gotRT.Columns, want.Columns)
	}
	if len(gotRT.Rows) != len(want.Rows) {
		t.Fatalf("%d rows, golden has %d", len(gotRT.Rows), len(want.Rows))
	}
	for i := range want.Rows {
		if !reflect.DeepEqual(want.Rows[i], gotRT.Rows[i]) {
			t.Errorf("row %d (%s/%s/%s) drifted:\nwant %v\ngot  %v",
				i, want.Rows[i].Point, want.Rows[i].Bench, want.Rows[i].Protocol,
				want.Rows[i].Values, gotRT.Rows[i].Values)
		}
	}
}
