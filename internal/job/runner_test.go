package job

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
)

// The unified stream's total order, on a real parallel sweep: delivery is
// serialized (the callback is never concurrent), Seq is gap-free in
// delivery order, and each point's lifecycle events arrive in order —
// simulating (or cached) strictly before done.
func TestRunUnifiedStreamTotalOrder(t *testing.T) {
	var events []Event
	req := Request{Sweep: "hotspot(t=1,2)", Protocols: []string{"MESI"}}
	out, err := Run(context.Background(), req, RunConfig{
		// Appending without a lock is the point: emit serializes every
		// callback under one mutex, so this is race-free by contract (the
		// race detector enforces it).
		Events: func(ev Event) { events = append(events, ev) },
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if out.Sweep == nil || len(out.Sweep.Points) != 2 {
		t.Fatalf("outcome = %+v, want a 2-point sweep", out)
	}

	begun := map[int]bool{}
	done := map[int]bool{}
	for i, ev := range events {
		if int(ev.Seq) != i {
			t.Fatalf("event %d has Seq %d: the stream must be gap-free in delivery order", i, ev.Seq)
		}
		switch ev.Kind {
		case core.KindCell:
			if ev.Bench == "" || ev.Protocol == "" {
				t.Fatalf("cell event %d missing bench/protocol: %+v", i, ev)
			}
		case core.KindPoint:
			switch ev.Status {
			case core.StatusSimulating, core.StatusCached:
				begun[ev.Point] = true
			case core.StatusDone:
				if !begun[ev.Point] {
					t.Fatalf("point %d done before simulating/cached (event %d)", ev.Point, i)
				}
				done[ev.Point] = true
			case core.StatusCacheCorrupt, core.StatusStoreFailed:
				t.Fatalf("unexpected warning event without a cache: %+v", ev)
			default:
				t.Fatalf("unknown point status %q", ev.Status)
			}
		default:
			t.Fatalf("unknown event kind %q", ev.Kind)
		}
	}
	if len(done) != 2 {
		t.Fatalf("saw done events for %d points, want 2", len(done))
	}
}

// A failing cache store is a loud warning event, never the run's error:
// the sweep completes with every point in the table, and the stream says
// which points will need resimulating on a later resume.
func TestRunStoreFailedEvent(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	cache, err := core.OpenPointCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Swap the cache directory for a regular file: every Load and Store
	// inside it now fails with ENOTDIR — the persistent-failure shape a
	// broken disk or tampered path produces.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}

	var statuses []string
	req := Request{Sweep: "hotspot(t=1,2)", Protocols: []string{"MESI"}, Workers: 1}
	out, err := Run(context.Background(), req, RunConfig{
		Cache: cache,
		Events: func(ev Event) {
			if ev.Kind == core.KindPoint {
				statuses = append(statuses, ev.Status)
				if ev.Status == core.StatusStoreFailed && ev.Error == "" {
					t.Errorf("store-failed event carries no error: %+v", ev)
				}
			}
		},
	})
	if err != nil {
		t.Fatalf("Run must not fail on store errors: %v", err)
	}
	if len(out.Sweep.Points) != 2 {
		t.Fatalf("sweep completed %d/2 points", len(out.Sweep.Points))
	}
	failed := 0
	for _, s := range statuses {
		if s == core.StatusStoreFailed {
			failed++
		}
	}
	if failed != 2 {
		t.Fatalf("store-failed events = %d (statuses %v), want one per point", failed, statuses)
	}
}

// Whole-matrix runs are cached too: a matrix is point 0 of a one-point
// sweep, so an identical second Run is served from the store
// bit-identically, announced by a single cached point event with no cell
// events, and renders exactly the same text.
func TestRunMatrixCache(t *testing.T) {
	cache, err := core.OpenPointCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	req := Request{
		Figures:    []string{"net"},
		Benchmarks: []string{"uniform(p=0.05)"},
		Protocols:  []string{"MESI"},
		Workers:    1,
	}
	render := func(out *Outcome) string {
		t.Helper()
		var sb strings.Builder
		if err := out.RenderText(&sb, req); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	run := func() (*Outcome, []Event) {
		t.Helper()
		var events []Event
		out, err := Run(context.Background(), req, RunConfig{Cache: cache, Events: func(ev Event) {
			events = append(events, ev)
		}})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return out, events
	}

	first, events := run()
	want := []Event{
		{Seq: 0, Kind: core.KindPoint, Status: core.StatusSimulating, Total: 1},
		{Seq: 1, Kind: core.KindCell, Bench: "uniform", Protocol: "MESI"}, // the canonical spelling: p=0.05 is the default
		{Seq: 2, Kind: core.KindPoint, Status: core.StatusDone, Total: 1},
	}
	if !reflect.DeepEqual(events, want) {
		t.Fatalf("first run events = %+v, want %+v (simulated, not cached)", events, want)
	}

	second, events := run()
	want = []Event{{Seq: 0, Kind: core.KindPoint, Status: core.StatusCached, Total: 1}}
	if !reflect.DeepEqual(events, want) {
		t.Fatalf("second run events = %+v, want one cached point event and no cells", events)
	}
	if a, b := render(first), render(second); a != b {
		t.Fatalf("cache-served matrix rendered differently:\n--- simulated\n%s\n--- cached\n%s", a, b)
	}
}

// Run validates before simulating, and the errors keep their usage-error
// type so transports map them to exit 2 / HTTP 400 — what only the
// planner finds (threads past the tile count) included.
func TestRunValidates(t *testing.T) {
	for _, req := range []Request{{Size: "huge"}, {Mesh: "2x2"}} {
		_, err := Run(context.Background(), req, RunConfig{})
		if err == nil || !IsUsageError(err) {
			t.Fatalf("Run(%+v): err = %v, want a UsageError", req, err)
		}
	}
}

// ExampleRun shows the orchestration layer's whole surface: a request, a
// config with an event sink, an outcome rendered to the CLI's text.
func ExampleRun() {
	req := Request{Sweep: "hotspot(t=1,2)", Protocols: []string{"MESI"}, Workers: 1}
	points := 0
	out, err := Run(context.Background(), req, RunConfig{
		Events: func(ev Event) {
			if ev.Kind == core.KindPoint && ev.Status == core.StatusDone {
				points++
			}
		},
	})
	if err != nil {
		fmt.Println("run failed:", err)
		return
	}
	fmt.Printf("%d/%d points, axis %s\n", points, out.Sweep.Expected, out.Sweep.Axis)
	// Output:
	// 2/2 points, axis hotspot.t
}
