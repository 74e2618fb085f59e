package core_test

// The point-cache correctness suite: content addresses are distinct for
// distinct canonical configurations and identical across spellings of one
// configuration, cache hits are bit-identical to fresh simulation, and
// corrupt entries fail loudly, fall back to simulation, and heal.

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/workloads"
)

// cacheSweepOptions is the tiny two-point sweep the cache tests run: one
// benchmark per point, one protocol, two cells total.
func cacheSweepOptions() (core.MatrixOptions, string) {
	return core.MatrixOptions{Size: workloads.Tiny, Protocols: []string{"MESI"}}, "hotspot(t=1,2)"
}

// runCachedSweep runs the sweep against dir's cache, collecting the
// sweep-level progress statuses.
func runCachedSweep(t *testing.T, dir string) (*core.SweepResult, []string) {
	t.Helper()
	cache, err := core.OpenPointCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	var statuses []string
	opt, spec := cacheSweepOptions()
	res, err := core.Run(context.Background(), opt, core.RunOptions{
		Sweep:    spec,
		Cache:    cache,
		Progress: func(ev core.Event) { statuses = append(statuses, ev.Status) },
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, statuses
}

func countStatus(statuses []string, want string) int {
	n := 0
	for _, s := range statuses {
		if s == want {
			n++
		}
	}
	return n
}

// TestPointKeyDistinctByConstruction: every axis of the configuration
// participates in the preimage, so distinct canonical configurations get
// distinct preimages (and therefore distinct keys), while spelling
// variants of one configuration collide on the same key because the
// registries normalize them before hashing.
func TestPointKeyDistinctByConstruction(t *testing.T) {
	base := core.MatrixOptions{Size: workloads.Tiny, Benchmarks: []string{"FFT"}, Protocols: []string{"MESI"}}
	variants := []core.MatrixOptions{
		base,
		{Size: workloads.Small, Benchmarks: []string{"FFT"}, Protocols: []string{"MESI"}},
		{Size: workloads.Tiny, Benchmarks: []string{"LU"}, Protocols: []string{"MESI"}},
		{Size: workloads.Tiny, Benchmarks: []string{"FFT"}, Protocols: []string{"DeNovo"}},
		{Size: workloads.Tiny, Benchmarks: []string{"FFT"}, Protocols: []string{"MESI"}, Topology: "ring"},
		{Size: workloads.Tiny, Benchmarks: []string{"FFT"}, Protocols: []string{"MESI"}, Router: "vc"},
		{Size: workloads.Tiny, Benchmarks: []string{"FFT"}, Protocols: []string{"MESI"}, Router: "vc", VCs: 8},
		{Size: workloads.Tiny, Benchmarks: []string{"FFT"}, Protocols: []string{"MESI"}, Router: "vc", VCDepth: 7},
		{Size: workloads.Tiny, Benchmarks: []string{"FFT"}, Protocols: []string{"MESI"}, Threads: 8},
		{Size: workloads.Tiny, Benchmarks: []string{"FFT", "LU"}, Protocols: []string{"MESI"}},
		// A spec containing commas must not collide with a spec list —
		// the preimage frames each spec, it does not comma-join them.
		{Size: workloads.Tiny, Benchmarks: []string{"hotspot(t=2,p=0.2)"}, Protocols: []string{"MESI"}},
		{Size: workloads.Tiny, Benchmarks: []string{"hotspot(t=2)", "uniform(p=0.2)"}, Protocols: []string{"MESI"}},
	}
	seen := map[string]int{}
	pre := map[string]int{}
	for i, opt := range variants {
		key, err := core.PointKeyFor(opt)
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		if prev, dup := seen[key.Hash]; dup {
			t.Errorf("variants %d and %d share key %s", prev, i, key.Hash)
		}
		if prev, dup := pre[key.Preimage]; dup {
			t.Errorf("variants %d and %d share a preimage", prev, i)
		}
		seen[key.Hash], pre[key.Preimage] = i, i
	}

	// Spellings of one configuration normalize to one key: whitespace in
	// specs, default parameter values spelled out, Workers/Progress
	// (which cannot change results) ignored.
	a, err := core.PointKeyFor(base)
	if err != nil {
		t.Fatal(err)
	}
	equivalents := []core.MatrixOptions{
		{Size: workloads.Tiny, Benchmarks: []string{" FFT "}, Protocols: []string{"MESI"}, Workers: 7},
		{Size: workloads.Tiny, Benchmarks: []string{"FFT"}, Protocols: []string{"MESI"}, Threads: 16}, // the default
	}
	for i, opt := range equivalents {
		b, err := core.PointKeyFor(opt)
		if err != nil {
			t.Fatalf("equivalent %d: %v", i, err)
		}
		if b.Hash != a.Hash || b.Preimage != a.Preimage {
			t.Errorf("equivalent %d: key diverged from the canonical spelling", i)
		}
	}
	w1, err := core.PointKeyFor(core.MatrixOptions{Size: workloads.Tiny, Benchmarks: []string{"hotspot( t = 2 )"}, Protocols: []string{"MESI + MemL1"}})
	if err != nil {
		t.Fatal(err)
	}
	w2, err := core.PointKeyFor(core.MatrixOptions{Size: workloads.Tiny, Benchmarks: []string{"hotspot(t=2)"}, Protocols: []string{"MESI+MemL1"}})
	if err != nil {
		t.Fatal(err)
	}
	if w1.Hash != w2.Hash {
		t.Error("whitespace spellings of one configuration produced different keys")
	}
}

// TestPointKeyReplayUncacheable: a trace replay's results depend on file
// contents the configuration hash cannot see, so such points must refuse
// a key rather than serve a stale matrix after the file changes.
func TestPointKeyReplayUncacheable(t *testing.T) {
	_, err := core.PointKeyFor(core.MatrixOptions{
		Size:       workloads.Tiny,
		Benchmarks: []string{"replay(file=/nonexistent.trc)"},
		Protocols:  []string{"MESI"},
	})
	if !errors.Is(err, core.ErrUncacheable) {
		t.Fatalf("replay point key err = %v, want ErrUncacheable", err)
	}
}

// TestPointCacheRoundTrip pins the losslessness the cache rests on: a
// stored matrix loads back deeply equal to the in-memory original, floats
// and all.
func TestPointCacheRoundTrip(t *testing.T) {
	opt := core.MatrixOptions{Size: workloads.Tiny, Benchmarks: []string{"LU"}, Protocols: []string{"MESI"}}
	m, err := runMatrix(opt)
	if err != nil {
		t.Fatal(err)
	}
	key, err := core.PointKeyFor(opt)
	if err != nil {
		t.Fatal(err)
	}
	cache, err := core.OpenPointCache(filepath.Join(t.TempDir(), "nested", "cache"))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := cache.Load(key); err != nil || got != nil {
		t.Fatalf("load before store = (%v, %v), want miss", got, err)
	}
	if err := cache.Store(key, m); err != nil {
		t.Fatal(err)
	}
	got, err := cache.Load(key)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Error("matrix did not round-trip the cache bit-identically")
	}
}

// TestSweepCacheHitBitIdentical is the cache's core guarantee: a second
// identical sweep simulates nothing and assembles a result deeply equal
// to the fresh run — table and full per-point matrices.
func TestSweepCacheHitBitIdentical(t *testing.T) {
	dir := t.TempDir()
	fresh, firstStatuses := runCachedSweep(t, dir)
	if n := countStatus(firstStatuses, core.StatusCached); n != 0 {
		t.Fatalf("first run served %d points from an empty cache", n)
	}
	second, statuses := runCachedSweep(t, dir)
	if n := countStatus(statuses, core.StatusSimulating); n != 0 {
		t.Errorf("second run simulated %d points, want 0", n)
	}
	if n := countStatus(statuses, core.StatusCached); n != len(fresh.Points) {
		t.Errorf("second run cached %d/%d points", n, len(fresh.Points))
	}
	if !reflect.DeepEqual(fresh.Table(), second.Table()) {
		t.Error("cache-served table differs from fresh simulation")
	}
	if len(second.Points) != len(fresh.Points) {
		t.Fatalf("%d points, want %d", len(second.Points), len(fresh.Points))
	}
	for i := range fresh.Points {
		if !second.Points[i].Cached {
			t.Errorf("point %d not marked cached", i)
		}
		if !reflect.DeepEqual(fresh.Points[i].Matrix, second.Points[i].Matrix) {
			t.Errorf("point %s: cache hit not bit-identical to fresh simulation", fresh.Points[i].Value)
		}
	}
}

// TestSweepCacheCorruptEntryFallsBack: garbage and truncated entries must
// error loudly (a StatusCacheCorrupt event carrying the error), fall
// back to fresh simulation with an unchanged result, and heal the entry.
func TestSweepCacheCorruptEntryFallsBack(t *testing.T) {
	dir := t.TempDir()
	fresh, _ := runCachedSweep(t, dir)
	entries, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(entries) != 2 {
		t.Fatalf("cache entries = %v (err %v), want 2", entries, err)
	}
	if err := os.WriteFile(entries[0], []byte("{ this is not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(entries[1])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(entries[1], raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	cache, err := core.OpenPointCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	var corrupt []string
	var started int
	opt, spec := cacheSweepOptions()
	res, err := core.Run(context.Background(), opt, core.RunOptions{
		Sweep: spec,
		Cache: cache,
		Progress: func(ev core.Event) {
			switch ev.Status {
			case core.StatusCacheCorrupt:
				corrupt = append(corrupt, ev.Error)
			case core.StatusSimulating:
				started++
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(corrupt) != 2 {
		t.Fatalf("%d corrupt-entry events, want 2", len(corrupt))
	}
	for _, e := range corrupt {
		if e == "" {
			t.Fatal("corrupt-entry event carried no error")
		}
		if !strings.Contains(e, "point cache entry") {
			t.Errorf("corrupt-entry error %q does not name the cache entry", e)
		}
	}
	if started != 2 {
		t.Errorf("resimulated %d points, want 2", started)
	}
	if !reflect.DeepEqual(fresh.Table(), res.Table()) {
		t.Error("fallback simulation differs from the original run")
	}

	// The rewritten entries must serve cleanly now.
	_, statuses := runCachedSweep(t, dir)
	if n := countStatus(statuses, core.StatusCached); n != 2 {
		t.Errorf("after healing, %d/2 points served from cache", n)
	}
}
