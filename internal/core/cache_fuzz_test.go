package core_test

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/workloads"
)

// loadOptions is the one-cell point the entry tests store and load.
func loadOptions() core.MatrixOptions {
	return core.MatrixOptions{Size: workloads.Tiny, Benchmarks: []string{"FFT"}, Protocols: []string{"MESI"}}
}

// realEntry runs loadOptions' point through a cache in dir and returns
// its key and the entry file's bytes.
func realEntry(t testing.TB, dir string) (core.PointKey, []byte) {
	cache, err := core.OpenPointCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.Run(context.Background(), loadOptions(), core.RunOptions{Cache: cache}); err != nil {
		t.Fatal(err)
	}
	key, err := core.PointKeyFor(loadOptions())
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, key.Hash+".json"))
	if err != nil {
		t.Fatal(err)
	}
	return key, raw
}

// tamper decodes an entry, lets edit change its matrix, and encodes it
// again; the preimage stays, so only the matrix check can catch it.
func tamper(t testing.TB, raw []byte, edit func(m map[string]any)) []byte {
	var e map[string]any
	if err := json.Unmarshal(raw, &e); err != nil {
		t.Fatal(err)
	}
	edit(e["Matrix"].(map[string]any))
	out, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// tamperings are entries whose preimage matches the key but whose matrix
// is not the point's. The first two are what a hand edit of a one-cell
// FFT/MESI entry made the CLI print: a DeNovo-vs-MESI traffic line
// "measured 0.0%" for a protocol never run, and figure headers with no
// rows.
var tamperings = []struct {
	name string
	edit func(m map[string]any)
}{
	{"lists name cells it lacks", func(m map[string]any) {
		m["Benchmarks"] = []string{"FFT", "LU"}
		m["Protocols"] = []string{"MESI", "DeNovo"}
	}},
	{"no results", func(m map[string]any) { m["Results"] = map[string]any{} }},
	{"another size", func(m map[string]any) { m["Size"] = float64(workloads.Small) }},
	{"another topology", func(m map[string]any) { m["Topology"] = "ring" }},
	{"another router", func(m map[string]any) { m["Router"] = "vc" }},
	{"a null result", func(m map[string]any) {
		m["Results"].(map[string]any)["FFT"].(map[string]any)["MESI"] = nil
	}},
	{"an extra result", func(m map[string]any) {
		row := m["Results"].(map[string]any)["FFT"].(map[string]any)
		row["DeNovo"] = row["MESI"]
	}},
	{"an extra row", func(m map[string]any) {
		res := m["Results"].(map[string]any)
		res["LU"] = res["FFT"]
	}},
}

// TestPointCacheRejectsTamperedMatrix: an entry whose preimage matches but
// whose matrix is not the point's must fail Load and be resimulated, with
// the fresh result, and healed.
func TestPointCacheRejectsTamperedMatrix(t *testing.T) {
	dir := t.TempDir()
	key, raw := realEntry(t, dir)
	fresh, err := runMatrix(loadOptions())
	if err != nil {
		t.Fatal(err)
	}
	cache, err := core.OpenPointCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, key.Hash+".json")
	for _, tc := range tamperings {
		t.Run(tc.name, func(t *testing.T) {
			if err := os.WriteFile(path, tamper(t, raw, tc.edit), 0o644); err != nil {
				t.Fatal(err)
			}
			if m, err := cache.Load(key); err == nil {
				t.Fatalf("Load served the tampered entry: %+v", m)
			} else if !strings.Contains(err.Error(), "point cache entry") {
				t.Errorf("error %q does not name the cache entry", err)
			}
			var corrupt, started int
			res, err := core.Run(context.Background(), loadOptions(), core.RunOptions{
				Cache: cache,
				Progress: func(ev core.Event) {
					switch ev.Status {
					case core.StatusCacheCorrupt:
						corrupt++
					case core.StatusSimulating:
						started++
					}
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if corrupt != 1 || started != 1 {
				t.Errorf("%d corrupt-entry events and %d simulated points, want 1 and 1", corrupt, started)
			}
			if !reflect.DeepEqual(res.Points[0].Matrix, fresh) {
				t.Error("the resimulated matrix differs from a fresh run")
			}
			if m, err := cache.Load(key); err != nil || !reflect.DeepEqual(m, fresh) {
				t.Errorf("the healed entry loads as (%v, %v), want the fresh matrix", m, err)
			}
		})
	}
}

// FuzzPointCacheLoad writes arbitrary bytes as the entry of one fixed key:
// Load must never panic, and it either fails or returns a matrix holding
// exactly the key's point, FFT under MESI at Tiny on the ideal 4x4 mesh,
// with its one cell.
func FuzzPointCacheLoad(f *testing.F) {
	key, raw := realEntry(f, f.TempDir())
	f.Add(raw)
	f.Add(raw[:len(raw)/2])
	f.Add([]byte(strings.Replace(string(raw), "size=", "size=1", 1)))
	for _, tc := range tamperings {
		f.Add(tamper(f, raw, tc.edit))
	}
	dir := f.TempDir()
	cache, err := core.OpenPointCache(dir)
	if err != nil {
		f.Fatal(err)
	}
	path := filepath.Join(dir, key.Hash+".json")
	f.Fuzz(func(t *testing.T, entry []byte) {
		if err := os.WriteFile(path, entry, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := cache.Load(key)
		if err != nil {
			if m != nil {
				t.Fatal("Load returned a matrix with its error")
			}
			return
		}
		if m == nil {
			t.Fatal("Load of an existing entry returned neither a matrix nor an error")
		}
		if m.Size != workloads.Tiny || m.Topology != "mesh" || m.Router != "ideal" ||
			!slices.Equal(m.Benchmarks, []string{"FFT"}) || !slices.Equal(m.Protocols, []string{"MESI"}) {
			t.Fatalf("Load served another point: %v %s %s %v %v", m.Size, m.Topology, m.Router, m.Benchmarks, m.Protocols)
		}
		if len(m.Results) != 1 || len(m.Results["FFT"]) != 1 || m.Get("FFT", "MESI") == nil {
			t.Fatalf("Load served cells %v, want FFT/MESI alone", m.Results)
		}
	})
}
