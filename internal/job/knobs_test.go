package job

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
)

// knobSamples holds one valid non-default value per engine knob, under
// knobBase, which pins the vc router so VC geometry is valid. A knob
// added to the table without a sample fails TestKnobTable.
var knobSamples = map[string]any{
	"topology": "ring",
	"router":   "deflection",
	"mesh":     "8x8",
	"vcs":      4,
	"vcdepth":  8,
	"threads":  8,
}

const knobBase = `{"router":"vc","benchmarks":["uniform(p=0.01)"],"protocols":["MESI"],"workers":1}`

// knobPreimage decodes knobBase with one knob pinned (none when name is
// "") the way the server decodes a body, runs it through a fresh point
// cache and returns the cache preimage of the point it planned, one line
// per element.
func knobPreimage(t *testing.T, name string, v any) []string {
	t.Helper()
	var body map[string]any
	if err := json.Unmarshal([]byte(knobBase), &body); err != nil {
		t.Fatal(err)
	}
	if name != "" {
		body[name] = v
	}
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := decodeRequest(nil, io.NopCloser(bytes.NewReader(raw)))
	if err != nil {
		t.Fatalf("knob %q is not a Request JSON field: %v", name, err)
	}
	dir := t.TempDir()
	cache, err := core.OpenPointCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), req, RunConfig{Cache: cache}); err != nil {
		t.Fatalf("%s: %v", raw, err)
	}
	entries, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("%s: cache entries %v (%v), want one", raw, entries, err)
	}
	b, err := os.ReadFile(entries[0])
	if err != nil {
		t.Fatal(err)
	}
	var entry struct{ Preimage string }
	if err := json.Unmarshal(b, &entry); err != nil {
		t.Fatal(err)
	}
	return strings.Split(entry.Preimage, "\n")
}

// TestKnobTable pins the knob table's contract. The knobs are the
// engine sweep axes but protocol, in the same order; each knob's name is
// a Request JSON field that reaches the planned options; and pinning any
// one knob changes exactly that knob's line of the cache preimage, so no
// two configurations can alias on one cache entry.
func TestKnobTable(t *testing.T) {
	var names []string
	for _, k := range core.Knobs() {
		names = append(names, k.Name)
	}
	axes := slices.DeleteFunc(core.SweepAxisNames(), func(a string) bool { return a == "protocol" })
	if !reflect.DeepEqual(names, axes) {
		t.Errorf("knobs %v, want the sweep axes but protocol %v", names, axes)
	}

	base := knobPreimage(t, "", nil)
	for _, name := range names {
		v, ok := knobSamples[name]
		if !ok {
			t.Errorf("knob %q has no sample value", name)
			continue
		}
		pinned := knobPreimage(t, name, v)
		if len(pinned) != len(base) {
			t.Errorf("pinning %s=%v changes the preimage's line count: %d, want %d", name, v, len(pinned), len(base))
			continue
		}
		var changed []string
		for i := range base {
			if pinned[i] != base[i] {
				changed = append(changed, pinned[i])
			}
		}
		if want := fmt.Sprintf("%s=%v", name, v); len(changed) != 1 || changed[0] != want {
			t.Errorf("pinning %s=%v changed preimage lines %q, want only %q", name, v, changed, want)
		}
	}
}
