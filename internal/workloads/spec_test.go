package workloads

import (
	"strings"
	"testing"

	"repro/internal/memsys"
	"repro/internal/trace"
)

func TestParseSpecNormalization(t *testing.T) {
	cases := []struct{ in, want string }{
		{"uniform", "uniform"},
		{"uniform(p=0.05)", "uniform"}, // default spelled out folds away
		{"uniform(p=0.1)", "uniform(p=0.1)"},
		{"uniform( p = 0.10 )", "uniform(p=0.1)"},
		{" hotspot(t=2) ", "hotspot(t=2)"},
		{"hotspot(p=0.05,t=4)", "hotspot"},
		{"hotspot(p=0.1,t=2)", "hotspot(t=2,p=0.1)"}, // declaration order
		{"prodcons(groups=04)", "prodcons"},
		{"FFT", "FFT"},
		{"replay(file=/tmp/x.trc)", "replay(file=/tmp/x.trc)"},
	}
	for _, c := range cases {
		s, err := ParseSpec(c.in)
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", c.in, err)
			continue
		}
		if s.Canonical != c.want {
			t.Errorf("ParseSpec(%q).Canonical = %q, want %q", c.in, s.Canonical, c.want)
		}
		// Canonical spellings are fixed points.
		again, err := ParseSpec(s.Canonical)
		if err != nil || again.Canonical != s.Canonical {
			t.Errorf("canonical %q not a fixed point (%v)", s.Canonical, err)
		}
	}
}

func TestParseSpecErrors(t *testing.T) {
	cases := []struct{ in, wantSub string }{
		{"FTT", "unknown benchmark"},
		{"uniform(", "missing ')'"},
		{"uniform(p)", "not key=value"},
		{"uniform(q=1)", "unknown option"},
		{"uniform(p=x)", "not a number"},
		{"uniform(p=0.1,p=0.2)", "duplicate option"},
		{"hotspot(t=1.5)", "not an integer"},
		{"FFT(p=1)", "takes no options"},
		{"uniform(p=)", "empty value"},
	}
	for _, c := range cases {
		_, err := ParseSpec(c.in)
		if err == nil {
			t.Errorf("ParseSpec(%q) accepted", c.in)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("ParseSpec(%q) error %q, want mention of %q", c.in, err, c.wantSub)
		}
	}
	// Out-of-range parameter values fail at build time — including rates
	// small enough that the derived 1/p compute gap would overflow int
	// and silently invert the knob.
	for _, spec := range []string{"uniform(p=0)", "uniform(p=2)", "uniform(p=1e-20)", "hotspot(t=0)", "prodcons(groups=0)"} {
		if _, err := ByName(spec, Tiny, 16); err == nil {
			t.Errorf("ByName(%q) accepted an out-of-range parameter", spec)
		}
	}
}

func TestSpecNamesCoverRegistry(t *testing.T) {
	names := SpecNames()
	// Benchmarks first, in the paper's figure order.
	for i, b := range Names() {
		if names[i] != b {
			t.Fatalf("SpecNames[%d] = %q, want benchmark %q", i, names[i], b)
		}
	}
	for _, syn := range []string{"uniform", "transpose", "bitcomp", "hotspot", "neighbor", "prodcons", "replay"} {
		found := false
		for _, n := range names {
			if n == syn {
				found = true
			}
		}
		if !found {
			t.Errorf("synthetic %q missing from SpecNames", syn)
		}
	}
	synthetic := 0
	for _, info := range SpecCatalog() {
		if info.Synthetic {
			synthetic++
		}
	}
	if synthetic != 7 {
		t.Errorf("%d synthetic specs, want the 6 patterns + replay", synthetic)
	}
	// The runnable inventory: 6 benchmarks + 6 synthetic defaults + the
	// presets, all parseable and canonical.
	reg := RegistryWorkloads()
	if len(reg) != 6+6+len(PresetVariants()) {
		t.Fatalf("RegistryWorkloads has %d entries: %v", len(reg), reg)
	}
	for _, spec := range reg {
		s, err := ParseSpec(spec)
		if err != nil {
			t.Errorf("registry spec %q does not parse: %v", spec, err)
			continue
		}
		if s.Canonical != spec {
			t.Errorf("registry spec %q not canonical (normalizes to %q)", spec, s.Canonical)
		}
	}
	for _, info := range SpecCatalog() {
		if info.Desc == "" {
			t.Errorf("spec %q has no description", info.Name)
		}
	}
}

// The determinism property the engine builds on, for every registry
// workload spec: constructing a spec twice yields bit-identical op
// streams, and a record -> replay round trip through the trace format
// reproduces them bit-identically too.
func TestRegistrySpecDeterminism(t *testing.T) {
	for _, spec := range RegistryWorkloads() {
		spec := spec
		t.Run(spec, func(t *testing.T) {
			a := MustByName(spec, Tiny, 16)
			b := MustByName(spec, Tiny, 16)
			replayed := trace.NewProgram(trace.Record(a), "")
			if a.Name() != spec {
				t.Fatalf("program name %q != canonical spec %q", a.Name(), spec)
			}
			for ph := 0; ph < a.Phases(); ph++ {
				for th := 0; th < a.Threads(); th++ {
					ops := collect(a, ph, th)
					for which, other := range map[string]memsys.Program{"rebuild": b, "replay": replayed} {
						got := collect(other, ph, th)
						if len(got) != len(ops) {
							t.Fatalf("%s phase %d thread %d: %d ops, want %d", which, ph, th, len(got), len(ops))
						}
						for i := range ops {
							if got[i] != ops[i] {
								t.Fatalf("%s phase %d thread %d op %d differs", which, ph, th, i)
							}
						}
					}
				}
			}
		})
	}
}
