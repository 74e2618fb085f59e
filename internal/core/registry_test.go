package core_test

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/memsys"
	"repro/internal/workloads"
)

// invariantChecker is implemented by both protocol System types.
type invariantChecker interface {
	CheckInvariants() error
}

// specResult is the measurement runSpec detaches from its simulation.
type specResult struct {
	Name       string
	ExecCycles int64
	FlitHops   memsys.FlitHops
	Waste      [3][8]uint64
}

// runSpec runs one benchmark under a registry spec with the functional
// oracle active and the protocol invariants checked at quiescence.
func runSpec(t *testing.T, spec, bench string) *specResult {
	t.Helper()
	prog := workloads.MustByName(bench, workloads.Tiny, 16)
	cfg := memsys.Default().Scaled(workloads.Tiny.ScaleDiv())
	env, err := memsys.NewEnv(cfg, prog.FootprintBytes(), prog.Regions())
	if err != nil {
		t.Fatal(err)
	}
	proto, err := core.NewProtocol(env, spec)
	if err != nil {
		t.Fatal(err)
	}
	r := core.NewRunner(env, proto, prog)
	if err := r.Run(); err != nil {
		t.Fatalf("%s/%s: %v", spec, bench, err)
	}
	if c, ok := proto.(invariantChecker); ok {
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("%s/%s: %v", spec, bench, err)
		}
	} else {
		t.Fatalf("%s: protocol does not expose invariants", spec)
	}
	return &specResult{
		Name:       proto.Name(),
		ExecCycles: r.ExecCycles(),
		FlitHops:   env.Traffic.Snapshot(),
		Waste:      env.Prof.Snapshot(),
	}
}

// TestParseProtocolCanonicalNames pins every named configuration's option
// bundle, and that the name resolves exactly like its token spelling.
func TestParseProtocolCanonicalNames(t *testing.T) {
	stack := []string{"MemL1", "FlexL1", "ValL2", "FlexL2"}
	want := []struct {
		name    string
		options []string
	}{
		{"MESI", nil},
		{"MMemL1", []string{"MemL1"}},
		{"DeNovo", nil},
		{"DFlexL1", []string{"FlexL1"}},
		{"DValidateL2", []string{"ValL2"}},
		{"DMemL1", []string{"MemL1", "ValL2"}},
		{"DFlexL2", stack},
		{"DBypL2", append(slices.Clip(stack), "BypL2")},
		{"DBypFull", append(slices.Clip(stack), "BypFull")},
		{"DBypHW", append(slices.Clip(stack), "BypHW")},
	}
	names := core.ProtocolAliases()
	if len(names) != len(want) {
		t.Fatalf("aliases %v, want %d", names, len(want))
	}
	if got := core.ProtocolNames(); !slices.Equal(got, names[:9]) {
		t.Errorf("ProtocolNames = %v, want the first nine aliases %v", got, names[:9])
	}
	for i, w := range want {
		if names[i] != w.name {
			t.Fatalf("alias %d = %q, want %q", i, names[i], w.name)
		}
		v, err := core.ParseProtocol(w.name)
		if err != nil {
			t.Fatalf("canonical %q rejected: %v", w.name, err)
		}
		if v.Canonical != (w.name != "DBypHW") {
			t.Errorf("%q: Canonical = %v", w.name, v.Canonical)
		}
		if v.Spec != w.name {
			t.Errorf("%q resolved to spec %q", w.name, v.Spec)
		}
		if !slices.Equal(v.Options, w.options) {
			t.Errorf("%s options = %v, want %v", w.name, v.Options, w.options)
		}
		spelled, err := core.ParseProtocol(strings.Join(append([]string{v.Family}, w.options...), "+"))
		if err != nil {
			t.Fatal(err)
		}
		if spelled.Family != v.Family || !slices.Equal(spelled.Options, v.Options) {
			t.Errorf("%s and its spelling %s diverge: %s%v vs %s%v",
				w.name, spelled.Spec, v.Family, v.Options, spelled.Family, spelled.Options)
		}
	}
	// Options come back in canonical order, once each, with BypFull
	// hiding the BypL2 it implies.
	v, err := core.ParseProtocol("DeNovo+BypFull+ValL2+BypL2+MemL1+ValL2")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"MemL1", "ValL2", "BypFull"}; !slices.Equal(v.Options, want) {
		t.Errorf("options = %v, want %v", v.Options, want)
	}
}

func TestParseProtocolErrors(t *testing.T) {
	for _, spec := range []string{
		"bogus",          // unknown base
		"DeNovo+Nope",    // unknown option
		"MESI+FlexL1",    // DeNovo-only option on the MESI family
		"MESI+ValL2",     // likewise
		"MMemL1+BypFull", // composition starts from a MESI alias
	} {
		if _, err := core.ParseProtocol(spec); err == nil {
			t.Errorf("spec %q accepted, want error", spec)
		}
	}
}

// TestComposedSpecMatchesCanonical proves composition: a ladder rung
// spelled as base+options is bit-identical to its canonical alias.
func TestComposedSpecMatchesCanonical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs several tiny simulations")
	}
	pairs := [][2]string{
		{"MESI+MemL1", "MMemL1"},
		{"DeNovo+FlexL1", "DFlexL1"},
		{"DeNovo+ValL2+MemL1", "DMemL1"},
	}
	for _, p := range pairs {
		a := runSpec(t, p[0], "LU")
		b := runSpec(t, p[1], "LU")
		if a.ExecCycles != b.ExecCycles || a.FlitHops != b.FlitHops || a.Waste != b.Waste {
			t.Errorf("%s and %s diverge: cycles %d vs %d, traffic %.1f vs %.1f",
				p[0], p[1], a.ExecCycles, b.ExecCycles, a.FlitHops.Total(), b.FlitHops.Total())
		}
	}
}

// TestComposedVariantsEndToEnd runs every registered composed variant
// under the functional oracle with invariants checked: the new points in
// the scenario space are real simulations, not just parseable names.
func TestComposedVariantsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs several tiny simulations")
	}
	for _, spec := range core.ComposedVariants() {
		res := runSpec(t, spec, "FFT")
		if res.FlitHops.Total() <= 0 || res.ExecCycles <= 0 {
			t.Errorf("%s: empty result", spec)
		}
		if res.Name != spec {
			t.Errorf("%s: protocol reports name %q", spec, res.Name)
		}
	}
}

func TestRegistryInventory(t *testing.T) {
	inv := core.RegistryInventory()
	if len(inv) < 13 { // nine canonical + DBypHW + >= 3 composed
		t.Fatalf("inventory has %d entries, want >= 13", len(inv))
	}
	canonical := 0
	composed := 0
	seen := map[string]bool{}
	for _, v := range inv {
		if seen[v.Spec] {
			t.Errorf("duplicate inventory spec %q", v.Spec)
		}
		seen[v.Spec] = true
		if v.Canonical {
			canonical++
		}
		if v.Family != "MESI" && v.Family != "DeNovo" {
			t.Errorf("%s: unknown family %q", v.Spec, v.Family)
		}
	}
	for _, spec := range core.ComposedVariants() {
		if !seen[spec] {
			t.Errorf("composed variant %q missing from inventory", spec)
		}
		composed++
	}
	if canonical != 9 {
		t.Errorf("%d canonical entries, want 9", canonical)
	}
	if composed < 3 {
		t.Errorf("%d composed variants, want >= 3", composed)
	}
	// The scenario space the ISSUE targets: registered protocols x six
	// benchmarks x three topologies x three router models x three mesh
	// presets.
	if n := core.ScenarioCount(6, 3, 3, len(core.MeshPresets())); n < 1800 {
		t.Errorf("scenario space %d, want >= 1800", n)
	}
}

func TestRegistryProtocolsRunViaMatrix(t *testing.T) {
	// A composed spec flows through the matrix engine exactly like a
	// canonical name (this is what -protocols on cmd/trafficsim does).
	m, err := runMatrix(core.MatrixOptions{
		Size:       workloads.Tiny,
		Protocols:  []string{"MESI", "DeNovo+BypL2"},
		Benchmarks: []string{"LU"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Get("LU", "DeNovo+BypL2") == nil {
		t.Fatal("composed protocol missing from matrix")
	}
	tab, err := m.Figure("5.1a")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, row := range tab.Rows {
		if row.Protocol == "DeNovo+BypL2" {
			found = true
		}
	}
	if !found {
		t.Fatal("composed protocol missing from figure rows")
	}
}
