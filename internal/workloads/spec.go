package workloads

// The parameterized workload registry, mirroring the protocol registry in
// internal/core: a workload spec is a registered name with optional
// parenthesized key=value options,
//
//	FFT                  a ported benchmark (Table 4.2)
//	uniform              a synthetic pattern at its default injection rate
//	uniform(p=0.1)       the same pattern, parameterized
//	hotspot(t=2)         two hot tiles instead of four
//	replay(file=x.trc)   re-drive a recorded trace (internal/trace)
//
// Every spec resolves to a DRF memsys.Program, so synthetic patterns and
// replayed traces run under the full protocol registry with the same waste
// attribution as the ported benchmarks. ParseSpec normalizes spellings
// ("hotspot( t = 2 )" -> "hotspot(t=2)") so one configuration always keys
// one matrix row.

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/memsys"
)

// ParamInfo documents one spec parameter for the registry inventory.
type ParamInfo struct {
	Key     string
	Default string
	Desc    string
}

// paramDef declares a parameter a spec accepts, with its default spelling.
type paramDef struct {
	key  string
	def  string // default value, pre-normalized
	desc string
}

// specDef is one registry entry: a named workload family with parameters.
type specDef struct {
	name      string
	synthetic bool
	params    []paramDef
	desc      string
	// build constructs the program. args holds one normalized value per
	// declared parameter, in declaration order; canonical is the
	// normalized spec string the program must report as its Name.
	build func(canonical string, args []string, size Size, threads int) (memsys.Program, error)
}

func (d *specDef) paramIndex(key string) int {
	for i := range d.params {
		if d.params[i].key == key {
			return i
		}
	}
	return -1
}

// specDefs is the registry: the six ported benchmarks (no parameters),
// the synthetic traffic patterns, and the trace replayer. registerSpec
// appends to it from package init (synthetic.go, trace hooks).
var specDefs []specDef

func registerSpec(d specDef) {
	for _, have := range specDefs {
		if have.name == d.name {
			panic("workloads: duplicate spec " + d.name)
		}
	}
	specDefs = append(specDefs, d)
}

// init builds the registry in canonical order: the six benchmarks in the
// paper's figure order, then the synthetic patterns, then the trace
// replayer (explicit calls, not per-file inits, so the order never
// depends on file names).
func init() {
	for _, b := range benchmarks {
		b := b
		registerSpec(specDef{
			name: b.name,
			desc: "ported benchmark (Table 4.2)",
			build: func(_ string, _ []string, size Size, threads int) (memsys.Program, error) {
				return b.ctor(size, threads), nil
			},
		})
	}
	for _, d := range syntheticSpecs() {
		registerSpec(d)
	}
	registerSpec(replaySpec())
}

func specByName(name string) *specDef {
	for i := range specDefs {
		if specDefs[i].name == name {
			return &specDefs[i]
		}
	}
	return nil
}

// Spec is a parsed, normalized workload spec, ready to build.
type Spec struct {
	// Canonical is the normalized spelling: the registered name, plus any
	// non-default parameters in declaration order. It is the matrix key
	// and the Name() the built program reports.
	Canonical string
	// Name is the registered family name ("uniform", "FFT", ...).
	Name string
	// Synthetic reports whether the spec is a synthetic traffic pattern
	// or trace replay rather than a ported benchmark.
	Synthetic bool

	def  *specDef
	args []string // one normalized value per declared param
}

// Build constructs the program at the given scale and thread count.
func (s *Spec) Build(size Size, threads int) (memsys.Program, error) {
	if threads <= 0 {
		return nil, fmt.Errorf("workloads: %s: threads = %d must be positive", s.Canonical, threads)
	}
	return s.def.build(s.Canonical, s.args, size, threads)
}

// ParseSpec resolves a workload spec string — a registered name optionally
// followed by parenthesized key=value options — without building the
// program. Unknown names, unknown keys, and malformed values are loud
// errors, never a nil a caller could dereference or silently skip.
func ParseSpec(spec string) (*Spec, error) {
	s := strings.TrimSpace(spec)
	name, argstr := s, ""
	if i := strings.IndexByte(s, '('); i >= 0 {
		if !strings.HasSuffix(s, ")") {
			return nil, fmt.Errorf("workloads: malformed spec %q: missing ')'", spec)
		}
		name, argstr = strings.TrimSpace(s[:i]), s[i+1:len(s)-1]
	}
	d := specByName(name)
	if d == nil {
		return nil, fmt.Errorf("workloads: unknown benchmark %q (known: %s)",
			name, strings.Join(SpecNames(), ", "))
	}
	args := make([]string, len(d.params))
	for i, p := range d.params {
		args[i] = p.def
	}
	set := make([]bool, len(d.params))
	for _, kv := range splitArgs(argstr) {
		eq := strings.IndexByte(kv, '=')
		if eq < 0 {
			return nil, fmt.Errorf("workloads: spec %q: option %q is not key=value", spec, kv)
		}
		key := strings.TrimSpace(kv[:eq])
		val := strings.TrimSpace(kv[eq+1:])
		i := d.paramIndex(key)
		if i < 0 {
			var known []string
			for _, p := range d.params {
				known = append(known, p.key)
			}
			if len(known) == 0 {
				return nil, fmt.Errorf("workloads: spec %q: %s takes no options", spec, d.name)
			}
			return nil, fmt.Errorf("workloads: spec %q: unknown option %q (options: %s)",
				spec, key, strings.Join(known, ", "))
		}
		if set[i] {
			return nil, fmt.Errorf("workloads: spec %q: duplicate option %q", spec, key)
		}
		norm, err := normalizeValue(d.params[i], val)
		if err != nil {
			return nil, fmt.Errorf("workloads: spec %q: %w", spec, err)
		}
		args[i] = norm
		set[i] = true
	}
	canonical := d.name
	var shown []string
	for i, p := range d.params {
		if args[i] != p.def {
			shown = append(shown, p.key+"="+args[i])
		}
	}
	if len(shown) > 0 {
		canonical += "(" + strings.Join(shown, ",") + ")"
	}
	return &Spec{Canonical: canonical, Name: d.name, Synthetic: d.synthetic, def: d, args: args}, nil
}

// splitArgs splits "k=v,k2=v2" on commas, dropping empty pieces.
func splitArgs(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// normalizeValue canonicalizes a parameter value so equal configurations
// spell identically. Numeric-looking defaults get numeric normalization
// ("0.050" -> "0.05", "04" -> "4"); everything else (file paths) is kept
// verbatim.
func normalizeValue(p paramDef, val string) (string, error) {
	if val == "" {
		return "", fmt.Errorf("option %q: empty value", p.key)
	}
	if _, err := strconv.Atoi(p.def); err == nil {
		n, err := strconv.Atoi(val)
		if err != nil {
			return "", fmt.Errorf("option %q: %q is not an integer", p.key, val)
		}
		return strconv.Itoa(n), nil
	}
	if _, err := strconv.ParseFloat(p.def, 64); err == nil {
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return "", fmt.Errorf("option %q: %q is not a number", p.key, val)
		}
		return strconv.FormatFloat(f, 'g', -1, 64), nil
	}
	return val, nil
}

// argInt fetches a declared-parameter value as an int (build helpers; the
// value was validated during parsing).
func argInt(args []string, i int) int {
	n, err := strconv.Atoi(args[i])
	if err != nil {
		panic("workloads: unvalidated int arg: " + args[i])
	}
	return n
}

func argFloat(args []string, i int) float64 {
	f, err := strconv.ParseFloat(args[i], 64)
	if err != nil {
		panic("workloads: unvalidated float arg: " + args[i])
	}
	return f
}

// ByName resolves and builds a workload spec in one step. It is the
// checked lookup every user-facing path goes through: an unknown name is
// an error.
func ByName(spec string, size Size, threads int) (memsys.Program, error) {
	s, err := ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	return s.Build(size, threads)
}

// MustByName is ByName for tests and examples with hardwired known-good
// names; it panics on error.
func MustByName(spec string, size Size, threads int) memsys.Program {
	p, err := ByName(spec, size, threads)
	if err != nil {
		panic(err)
	}
	return p
}

// SpecNames lists every registered workload family: the six benchmarks in
// the paper's figure order, then the synthetic patterns and the replayer
// in registration order.
func SpecNames() []string {
	out := make([]string, len(specDefs))
	for i := range specDefs {
		out[i] = specDefs[i].name
	}
	return out
}

// SpecInfo describes one registry entry for the inventory table.
type SpecInfo struct {
	Name      string
	Synthetic bool
	Desc      string
	Params    []ParamInfo
}

// SpecCatalog returns the registry inventory in registration order.
func SpecCatalog() []SpecInfo {
	out := make([]SpecInfo, len(specDefs))
	for i, d := range specDefs {
		info := SpecInfo{Name: d.name, Synthetic: d.synthetic, Desc: d.desc}
		for _, p := range d.params {
			info.Params = append(info.Params, ParamInfo{Key: p.key, Default: p.def, Desc: p.desc})
		}
		out[i] = info
	}
	return out
}

// PresetVariants lists registered non-default parameterizations: named
// points on the synthetic parameter axes that join the benchmark and
// default-pattern inventory in the scenario count, the same way the
// protocol registry's ComposedVariants join the paper's nine names. Each
// parses, normalizes to itself, and runs end-to-end like any other spec.
func PresetVariants() []string {
	return []string{
		// Injection-rate sweep endpoints around uniform's default 0.05.
		"uniform(p=0.02)",
		"uniform(p=0.2)",
		// Single hot tile: the worst-case concentration the dateline VCs
		// and the ideal model's link reservation disagree about most.
		"hotspot(t=1)",
		// All-to-one-quadrant pressure, between hotspot(t=4) and uniform.
		"hotspot(t=8)",
		// Coarse and fine sharing groups around prodcons' default 4.
		"prodcons(groups=2)",
		"prodcons(groups=8)",
	}
}

// RegistryWorkloads returns the full runnable workload inventory for
// scenario counting and sweeps: the six benchmarks, each synthetic
// pattern at its defaults (replay excluded — it needs a trace file), and
// the preset parameter variants, deduplicated and in registry order.
func RegistryWorkloads() []string {
	var out []string
	seen := map[string]bool{}
	add := func(spec string) {
		if !seen[spec] {
			seen[spec] = true
			out = append(out, spec)
		}
	}
	for _, d := range specDefs {
		if d.name == "replay" {
			continue
		}
		add(d.name)
	}
	for _, spec := range PresetVariants() {
		s, err := ParseSpec(spec)
		if err != nil {
			panic(err) // registry self-consistency: all presets parse
		}
		add(s.Canonical)
	}
	return out
}
