package core

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/denovo"
	"repro/internal/memsys"
	"repro/internal/mesi"
)

// The composable protocol registry. The paper evaluates nine fixed
// configurations (§3.2/§3.3), each a bundle of orthogonal waste-eliminating
// optimizations stacked in one order. The registry decomposes the bundles:
// a protocol spec is a base (a family root or any named alias) plus zero
// or more "+Option" suffixes, so the ladder's steps become reachable in
// any combination — the ablation axes the paper never ran.
//
//	MESI                  the paper's baseline
//	MESI+MemL1            == MMemL1, spelled compositionally
//	DeNovo+BypL2          response bypass without the Flex/ValidateL2 rungs
//	DFlexL1+BypFull       Bloom-guarded bypass on the bare Flex protocol
//
// The named configurations are shorthand, defined once in protocolAliases:
// every name expands to a family root plus option tokens, so an alias
// resolves exactly like its token spelling.

// protocolAlias names one configuration: spec is a family root ("MESI",
// "DeNovo") followed by the option tokens the name stands for.
type protocolAlias struct {
	name  string
	spec  string
	paper bool // one of the paper's nine configurations
}

// protocolAliases lists the paper's nine configurations in figure order,
// then the DBypHW extension, which swaps DBypL2's software bypass
// annotations for the hardware reuse predictor.
var protocolAliases = []protocolAlias{
	{"MESI", "MESI", true},
	{"MMemL1", "MESI+MemL1", true},
	{"DeNovo", "DeNovo", true},
	{"DFlexL1", "DeNovo+FlexL1", true},
	{"DValidateL2", "DeNovo+ValL2", true},
	{"DMemL1", "DeNovo+MemL1+ValL2", true},
	{"DFlexL2", "DeNovo+MemL1+FlexL1+ValL2+FlexL2", true},
	{"DBypL2", "DeNovo+MemL1+FlexL1+ValL2+FlexL2+BypL2", true},
	{"DBypFull", "DeNovo+MemL1+FlexL1+ValL2+FlexL2+BypFull", true},
	{"DBypHW", "DeNovo+MemL1+FlexL1+ValL2+FlexL2+BypHW", false},
}

// ProtocolNames lists the nine configurations of §3.2/§3.3 in the paper's
// figure order.
func ProtocolNames() []string {
	var names []string
	for _, a := range protocolAliases {
		if a.paper {
			names = append(names, a.name)
		}
	}
	return names
}

// ProtocolAliases lists every named configuration: the paper's nine in
// figure order, then the extensions beyond them.
func ProtocolAliases() []string {
	names := make([]string, len(protocolAliases))
	for i, a := range protocolAliases {
		names[i] = a.name
	}
	return names
}

// OptionInfo describes one composable optimization token.
type OptionInfo struct {
	Token    string
	Families []string // family roots the token applies to
	Desc     string
}

// optionDef wires a token to its per-family appliers (nil = inapplicable).
type optionDef struct {
	token     string
	desc      string
	applyMESI func(*mesi.Options)
	applyDNV  func(*denovo.Options)
}

// optionDefs is the registry's option vocabulary, in canonical order.
// BypFull subsumes BypL2 (the Bloom-guarded request bypass only triggers
// on response-bypassed regions), so it sets both flags.
var optionDefs = []optionDef{
	{token: "MemL1", desc: "memory controller sends data straight to the requesting L1",
		applyMESI: func(o *mesi.Options) { o.MemToL1 = true },
		applyDNV:  func(o *denovo.Options) { o.MemToL1 = true }},
	{token: "FlexL1", desc: "communication-region (Flex) granularity for on-chip responses",
		applyDNV: func(o *denovo.Options) { o.FlexL1 = true }},
	{token: "ValL2", desc: "L2 write-validate + dirty-words-only L2->memory writebacks",
		applyDNV: func(o *denovo.Options) { o.ValidateL2 = true }},
	{token: "FlexL2", desc: "Flex applied at the memory controller (dropped words are Excess)",
		applyDNV: func(o *denovo.Options) { o.FlexL2 = true }},
	{token: "BypL2", desc: "L2 response bypass for annotated regions",
		applyDNV: func(o *denovo.Options) { o.BypassResp = true }},
	{token: "BypFull", desc: "Bloom-filter-guarded L2 request bypass (implies BypL2)",
		applyDNV: func(o *denovo.Options) { o.BypassResp = true; o.BypassReq = true }},
	{token: "BypHW", desc: "hardware reuse predictor replaces software bypass annotations",
		applyDNV: func(o *denovo.Options) { o.PredictBypass = true }},
}

func optionByToken(token string) *optionDef {
	for i := range optionDefs {
		if optionDefs[i].token == token {
			return &optionDefs[i]
		}
	}
	return nil
}

// OptionCatalog lists the composable option tokens with the families they
// apply to.
func OptionCatalog() []OptionInfo {
	out := make([]OptionInfo, 0, len(optionDefs))
	for _, d := range optionDefs {
		info := OptionInfo{Token: d.token, Desc: d.desc}
		if d.applyMESI != nil {
			info.Families = append(info.Families, "MESI")
		}
		if d.applyDNV != nil {
			info.Families = append(info.Families, "DeNovo")
		}
		out = append(out, info)
	}
	return out
}

// Variant is one resolved protocol configuration: a spec string, the
// family it instantiates, and the full option set in canonical order.
type Variant struct {
	Spec      string
	Family    string
	Canonical bool // one of the paper's nine names
	Options   []string

	mesiOpt *mesi.Options
	dnvOpt  *denovo.Options
}

// New instantiates the variant's protocol engine on an environment.
func (v *Variant) New(env *memsys.Env) memsys.Protocol {
	if v.mesiOpt != nil {
		opt := *v.mesiOpt
		opt.Name = v.Spec
		return mesi.New(env, opt)
	}
	opt := *v.dnvOpt
	opt.Name = v.Spec
	return denovo.New(env, opt)
}

// ParseProtocol resolves a protocol spec — a base name optionally followed
// by "+Option" tokens — into a Variant. The base is any name of
// protocolAliases (the family roots MESI and DeNovo among them); the
// alias's own tokens apply first, then the spec's.
func ParseProtocol(spec string) (*Variant, error) {
	parts := strings.Split(strings.TrimSpace(spec), "+")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	i := slices.IndexFunc(protocolAliases, func(a protocolAlias) bool { return a.name == parts[0] })
	if i < 0 {
		return nil, fmt.Errorf("core: unknown protocol %q (base %q; known bases: %s)",
			spec, parts[0], strings.Join(ProtocolAliases(), ", "))
	}
	alias := protocolAliases[i]
	tokens := strings.Split(alias.spec, "+")
	v := &Variant{
		// The spec is rebuilt from the trimmed parts so whitespace
		// spellings of one composition share a matrix key.
		Spec:      strings.Join(parts, "+"),
		Family:    tokens[0],
		Canonical: alias.paper && len(parts) == 1,
	}
	if v.Family == "MESI" {
		v.mesiOpt = &mesi.Options{}
	} else {
		v.dnvOpt = &denovo.Options{}
	}
	applied := make(map[string]bool)
	for _, token := range append(tokens[1:], parts[1:]...) {
		d := optionByToken(token)
		if d == nil {
			var all []string
			for _, o := range optionDefs {
				all = append(all, o.token)
			}
			return nil, fmt.Errorf("core: protocol %q: unknown option %q (options: %s)",
				spec, token, strings.Join(all, ", "))
		}
		switch {
		case v.mesiOpt != nil && d.applyMESI != nil:
			d.applyMESI(v.mesiOpt)
		case v.dnvOpt != nil && d.applyDNV != nil:
			d.applyDNV(v.dnvOpt)
		default:
			return nil, fmt.Errorf("core: protocol %q: option %q does not apply to the %s family", spec, token, v.Family)
		}
		applied[token] = true
	}
	for _, d := range optionDefs { // canonical order; BypFull hides the BypL2 it implies
		if applied[d.token] && !(d.token == "BypL2" && applied["BypFull"]) {
			v.Options = append(v.Options, d.token)
		}
	}
	return v, nil
}

// ComposedVariants returns the registered compositions beyond the paper's
// nine configurations (and beyond the DBypHW predictor extension): rungs
// of the ladder recombined as the orthogonal knobs they are. Each runs
// end-to-end under the functional oracle like any canonical name.
func ComposedVariants() []string {
	return []string{
		// Response bypass on bare DeNovo: isolates the L2-pollution term
		// from the Flex and write-validate terms below it in the ladder.
		"DeNovo+BypL2",
		// Bloom-guarded request bypass on the bare Flex protocol: how much
		// of DBypFull's win survives without ValidateL2/MemL1/FlexL2?
		"DFlexL1+BypFull",
		// Write-validate L2 with comm-region responses but no MC changes:
		// the largest on-chip-only stack.
		"DValidateL2+FlexL1",
		// The MMemL1 ladder rung spelled compositionally (same engine;
		// distinct spec so it can sit beside MMemL1 in one matrix).
		"MESI+MemL1",
	}
}

// RegistryInventory resolves every registered configuration: the named
// aliases (the paper's nine in figure order, then the DBypHW predictor
// extension), then the composed variants.
func RegistryInventory() []*Variant {
	specs := append(ProtocolAliases(), ComposedVariants()...)
	out := make([]*Variant, 0, len(specs))
	for _, spec := range specs {
		v, err := ParseProtocol(spec)
		if err != nil {
			panic(err) // registry self-consistency: all registered specs parse
		}
		out = append(out, v)
	}
	return out
}

// ScenarioCount returns the size of the scenario space the registry and
// engine expose: registered protocols x benchmarks x topologies x router
// models x mesh presets (the mesh axis accepts arbitrary WxH, so the
// preset count is the enumerable floor, not a ceiling).
func ScenarioCount(benchmarks, topologies, routers, meshes int) int {
	return len(RegistryInventory()) * benchmarks * topologies * routers * meshes
}
