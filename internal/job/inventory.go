package job

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
	"repro/internal/memsys"
	"repro/internal/mesh"
	"repro/internal/workloads"
)

// FprintInventory writes the paper's configuration tables — Table 4.1
// (simulated system parameters) and Table 4.2 (application input sizes)
// — plus the inventories of every registry axis the scenario space is
// built from: NoC topologies, router models, protocol specs, workload
// specs, and the sweepable axes. It is the single source both
// cmd/papertables (stdout) and the server's /v1/catalog endpoint render
// from; dims is the "WxH" tile grid the geometry-dependent tables use.
func FprintInventory(w io.Writer, dims string) error {
	cfg := memsys.Default()
	mw, mh, err := memsys.ParseMeshDims(dims)
	if err != nil {
		return err
	}
	cfg = cfg.WithMesh(mw, mh)
	fmt.Fprintln(w, "Table 4.1 — Simulated system parameters")
	rows := [][2]string{
		{"Core", "2 GHz, in-order (1 cycle per non-memory instruction)"},
		{"L1D Cache (private)", fmt.Sprintf("%d KB, %d-way set associative, %d byte cache lines",
			cfg.L1Bytes/1024, cfg.L1Assoc, memsys.LineBytes)},
		{"L2 Cache (shared)", fmt.Sprintf("%d KB slices (%d MB total), %d-way set associative, %d byte cache lines",
			cfg.L2SliceBytes/1024, cfg.L2SliceBytes*cfg.Tiles()/(1024*1024), cfg.L2Assoc, memsys.LineBytes)},
		{"Network", fmt.Sprintf("%dx%d %s, 16 byte links, %d cycle link latency, 1 control + %d data flits/packet",
			cfg.Width, cfg.Height, cfg.Topology, cfg.LinkLatency, cfg.MaxDataFlits)},
		{"Memory Controller", fmt.Sprintf("FR-FCFS scheduling, open page policy, %d corner-tile controllers", len(cfg.MCTiles()))},
		{"DRAM", fmt.Sprintf("DDR3-1066, %d banks, %d KB rows", cfg.DRAM.Banks, cfg.DRAM.RowBytes/1024)},
		{"Store buffer", fmt.Sprintf("%d pending non-blocking writes per core", cfg.StoreBufferEntries)},
		{"Write combining", fmt.Sprintf("%d entries, %d cycle timeout (DeNovo)", cfg.WriteCombineEntries, cfg.WriteCombineTimeout)},
		{"Bloom filters", fmt.Sprintf("%d filters x %d entries per L2 slice (DBypFull)", cfg.Bloom.FiltersPerSlice, cfg.Bloom.Entries)},
	}
	for _, r := range rows {
		fmt.Fprintf(w, "  %-22s %s\n", r[0], r[1])
	}

	fmt.Fprintln(w, "\nNoC topologies (trafficsim -topology; route lengths drive all flit-hop telemetry)")
	fmt.Fprintf(w, "  %-8s %6s %6s %10s %9s %9s\n", "kind", "tiles", "ports", "dir.links", "diameter", "avg hops")
	for _, kind := range mesh.TopologyKinds() {
		t, err := mesh.NewTopology(kind, cfg.Width, cfg.Height)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %-8s %6d %6d %10d %9d %9.2f\n",
			kind, t.Tiles(), t.Ports(), len(t.Links()), mesh.Diameter(t), mesh.AvgHops(t))
	}

	fmt.Fprintln(w, "\nRouter models (trafficsim -router; packet latencies and congestion telemetry follow the model)")
	for _, kind := range mesh.RouterKinds() {
		desc, err := mesh.RouterDescription(kind)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %-8s %s\n", kind, desc)
	}

	fmt.Fprintln(w, "\nProtocol registry (trafficsim -protocols; specs compose as base+Option)")
	fmt.Fprintf(w, "  %-22s %-8s %-9s %s\n", "spec", "family", "kind", "options")
	inventory := core.RegistryInventory()
	for _, v := range inventory {
		kind := "canonical"
		switch {
		case v.Canonical:
		case strings.Contains(v.Spec, "+"):
			kind = "composed"
		default:
			kind = "extension" // a named alias beyond the paper's nine
		}
		opts := strings.Join(v.Options, "+")
		if opts == "" {
			opts = "-"
		}
		fmt.Fprintf(w, "  %-22s %-8s %-9s %s\n", v.Spec, v.Family, kind, opts)
	}
	fmt.Fprintln(w, "\n  Option tokens:")
	for _, o := range core.OptionCatalog() {
		fmt.Fprintf(w, "    %-8s [%s] %s\n", o.Token, strings.Join(o.Families, ","), o.Desc)
	}
	registryWorkloads := workloads.RegistryWorkloads()
	meshPresets := core.MeshPresets()
	nScenarios := core.ScenarioCount(len(registryWorkloads), len(mesh.TopologyKinds()), len(mesh.RouterKinds()), len(meshPresets))
	fmt.Fprintf(w, "\n  Scenario space: %d registered protocols x %d workloads x %d topologies x %d routers x %d mesh presets = %d configurations\n",
		len(inventory), len(registryWorkloads), len(mesh.TopologyKinds()), len(mesh.RouterKinds()), len(meshPresets), nScenarios)

	fmt.Fprintln(w, "\nWorkload registry (trafficsim -benchmarks; specs are name(key=value,...))")
	fmt.Fprintf(w, "  %-10s %-9s %s\n", "name", "kind", "description")
	for _, wl := range workloads.SpecCatalog() {
		kind := "benchmark"
		if wl.Synthetic {
			kind = "synthetic"
		}
		fmt.Fprintf(w, "  %-10s %-9s %s\n", wl.Name, kind, wl.Desc)
		for _, p := range wl.Params {
			def := p.Default
			if def == "" {
				def = "required"
			}
			fmt.Fprintf(w, "  %-10s   %-7s   %s=%s: %s\n", "", "", p.Key, def, p.Desc)
		}
	}
	fmt.Fprintln(w, "\n  Preset parameter variants (counted in the scenario space):")
	for _, spec := range workloads.PresetVariants() {
		fmt.Fprintf(w, "    %s\n", spec)
	}

	fmt.Fprintln(w, "\nSweep axes (trafficsim -sweep; one assembled curve table per sweep)")
	fmt.Fprintf(w, "  %-10s %-20s %s\n", "axis", "values", "description")
	for _, a := range core.SweepAxes() {
		vals := a.Hint
		if a.Values != nil {
			vals = strings.Join(a.Values(), ",")
		}
		fmt.Fprintf(w, "  %-10s %-20s %s\n", a.Name, vals, a.Desc)
	}
	fmt.Fprintln(w, "  Any numeric parameter in the workload registry above sweeps too,")
	fmt.Fprintln(w, "  as a range (lo..hi[..step]) or a value list:")
	for _, ex := range []string{
		"trafficsim -sweep 'hotspot(t=1..16)'            # saturation vs hot-tile concentration",
		"trafficsim -sweep 'uniform(p=0.01..0.09..0.02)' # load-latency curve vs injection rate",
		"trafficsim -sweep 'hotspot(t=1,2,4,p=0.1)'      # value list, fixed co-parameter",
		"trafficsim -sweep vcs=2,4,8 -router vc          # buffer ablation on the vc router",
		"trafficsim -sweep mesh=4x4,8x8,16x16 -router vc # scaling curve vs fabric size",
	} {
		fmt.Fprintf(w, "    %s\n", ex)
	}

	fmt.Fprintln(w, "\nTable 4.2 — Application input sizes (per scale)")
	fmt.Fprintf(w, "  %-14s %-12s %-12s %-12s\n", "application", "tiny", "small", "paper")
	for _, name := range workloads.Names() {
		fmt.Fprintf(w, "  %-14s", name)
		for _, size := range []workloads.Size{workloads.Tiny, workloads.Small, workloads.Paper} {
			p, err := workloads.ByName(name, size, 16)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, " %9.1f MB", float64(p.FootprintBytes())/(1024*1024))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "\nCache capacities scale with the input size (Config.Scaled) so the")
	fmt.Fprintln(w, "working-set-to-capacity ratios match the paper's; see DESIGN.md.")
	return nil
}
