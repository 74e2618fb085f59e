// Package repro reproduces "Eliminating on-chip traffic waste: are we
// there yet?" (Smolinski): a 16-tile multicore memory-system simulator
// with directory MESI and DeNovo protocol families built as state
// machines over a shared coherence-controller substrate
// (internal/coher), a composable protocol registry (the paper's nine
// canonical names plus base+Option ablation specs such as
// DeNovo+BypL2), a parameterized workload registry (six ported
// benchmarks, six synthetic traffic patterns, trace record/replay), a
// pluggable NoC (mesh, ring, or torus topologies; ideal or cycle-level
// VC router models with congestion telemetry), DDR3 DRAM, and the
// paper's waste-classification methodology. A parallel sharded
// experiment engine regenerates every figure of the evaluation
// (Figures 5.1a-d, 5.2, 5.3a-c) per configuration, and sweeps run any
// parameter axis — topology, router, VC geometry, or a workload
// parameter such as hotspot(t=1..16) — into assembled load-latency and
// waste-vs-load curve tables. A matrix is a one-point sweep, so both
// run through one path; both are pinned by golden regression suites.
//
// See README.md for a walkthrough, docs/GUIDE.md for the task-oriented
// user guide and spec syntax, docs/FIGURES.md for the figure-by-figure
// mapping to the paper (units and known deviations), and DESIGN.md for
// the system inventory and modelling decisions. The library entry
// point is internal/core (Run, its planning half Plan, and the Figure
// builders); cmd/trafficsim is the command-line front end and
// cmd/papertables prints every registry inventory.
package repro
