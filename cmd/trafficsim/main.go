// Command trafficsim reruns the paper's experiments and prints its figure
// tables: the protocol x benchmark traffic/time/waste matrices of Figures
// 5.1a-d, 5.2 and 5.3a-c, the congestion telemetry table, the headline
// paper-vs-measured summary, and — with -sweep — assembled load-latency /
// waste-vs-load curve tables over a third parameter axis.
//
// Protocols are resolved through the composable registry: canonical paper
// names (MESI ... DBypFull) or base+Option specs such as DeNovo+BypL2 or
// DFlexL1+BypFull. Benchmarks are workload-registry specs: the paper's six
// ported benchmarks, synthetic traffic patterns with optional parameters
// (uniform, transpose, bitcomp, hotspot, neighbor, prodcons), or recorded
// traces. Sweeps are "axis=value,value,..." over an engine axis (topology,
// router, mesh, vcs, vcdepth, threads, protocol) or "family(key=lo..hi)"
// over a workload parameter (see cmd/papertables for all inventories, and
// docs/GUIDE.md for a walkthrough).
//
// The command is a flag-parsing shim over internal/job: flags become a
// job.Request, job.Run executes it, and the renderers here turn the
// unified event stream back into the exact progress lines and tables this
// tool has always printed. Exit status 2 means the request is wrong and
// nothing ran; 1 means a simulation (or writing its output) failed.
//
// Examples:
//
//	trafficsim -fig 5.1a -size small
//	trafficsim -fig all -size tiny -benchmarks FFT,radix
//	trafficsim -summary -size small
//	trafficsim -fig 5.2 -protocols MESI,MMemL1,DBypFull
//	trafficsim -fig 5.1a -protocols MESI,DeNovo,DeNovo+BypL2,DFlexL1+BypFull
//	trafficsim -fig 5.1a -topology torus -workers 8
//	trafficsim -fig net -router vc -size tiny -benchmarks FFT
//	trafficsim -fig net -router vc -mesh 8x8 -benchmarks 'hotspot(t=2)'
//	trafficsim -sweep mesh=4x4,8x8,16x16 -router vc -benchmarks 'hotspot(t=2)'
//	trafficsim -fig net -router vc -benchmarks 'uniform(p=0.1),hotspot(t=2),transpose'
//	trafficsim -record /tmp/fft.trc -benchmarks FFT -size tiny
//	trafficsim -fig 5.1a -benchmarks 'replay(file=/tmp/fft.trc)'
//	trafficsim -record /tmp/fft32.trc -benchmarks FFT -threads 32 -mesh 8x8
//	trafficsim -fig 5.1a -benchmarks 'replay(file=/tmp/fft32.trc)' -protocols DeNovo -mesh 8x8
//	trafficsim -sweep 'hotspot(t=1..16)' -size tiny -protocols MESI,DeNovo,DBypFull
//	trafficsim -sweep 'uniform(p=0.01..0.09..0.02)' -router vc
//	trafficsim -sweep topology=mesh,ring,torus -benchmarks FFT
//	trafficsim -sweep 'hotspot(t=1..16)' -cachedir /tmp/points   # persists each point; rerun to resume
//	trafficsim -fig all -size small -cachedir /tmp/points         # a matrix is one cached point
//	trafficsim -sweep 'uniform(p=0.001..0.1..0.0002)' -maxpoints 500 -cachedir /tmp/points
package main

import (
	"cmp"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"

	"repro/internal/core"
	"repro/internal/job"
	"repro/internal/trace"
	"repro/internal/workloads"
)

func main() { os.Exit(run()) }

// The -help text enumerates valid names from the registries themselves, so
// it can never drift from what the parsers accept (the hand-maintained
// lists had already gone stale once).
//
// run carries main's body with a real return code so the profiling defers
// execute — os.Exit skips deferred functions, and a silently truncated
// CPU profile is exactly the kind of quiet failure this tool refuses.
func run() (code int) {
	fig := flag.String("fig", "", "figure to print: "+strings.Join(core.FigureIDs(), " ")+", or 'all'")
	summary := flag.Bool("summary", false, "print the headline paper-vs-measured averages")
	sizeName := flag.String("size", "tiny", "input scale: tiny, small, paper (caches scale with inputs; see DESIGN.md)")
	protoCSV := flag.String("protocols", "", "comma-separated protocol specs: canonical names ("+
		strings.Join(core.ProtocolAliases(), ", ")+") or base+Option compositions with options "+
		optionTokens()+" (default: the paper's nine)")
	benchCSV := flag.String("benchmarks", "", "comma-separated workload specs, name(key=value,...) over: "+
		strings.Join(workloads.SpecNames(), ", ")+" (default: the paper's six)")
	sweep := flag.String("sweep", "", "sweep one axis and print the assembled curve table: 'axis=v1,v2,...' over "+
		strings.Join(core.SweepAxisNames(), "|")+", or a workload parameter range like 'hotspot(t=1..16)'")
	cachedir := flag.String("cachedir", "", "content-addressed result cache directory: completed points (a matrix is one) persist here as the run goes, and points already present (from any earlier run) are served without simulating; rerunning an interrupted command with the same -cachedir resumes it")
	maxpoints := flag.Int("maxpoints", core.DefaultSweepPointCap, fmt.Sprintf("sweep expansion cap, at most %d; a sweep that expands past it is an error (raise deliberately for large sweeps, ideally with -cachedir)", core.MaxSweepPointCap))
	record := flag.String("record", "", "record the single workload in -benchmarks to this trace file and exit (run it later with replay(file=...))")
	pinKnobs := job.KnobFlags(flag.CommandLine)
	workers := flag.Int("workers", 0, "parallel simulations (0 = one per CPU, 1 = serial)")
	quiet := flag.Bool("q", false, "suppress progress output")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the whole run to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile, taken at exit, to this file")
	flag.Parse()

	if *record != "" && (*sweep != "" || *fig != "" || *summary || *cachedir != "") {
		fmt.Fprintln(os.Stderr, "-record only records a trace; drop -sweep/-fig/-summary/-cachedir (replay the trace in a later run)")
		return 2
	}
	if *maxpoints < 1 {
		fmt.Fprintf(os.Stderr, "-maxpoints %d: the sweep cap must be >= 1 (default %d)\n", *maxpoints, core.DefaultSweepPointCap)
		return 2
	}
	explicit := job.Explicit(flag.CommandLine)

	req := job.Request{
		Summary:    *summary,
		Size:       *sizeName,
		Benchmarks: job.SplitSpecs(*benchCSV),
		Protocols:  job.SplitList(*protoCSV),
		Sweep:      *sweep,
		Workers:    *workers,
	}
	// An explicit -maxpoints reaches the request, where ValidateStrict
	// rejects it beside a matrix; the default is the engine's own cap.
	if explicit["maxpoints"] {
		req.MaxPoints = *maxpoints
	}
	if *fig != "" {
		req.Figures = []string{*fig}
	}
	// Only the knobs the user actually passed are pinned: the engine
	// applies the same defaults to unset Request fields, and a sweep over
	// an axis must be able to tell "defaulted" from "explicit" — sweeping
	// topology with an explicit -topology is a conflict error, sweeping it
	// against the default is the normal case.
	if err := pinKnobs(&req); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	// Fail fast — unknown names, malformed specs, axis-ownership conflicts,
	// bad geometry — before paying for any simulation: every error the
	// planner can find is a usage error (exit 2), so exit 1 means a
	// simulation failed.
	if err := req.ValidateStrict(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	// Profiling wraps everything that can cost time (record, sweep, or the
	// matrix). Unwritable paths fail here, before any simulation, instead of
	// discovering the problem after a long run.
	stopProf, err := startProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			if code == 0 {
				code = 1
			}
		}
	}()

	if *record != "" {
		if len(req.Benchmarks) != 1 {
			fmt.Fprintln(os.Stderr, "-record needs exactly one workload in -benchmarks")
			return 2
		}
		size, _ := job.SizeFromName(*sizeName) // validated above
		prog, err := workloads.ByName(req.Benchmarks[0], size, cmp.Or(req.Threads, core.DefaultThreads))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		tr := trace.Record(prog)
		if err := trace.WriteFile(*record, tr); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Printf("recorded %s (%s scale, %d threads, %d phases, %d ops) to %s\n",
			prog.Name(), size, prog.Threads(), tr.Phases(), tr.TotalOps(), *record)
		hint := fmt.Sprintf("-benchmarks 'replay(file=%s)'", *record)
		if explicit["mesh"] {
			hint += " -mesh " + req.Mesh // a trace replays only on a mesh with a tile per thread
		}
		fmt.Println("replay with:", hint)
		return
	}
	req.Normalize()

	// One renderer over the unified event stream reproduces both progress
	// vocabularies: per-cell "running bench / proto" lines for matrix runs,
	// per-point "sweep point i/N" lines for sweeps (a matrix is a one-point
	// sweep too, but its single point gets no line of its own). Cache
	// corruption and store failures are loud for both kinds, even under
	// -q — the point's result is still correct, but silent self-healing
	// would hide a real problem (disk, tampering) and a rerun will
	// resimulate an unpersisted point.
	isSweep := req.IsSweep()
	where := func(ev core.Event) string {
		if !isSweep {
			return "matrix"
		}
		return fmt.Sprintf("sweep point %d/%d %s=%s", ev.Point+1, ev.Total, ev.Axis, ev.Value)
	}
	rc := job.RunConfig{Events: func(ev core.Event) {
		switch {
		case ev.Kind == core.KindCell:
			if !isSweep && !*quiet {
				fmt.Fprintf(os.Stderr, "running %s / %s...\n", ev.Bench, ev.Protocol)
			}
		case ev.Status == core.StatusCacheCorrupt:
			fmt.Fprintf(os.Stderr, "%s: cache entry corrupt, resimulating: %s\n", where(ev), ev.Error)
		case ev.Status == core.StatusStoreFailed:
			fmt.Fprintf(os.Stderr, "%s: completed but not persisted to the cache: %s\n", where(ev), ev.Error)
		case isSweep && !*quiet:
			fmt.Fprintf(os.Stderr, "%s: %s\n", where(ev), ev.Status)
		}
	}}
	if *cachedir != "" {
		if rc.Cache, err = core.OpenPointCache(*cachedir); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	}

	// Interrupts cancel the pool and its running cells (within 65,536
	// events each) instead of killing the process: completed sweep points
	// are kept (and, with -cachedir, already persisted), so ^C on a long
	// run loses at most the cells in flight.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	out, err := job.Run(ctx, req, rc)
	var res *core.SweepResult
	if out != nil {
		res = out.Sweep
	}
	if res != nil && !*quiet {
		ncached := 0
		for _, p := range res.Points {
			if p.Cached {
				ncached++
			}
		}
		fmt.Fprintf(os.Stderr, "sweep %s: %d/%d points complete (%d cached, %d simulated)\n",
			res.Spec, len(res.Points), res.Expected, ncached, len(res.Points)-ncached)
	}
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, req.Kind(), "interrupted")
		} else {
			fmt.Fprintln(os.Stderr, err)
		}
		if res != nil && len(res.Points) > 0 {
			if *cachedir != "" {
				fmt.Fprintf(os.Stderr, "%d/%d points are persisted in %s; rerun the same sweep to continue\n",
					len(res.Points), res.Expected, *cachedir)
			} else {
				fmt.Fprintf(os.Stderr, "%d/%d points completed but are not persisted; rerun with -cachedir to make sweeps resumable\n",
					len(res.Points), res.Expected)
			}
		}
		return 1
	}
	if err := out.RenderText(os.Stdout, req); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return 0
}

// startProfiles begins CPU profiling and reserves the heap-profile file.
// Both files are created up front so an unwritable path is a loud, early
// usage error rather than a profile silently missing after the run. The
// returned stop function ends the CPU profile and writes the heap snapshot;
// its error is surfaced as a nonzero exit by the caller.
func startProfiles(cpu, mem string) (stop func() error, err error) {
	var cpuF, memF *os.File
	if cpu != "" {
		cpuF, err = os.Create(cpu)
		if err != nil {
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuF); err != nil {
			cpuF.Close()
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
	}
	if mem != "" {
		memF, err = os.Create(mem)
		if err != nil {
			if cpuF != nil {
				pprof.StopCPUProfile()
				cpuF.Close()
			}
			return nil, fmt.Errorf("-memprofile: %w", err)
		}
	}
	return func() error {
		if cpuF != nil {
			pprof.StopCPUProfile()
			if err := cpuF.Close(); err != nil {
				return fmt.Errorf("-cpuprofile: %w", err)
			}
		}
		if memF != nil {
			runtime.GC() // settle the live set so the snapshot is meaningful
			if err := pprof.WriteHeapProfile(memF); err != nil {
				memF.Close()
				return fmt.Errorf("-memprofile: %w", err)
			}
			if err := memF.Close(); err != nil {
				return fmt.Errorf("-memprofile: %w", err)
			}
		}
		return nil
	}, nil
}

// optionTokens renders the protocol option vocabulary for -help.
func optionTokens() string {
	var toks []string
	for _, o := range core.OptionCatalog() {
		toks = append(toks, o.Token)
	}
	return strings.Join(toks, "|")
}
