// Command bench is the repository's benchmark. It runs four workloads —
// the paper's figure matrix, a uniform-load NoC sweep on each
// cycle-level router, and a mixed job stream against the HTTP job
// server — each in a child process of its own, checks every op's output,
// and prints every end-to-end metric with its unit and sample count. A
// traced run (-trace) prints the per-layer split instead, and -compare
// judges two sets of saved runs against the metrics' bounds. README.md
// describes the workloads, the metrics and how to run it.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
	child    string
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "run only this workload (default: all)")
	fs.Int64Var(&o.seed, "seed", int64(spec.DefaultSeed), "seed the workloads' inputs are drawn from")
	fs.Float64Var(&o.seconds, "seconds", 0, "measuring window per workload run (default: BENCHMARK.json run_seconds)")
	fs.BoolVar(&o.trace, "trace", false, "print the per-layer split instead of the end-to-end metrics")
	fs.StringVar(&o.out, "out", "", "also write the run record (metrics and metadata) as JSON to this file")
	cmp := fs.Bool("compare", false, "compare saved run records: -compare A1.json A2.json ... -- B1.json B2.json ...")
	fs.StringVar(&o.child, "child", "", "internal: run as a workload child process (probe or run)")
	if err := fs.Parse(normalizeTrace(args)); err != nil {
		return 2
	}
	if *cmp {
		return compareMain(spec, fs.Args())
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	h, err := loadHarness(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if o.seconds <= 0 {
		o.seconds = h.RunSeconds
	}
	if o.child != "" {
		if err := childMain(o, spec, root); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		return 0
	}
	return parentMain(o, spec, h, root)
}

// normalizeTrace rewrites "-trace 0" and "--trace 1" — the value as a
// separate argument, as external harnesses pass it — into "-trace=0",
// the only form the flag package accepts for a boolean flag.
func normalizeTrace(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			a = "-trace=" + args[i+1]
			i++
		}
		out = append(out, a)
	}
	return out
}

// runRecord is everything one invocation measured, as -out writes it and
// -compare reads it.
type runRecord struct {
	Meta      runMeta          `json:"meta"`
	Workloads []workloadRecord `json:"workloads"`
}

type runMeta struct {
	Nproc     int     `json:"nproc"`
	GoVersion string  `json:"go_version"`
	GitRev    string  `json:"git_rev"`
	Seed      int64   `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Trace     bool    `json:"trace"`
	Started   string  `json:"started"`
}

type workloadRecord struct {
	Name       string                 `json:"name"`
	GOMAXPROCS int                    `json:"gomaxprocs"`
	LoadStart  [3]float64             `json:"loadavg_start"`
	LoadEnd    [3]float64             `json:"loadavg_end"`
	Attempted  int                    `json:"attempted"`
	Failed     int                    `json:"failed"`
	Correct    bool                   `json:"correct"`
	Errors     []string               `json:"errors,omitempty"`
	Metrics    map[string]metricValue `json:"metrics,omitempty"`
	Layer      map[string]float64     `json:"layer,omitempty"`
	// Cal holds the calibration loop's timings, seconds.
	Cal []float64 `json:"cal,omitempty"`
}

func parentMain(o options, spec *benchSpec, h *harnessSpec, root string) int {
	names := []string{o.workload}
	if o.workload == "" {
		names = nil
		for _, w := range spec.Workloads {
			names = append(names, w.Name)
		}
	} else if _, ok := spec.workload(o.workload); !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", o.workload)
		return 2
	}
	rec := runRecord{Meta: runMeta{
		Nproc:     runtime.NumCPU(),
		GoVersion: runtime.Version(),
		GitRev:    gitRev(root),
		Seed:      o.seed,
		Seconds:   o.seconds,
		Trace:     o.trace,
		Started:   time.Now().UTC().Format(time.RFC3339),
	}}
	fmt.Printf("bench: seed %d, %gs window, nproc %d, %s, rev %s\n",
		o.seed, o.seconds, rec.Meta.Nproc, rec.Meta.GoVersion, rec.Meta.GitRev)
	ok := true
	for _, name := range names {
		wr, err := runWorkload(o, spec, name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
			return 1
		}
		rec.Workloads = append(rec.Workloads, *wr)
		printWorkload(os.Stdout, wr)
		line, err := summaryLine(h, o.trace, wr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
			wr.Correct = false
		}
		fmt.Println(line)
		ok = ok && wr.Correct
	}
	if o.out != "" {
		if err := writeJSON(o.out, rec); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if !ok {
		return 1
	}
	return 0
}

// runWorkload runs one workload: spec.Probes set-up probes (untraced runs
// only), then the measuring child, each a fresh process.
func runWorkload(o options, spec *benchSpec, name string) (*workloadRecord, error) {
	wr := &workloadRecord{Name: name, LoadStart: loadavg()}
	if nproc := runtime.NumCPU(); wr.LoadStart[0] > float64(nproc) {
		fmt.Fprintf(os.Stderr, "\nbench: WARNING: 1-minute load %.2f exceeds nproc %d before %s; "+
			"other work on this host will skew the timings.\n\n", wr.LoadStart[0], nproc, name)
	}
	var setups []float64
	if !o.trace {
		for i := 0; i < spec.Probes; i++ {
			c, err := spawn(o, name, "probe")
			if err != nil {
				return nil, err
			}
			setups = append(setups, c.setup)
		}
	}
	c, err := spawn(o, name, "run")
	if err != nil {
		return nil, err
	}
	wr.LoadEnd = loadavg()
	setups = append(setups, c.setup)

	res := c.result
	wr.GOMAXPROCS = res.GOMAXPROCS
	wr.Attempted = len(res.Ops)
	for _, op := range res.Ops {
		if op.Failed != "" {
			wr.Failed++
			wr.Errors = append(wr.Errors, op.Failed)
		}
	}
	wr.Errors = append(wr.Errors, res.Errors...)
	wr.Correct = wr.Attempted > 0 && len(wr.Errors) == 0
	if o.trace {
		wr.Layer = res.Layer
	} else {
		wr.Metrics = endToEnd(spec, name, res.Ops, res.Cal, setups, c.rssMB)
		for _, s := range res.Cal {
			wr.Cal = append(wr.Cal, s.Dur)
		}
	}
	return wr, nil
}

type spawned struct {
	setup  float64 // seconds from starting the process to its "ready"
	result *childResult
	rssMB  float64
}

// spawn runs the program itself as a workload child pinned to
// pinnedProcs threads of Go code, and waits for it to exit.
func spawn(o options, name, mode string) (*spawned, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(2*o.seconds)*time.Second+2*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-child", mode, "-workload", name,
		"-seed", strconv.FormatInt(o.seed, 10), "-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-trace="+strconv.FormatBool(o.trace))
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(pinnedProcs))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	r := bufio.NewReader(stdout)
	first, rerr := r.ReadString('\n')
	s := &spawned{setup: time.Since(t0).Seconds()}
	rest, _ := io.ReadAll(r) // a read error shows as the child's exit status or a short result
	werr := cmd.Wait()
	switch {
	case rerr != nil || first != "ready\n":
		return nil, fmt.Errorf("%s child did not become ready: %v", mode, errors.Join(rerr, werr))
	case werr != nil:
		return nil, fmt.Errorf("%s child: %w", mode, werr)
	}
	s.rssMB = maxRSSMB(cmd.ProcessState)
	if mode == "run" {
		s.result = new(childResult)
		if err := json.Unmarshal(rest, s.result); err != nil {
			return nil, fmt.Errorf("child result: %w", err)
		}
	}
	return s, nil
}

// summaryLine is the output's last line for one workload: whether every
// check passed, the ops attempted and failed, and the metrics BENCHMARK.json
// lists — end-to-end, or per-layer when tracing.
func summaryLine(h *harnessSpec, trace bool, wr *workloadRecord) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: wr.Correct, Attempted: wr.Attempted, Failed: wr.Failed, Metrics: map[string]value{}}
	var missing []string
	names := h.EndToEnd
	if trace {
		names = h.PerLayer
	}
	for _, m := range names {
		var v float64
		var ok bool
		if trace {
			v, ok = wr.Layer[m.Name]
		} else {
			var mv metricValue
			mv, ok = wr.Metrics[m.Name]
			v = mv.Value
		}
		if !ok {
			missing = append(missing, m.Name)
			continue
		}
		line.Metrics[m.Name] = value{Value: v, Unit: m.Unit}
	}
	var err error
	if len(missing) > 0 {
		line.Correct = false
		err = fmt.Errorf("no value for %s", strings.Join(missing, ", "))
	}
	b, jerr := json.Marshal(line)
	return string(b), errors.Join(err, jerr)
}

func printWorkload(w io.Writer, wr *workloadRecord) {
	status := "all checks passed"
	if !wr.Correct {
		status = "CHECKS FAILED"
	}
	fmt.Fprintf(w, "\n== %s: %d ops, %d failed, %s (GOMAXPROCS %d, load %.2f -> %.2f)\n",
		wr.Name, wr.Attempted, wr.Failed, status, wr.GOMAXPROCS, wr.LoadStart[0], wr.LoadEnd[0])
	for i, e := range wr.Errors {
		if i == 5 {
			fmt.Fprintf(w, "   ... %d more\n", len(wr.Errors)-i)
			break
		}
		fmt.Fprintf(w, "   error: %s\n", e)
	}
	for _, k := range sortedKeys(wr.Metrics) {
		m := wr.Metrics[k]
		fmt.Fprintf(w, "   %-18s %14.6g %-5s n=%d\n", k, m.Value, m.Unit, m.Samples)
	}
	for _, k := range sortedKeys(wr.Layer) {
		fmt.Fprintf(w, "   %-26s %14.6g\n", k, wr.Layer[k])
	}
}

// gitRev is the checkout's commit, or "unknown" outside a git work tree.
// git runs only when the root itself holds .git, so it never searches
// directories above the checkout.
func gitRev(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
