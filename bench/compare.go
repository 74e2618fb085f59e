package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// compareMain implements -compare A1.json ... -- B1.json ...: A is the
// parent commit's runs, B the change's, each a record written by -out.
// It exits 1 when any metric is worse on any workload.
func compareMain(spec *benchSpec, args []string) int {
	var a, b []string
	side := &a
	for _, arg := range args {
		if arg == "--" && side == &a {
			side = &b
			continue
		}
		*side = append(*side, arg)
	}
	if len(a) == 0 || len(b) == 0 {
		fmt.Fprintln(os.Stderr, "bench: -compare needs run records on both sides: A1.json ... -- B1.json ...")
		return 2
	}
	as, err := loadRuns(a)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	bs, err := loadRuns(b)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if compare(os.Stdout, spec, as, bs) > 0 {
		return 1
	}
	return 0
}

// runSet holds each workload's metric values across runs, in file order
// so the i-th runs of two sets pair up. The key "cal_s" holds each run's
// median calibration-loop time: the host's speed, shown but not judged.
type runSet map[string]map[string][]float64 // workload -> metric -> values

func loadRuns(files []string) (runSet, error) {
	rs := runSet{}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var rec runRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		for _, w := range rec.Workloads {
			if rs[w.Name] == nil {
				rs[w.Name] = map[string][]float64{}
			}
			for name, m := range w.Metrics {
				rs[w.Name][name] = append(rs[w.Name][name], m.Value)
			}
			if len(w.Cal) > 0 {
				rs[w.Name]["cal_s"] = append(rs[w.Name]["cal_s"], percentile(w.Cal, 50))
			}
		}
	}
	return rs, nil
}

// verdict is one metric's comparison on one workload.
type verdict struct {
	aMed, aQ1, aQ3 float64
	bMed, bQ1, bQ3 float64
	allow          float64
	wins, pairs    int
	result         string // "same", "better", "WORSE" or "unresolved"
}

// judge compares B's runs of one metric against A's (the parent). B is
// worse when its median moves past the metric's allowance in the bad
// direction. When A's own quartile spread is wider than the allowance the
// runs cannot resolve a change of that size, so the metric is unresolved
// — unless every B run beats every A run. wins counts the pairs (A_i,
// B_i) that B won outright; ties count for neither.
func judge(m metricSpec, a, b []float64) verdict {
	var v verdict
	v.aQ1, v.aMed, v.aQ3 = quartiles(a)
	v.bQ1, v.bMed, v.bQ3 = quartiles(b)
	v.allow = allowance(v.aMed, m.Bound, m.Floor)
	v.pairs = min(len(a), len(b))
	for i := 0; i < v.pairs; i++ {
		if beats(a[i], b[i], m.Better) {
			v.wins++
		}
	}
	allBetter := true
	for _, x := range a {
		for _, y := range b {
			allBetter = allBetter && beats(x, y, m.Better)
		}
	}
	switch {
	case v.aQ3-v.aQ1 > v.allow && allBetter:
		v.result = "better"
	case v.aQ3-v.aQ1 > v.allow:
		v.result = "unresolved"
	case worse(v.aMed, v.bMed, v.allow, m.Better):
		v.result = "WORSE"
	case worse(v.bMed, v.aMed, v.allow, m.Better):
		v.result = "better"
	default:
		v.result = "same"
	}
	return v
}

// compare prints one table per workload and returns the number of worse
// metrics.
func compare(w io.Writer, spec *benchSpec, a, b runSet) int {
	nWorse := 0
	for _, ws := range spec.Workloads {
		am, bm := a[ws.Name], b[ws.Name]
		if am == nil || bm == nil {
			continue
		}
		fmt.Fprintf(w, "\n== %s (calibration loop: A %.4g s, B %.4g s)\n%-18s %-6s %-38s %-38s %8s %10s %7s  %s\n",
			ws.Name, percentile(am["cal_s"], 50), percentile(bm["cal_s"], 50),
			"metric", "unit", "A median [q1, q3]", "B median [q1, q3]", "delta", "allowance", "B wins", "verdict")
		for _, m := range spec.Metrics {
			av, bv := am[m.Name], bm[m.Name]
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			v := judge(m, av, bv)
			if v.result == "WORSE" {
				nWorse++
			}
			delta := "n/a"
			if v.aMed != 0 {
				delta = fmt.Sprintf("%+.1f%%", 100*(v.bMed-v.aMed)/math.Abs(v.aMed))
			}
			fmt.Fprintf(w, "%-18s %-6s %-38s %-38s %8s %10.4g %3d/%-3d  %s\n", m.Name, m.Unit,
				fmt.Sprintf("%.5g [%.5g, %.5g]", v.aMed, v.aQ1, v.aQ3),
				fmt.Sprintf("%.5g [%.5g, %.5g]", v.bMed, v.bQ1, v.bQ3),
				delta, v.allow, v.wins, v.pairs, v.result)
		}
	}
	fmt.Fprintf(w, "\n%d metric(s) worse\n", nWorse)
	return nWorse
}
