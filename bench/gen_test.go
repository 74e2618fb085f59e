package main

import (
	"reflect"
	"testing"

	"repro/internal/core"
)

func genJobs(seed int64, n int) []svcJob {
	g := newJobGen(seed)
	for len(g.jobs) < n {
		g.next()
	}
	return g.jobs
}

func TestSeededInputsRepeat(t *testing.T) {
	if !reflect.DeepEqual(nocRates(7), nocRates(7)) ||
		!reflect.DeepEqual(paperRequest(7), paperRequest(7)) ||
		!reflect.DeepEqual(genJobs(7, 500), genJobs(7, 500)) {
		t.Fatal("the same seed gave different inputs")
	}
	if reflect.DeepEqual(nocRates(7), nocRates(8)) ||
		reflect.DeepEqual(genJobs(7, 500), genJobs(8, 500)) {
		t.Fatal("different seeds gave the same inputs")
	}
}

func TestNocRatesStratified(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rates := nocRates(seed)
		if len(rates) != 5 {
			t.Fatalf("seed %d: %d rates", seed, len(rates))
		}
		for k, p := range rates {
			lo := 0.02 + 0.036*float64(k)
			if p <= lo || p >= lo+0.036 {
				t.Errorf("seed %d: rate %d = %v outside its stratum (%v, %v)", seed, k, p, lo, lo+0.036)
			}
		}
		if _, err := core.ParseSweep(nocRequest(seed, "vc").Sweep); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

func TestJobMix(t *testing.T) {
	const n = 4000
	jobs := genJobs(3, n)
	kinds := map[string]int{}
	cells := map[string]int{} // workload|protocol -> index of the new job that simulates it
	for i, j := range jobs {
		kinds[j.Kind]++
		if j.Kind == "repeat" {
			if i-j.Root < repeatGap || jobs[j.Root].Kind == "repeat" || !reflect.DeepEqual(j.Req, jobs[j.Root].Req) {
				t.Fatalf("job %d repeats job %d, which is not a new job at least %d back", i, j.Root, repeatGap)
			}
			continue
		}
		if j.Root != i {
			t.Fatalf("new job %d has root %d", i, j.Root)
		}
		if err := j.Req.ValidateStrict(); err != nil {
			t.Fatalf("job %d is not a valid request: %v", i, err)
		}
		benches := j.Req.Benchmarks
		if j.Req.IsSweep() {
			sw, err := core.ParseSweep(j.Req.Sweep)
			if err != nil {
				t.Fatal(err)
			}
			pts, err := sw.PointOptions(core.MatrixOptions{Protocols: j.Req.Protocols})
			if err != nil {
				t.Fatal(err)
			}
			benches = nil
			for _, p := range pts {
				benches = append(benches, p.Benchmarks...)
			}
		}
		for _, b := range benches {
			k := b + "|" + j.Req.Protocols[0]
			if prev, dup := cells[k]; dup {
				t.Fatalf("jobs %d and %d both simulate %s: the second would be a cache hit", prev, i, k)
			}
			cells[k] = i
		}
	}
	for kind, want := range map[string]float64{"repeat": repeatFrac, "sweep": sweepFrac, "matrix": 1 - repeatFrac - sweepFrac} {
		if got := float64(kinds[kind]) / n; got < want-0.03 || got > want+0.03 {
			t.Errorf("%s share %.3f, want %.2f", kind, got, want)
		}
	}
}
