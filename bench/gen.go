package main

import (
	"encoding/json"
	"math/rand/v2"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/job"
	"repro/internal/workloads"
)

// Seeded input generators. Each workload draws its inputs from its own
// PCG stream of the run's seed, so the same seed gives the same inputs on
// every commit, and the program under test receives only the generated
// requests.

func newRNG(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream))
}

// paperRequest is paper-tiny's op: the paper's six benchmarks under its
// nine protocols, protocols in seeded order. The benchmark order stays
// the paper's: radix cells take up to 0.8 s of a 5 s makespan, so moving
// them to the end of the claim order would make the op's long pole, not
// the code, set its time.
func paperRequest(seed int64) job.Request {
	protos := core.ProtocolNames()
	r := newRNG(seed, 0x7061706572)
	r.Shuffle(len(protos), func(i, j int) { protos[i], protos[j] = protos[j], protos[i] })
	return job.Request{
		Benchmarks: workloads.Names(),
		Protocols:  protos,
		Workers:    pinnedProcs,
		Figures:    []string{"all"},
		Summary:    true,
	}
}

// nocRates draws the NoC sweep's five injection rates from 0.02–0.20,
// one from each fifth of the range (a stratified draw keeps the op's
// offered load, and so its cost, close across seeds), in ascending order.
func nocRates(seed int64) []float64 {
	const lo, hi, n = 0.02, 0.20, 5
	r := newRNG(seed, 0x6e6f63)
	w := (hi - lo) / n
	rates := make([]float64, n)
	for k := range rates {
		// Stay off the stratum edges so rounding never makes two equal.
		u := 0.05 + 0.9*r.Float64()
		rates[k] = float64(int((lo+w*(float64(k)+u))*1e4+0.5)) / 1e4
	}
	return rates
}

// nocRequest is a NoC workload's op: a uniform-load sweep over the seeded
// rates on an 8x8 mesh under MESI at Small scale.
func nocRequest(seed int64, router string) job.Request {
	var ps []string
	for _, p := range nocRates(seed) {
		ps = append(ps, strconv.FormatFloat(p, 'g', -1, 64))
	}
	return job.Request{
		Sweep:     "uniform(p=" + strings.Join(ps, ",") + ")",
		Size:      "small",
		Protocols: []string{"MESI"},
		Mesh:      "8x8",
		Threads:   16,
		Router:    router,
		Workers:   pinnedProcs,
	}
}

// The service-mix job mix.
const (
	repeatFrac = 0.35 // resubmissions of an earlier job (cache reads)
	sweepFrac  = 0.10 // unique 3-point sweeps
	repeatGap  = 32   // a resubmission reaches at least this far back
)

// svcJob is one request of the service-mix sequence.
type svcJob struct {
	Kind string // "matrix", "sweep" or "repeat"
	// Root is the index of the job whose request this one repeats (its
	// own index for new jobs): bodies are checked against the root's.
	Root int
	Req  job.Request
	Body []byte // Req as the POST body
}

// synthFamilies are the workload families unique jobs draw from: Tiny
// synthetic cells cost 10–25 ms, so a miss is a simulation a client waits
// on, not a batch run.
var synthFamilies = []string{"uniform", "transpose", "bitcomp", "hotspot", "neighbor", "prodcons"}

// jobGen draws the service-mix sequence one job at a time, so set-up
// generates nothing. New jobs never repeat a (workload, protocol) cell of
// an earlier new job, so the server's cache is read exactly by the
// resubmissions.
type jobGen struct {
	r      *rand.Rand
	protos []string
	used   map[string]bool
	jobs   []svcJob
}

func newJobGen(seed int64) *jobGen {
	return &jobGen{r: newRNG(seed, 0x737663), protos: core.ProtocolNames(), used: make(map[string]bool)}
}

// rate draws an injection rate on a 1e-5 grid over 0.02–0.20 that the
// given family and protocol have not used yet.
func (g *jobGen) rate(fam, proto string) string {
	for {
		p := strconv.FormatFloat(float64(2000+g.r.IntN(18001))/1e5, 'g', -1, 64)
		if k := fam + "|" + p + "|" + proto; !g.used[k] {
			g.used[k] = true
			return p
		}
	}
}

// next appends the sequence's next job and returns it.
func (g *jobGen) next() svcJob {
	i := len(g.jobs)
	u := g.r.Float64()
	fam := synthFamilies[g.r.IntN(len(synthFamilies))]
	proto := g.protos[g.r.IntN(len(g.protos))]
	j := svcJob{Root: i}
	switch {
	case u < repeatFrac && i >= repeatGap:
		j = g.jobs[g.r.IntN(i-repeatGap+1)]
		j.Kind = "repeat"
	case u >= repeatFrac && u < repeatFrac+sweepFrac:
		ps := []string{g.rate(fam, proto), g.rate(fam, proto), g.rate(fam, proto)}
		sort.Slice(ps, func(a, b int) bool {
			x, _ := strconv.ParseFloat(ps[a], 64)
			y, _ := strconv.ParseFloat(ps[b], 64)
			return x < y
		})
		j.Kind = "sweep"
		j.Req = job.Request{
			Sweep:     fam + "(p=" + strings.Join(ps, ",") + ")",
			Protocols: []string{proto},
			Workers:   1,
		}
	default:
		j.Kind = "matrix"
		j.Req = job.Request{
			Benchmarks: []string{fam + "(p=" + g.rate(fam, proto) + ")"},
			Protocols:  []string{proto},
			Workers:    1,
			Figures:    []string{"5.1a", "net"},
		}
	}
	if j.Kind != "repeat" {
		j.Body, _ = json.Marshal(j.Req) // a Request always marshals
	}
	g.jobs = append(g.jobs, j)
	return j
}
