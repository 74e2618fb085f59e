package main

import (
	"math"
	"runtime"
	"sort"
	"strconv"
)

// metricValue is one reported number.
type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// opLatencies are the durations op_s_p50 summarizes: every successful op,
// except on service-mix, whose op is a cache-served job — the service and
// cache path — while simulated jobs are the load it runs under.
func opLatencies(workload string, ops []opRecord) []float64 {
	if workload == "service-mix" {
		return classDurations(ops, "hit")
	}
	return durations(ops)
}

func classDurations(ops []opRecord, class string) []float64 {
	var d []float64
	for _, o := range ops {
		if o.Failed == "" && o.Class == class {
			d = append(d, o.Dur)
		}
	}
	return d
}

// windowSeconds is the measured span: from the window's opening to the
// end of its last op.
func windowSeconds(ops []opRecord) float64 {
	var end float64
	for _, o := range ops {
		end = math.Max(end, o.Start+o.Dur)
	}
	return end
}

// endToEnd computes the workload's end-to-end metrics from its child's op
// records, the set-up times of its child processes and the measuring
// child's peak RSS. Metrics the spec does not report on this workload,
// and percentiles without minTail samples beyond them, are left out.
func endToEnd(spec *benchSpec, workload string, ops []opRecord, cal []calSample, setups []float64, rssMB float64) map[string]metricValue {
	out := map[string]metricValue{}
	put := func(name string, v float64, n int) {
		m, ok := spec.metric(name)
		if ok && m.appliesTo(workload) && n > 0 && !math.IsNaN(v) && !math.IsInf(v, 0) {
			out[name] = metricValue{Value: v, Unit: m.Unit, Samples: n}
		}
	}
	failed := 0
	var cycles float64
	for _, o := range ops {
		if o.Failed != "" {
			failed++
		}
		cycles += float64(o.Cycles)
	}
	done := len(ops) - failed
	// The window's busy time leaves out the calibration pauses.
	window := windowSeconds(ops)
	var calDur []float64
	for _, c := range cal {
		if c.At < window {
			window -= c.Dur
		}
		calDur = append(calDur, c.Dur)
	}
	calS := percentile(calDur, 50)

	put("setup_s", percentile(setups, 50), len(setups))
	lat := opLatencies(workload, ops)
	put("op_s_p50", percentile(lat, 50), len(lat))
	put("jobs_per_s", float64(done)/window, done)
	put("sim_cycles_per_s", cycles/window, done)
	for _, class := range []string{"hit", "miss"} {
		d := classDurations(ops, class)
		for _, p := range []float64{50, 90} {
			if reportable(len(d), p) {
				put(class+"_ms_p"+strconv.Itoa(int(p)), 1000*percentile(d, p), len(d))
			}
		}
	}
	put("op_cal_p50", percentile(lat, 50)/calS, len(lat))
	put("jobs_per_cal", float64(done)/window*calS, done)
	put("max_rss_mb", rssMB, 1)
	put("fail_frac", float64(failed)/float64(len(ops)), len(ops))
	return out
}

// memDelta is the allocator's work over a phase.
type memDelta struct{ mallocs, bytes, gcs float64 }

func memSince(before *runtime.MemStats) memDelta {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	return memDelta{
		mallocs: float64(now.Mallocs - before.Mallocs),
		bytes:   float64(now.TotalAlloc - before.TotalAlloc),
		gcs:     float64(now.NumGC - before.NumGC),
	}
}

// cpuBuckets are the profile buckets reported as cpu.<bucket>_pct: the
// repository's internal packages a simulation or service runs through,
// the HTTP stack, the benchmark's own code, and background runtime work;
// "maps" and "malloc" are leaf-frame overlays.
var cpuBuckets = []string{
	"mesi", "denovo", "coher", "cache", "bloom", "waste", "dram", "mesh", "sim",
	"workloads", "memsys", "core", "job", "http", "bench", "gc_bg", "maps", "malloc",
}

// layerMetrics computes the per-layer metrics of a traced run. plain are
// the untraced ops, profiled the ops run under the CPU profiler (mem is
// the allocator's work over them), and tr holds the replay's spans and
// counters. Every metric is present; one that does not apply to the
// workload reads 0.
func layerMetrics(workload string, plain, profiled []opRecord, mem memDelta, shares map[string]float64, tr *tracer) map[string]float64 {
	m := map[string]float64{}
	for _, b := range cpuBuckets {
		m["cpu."+b+"_pct"] = 100 * shares[b]
	}
	n := float64(max(len(profiled), 1))
	m["host.allocs_per_op"] = mem.mallocs / n
	m["host.alloc_mb_per_op"] = mem.bytes / n / (1 << 20)
	m["host.gc_per_op"] = mem.gcs / n
	m["trace.overhead_pct"] = 100 * (percentile(opLatencies(workload, profiled), 50)/percentile(opLatencies(workload, plain), 50) - 1)

	// Replay counters, per replayed op (per simulated job on service-mix).
	ops := float64(max(tr.ops, 1))
	c := tr.c
	m["waste.instances"] = float64(c.WasteInstances) / ops
	m["dram.requests"] = float64(c.DRAMRequests) / ops
	m["dram.row_hit_ratio"] = ratio(float64(c.DRAMRowHits), float64(c.DRAMRowTotal))
	m["mesh.packets"] = float64(c.Packets) / ops
	m["mesh.flit_hops"] = float64(c.FlitHops) / ops
	m["mesh.deflected_hops"] = float64(c.Defl) / ops
	m["mesh.latency_mean"] = ratio(c.LatencyWeighted, float64(c.Delivered))
	m["mesh.link_util_max"] = c.LinkUtilMax
	m["sim.events"] = float64(c.Events) / ops
	m["sim.cycles"] = float64(c.Cycles) / ops
	m["sim.clamped"] = float64(c.Clamped)
	run := tr.durations("core.Runner.Run")
	m["sim.ns_per_event"] = ratio(1e9*sum(run), float64(c.Events))
	m["workloads.build_ms"] = 1000 * median0(tr.durations("workloads.ByName"))
	m["memsys.env_ms"] = 1000 * median0(tr.durations("memsys.NewEnv"))
	m["core.proto_ms"] = 1000 * median0(tr.durations("core.NewProtocol"))
	m["core.run_s"] = sum(run) / ops

	var hits, jobs, storeFailed, rejected float64
	var render []float64
	for _, o := range plain {
		if o.Render > 0 {
			render = append(render, o.Render)
		}
		if o.Class != "" {
			jobs++
		}
		if o.Class == "hit" {
			hits++
		}
		storeFailed += float64(o.StoreFailed)
		if o.Rejected {
			rejected++
		}
	}
	if len(render) == 0 { // service-mix renders on the server; time the replay's render
		render = tr.durations("job.Outcome.RenderText")
	}
	m["core.render_ms"] = 1000 * median0(render)
	m["core.pool_idle_pct"] = 0
	if workload != "service-mix" {
		busy := sum(tr.durations("workloads.ByName")) + sum(tr.durations("cell"))
		m["core.pool_idle_pct"] = 100 * (1 - busy/ops/(percentile(durations(plain), 50)*pinnedProcs))
	}
	m["core.cache_hit_ratio"] = ratio(hits, jobs)
	m["core.cache_store_failed"] = storeFailed
	m["job.rejected"] = rejected
	field := func(class string, f func(opRecord) float64) float64 {
		var d []float64
		for _, o := range plain {
			if o.Failed == "" && o.Class != "" && (class == "" || o.Class == class) {
				d = append(d, f(o))
			}
		}
		return 1000 * median0(d)
	}
	m["job.submit_ms_p50"] = field("", func(o opRecord) float64 { return o.Submit })
	m["job.queue_wait_ms_p50"] = field("", func(o opRecord) float64 { return o.QueueWait })
	m["job.run_hit_ms_p50"] = field("hit", func(o opRecord) float64 { return o.Run })
	m["job.run_miss_ms_p50"] = field("miss", func(o opRecord) float64 { return o.Run })
	m["job.result_ms_p50"] = field("", func(o opRecord) float64 { return o.Result })
	for k, v := range m {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			m[k] = 0
		}
	}
	return m
}

// median0 is the median, or 0 for no samples (a layer the workload does
// not exercise).
func median0(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return percentile(xs, 50)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// sortedKeys returns a map's keys in order, for stable output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
