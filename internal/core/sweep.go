package core

// The third-axis sweep engine. A matrix crosses two axes — workloads x
// protocols — and every other knob (topology, router, VC geometry, a
// synthetic pattern's parameters) is a single value per run. A sweep
// crosses one more: a SweepSpec names an axis and an ordered value list,
// expands into one MatrixOptions per point, runs each point through the
// sharded engine (inheriting its cancellation and bit-identical-at-any-
// worker-count guarantees), and assembles the per-point results into one
// table — the data behind the classic NoC load-latency saturation curves
// and the paper's waste-vs-load question. Run is the only way in: a matrix
// is the one-point sweep, so both share one planner, one pool, one cache
// path and one progress stream.
//
// Two spellings, mirroring the registries the axes come from:
//
//	topology=mesh,ring,torus     an engine axis with explicit values
//	vcs=2..8..2                  a numeric engine axis as lo..hi..step
//	protocol=MESI,DeNovo         one protocol per point (curve families)
//	hotspot(t=1..16)             a workload-registry parameter sweep
//	uniform(p=0.01..0.09..0.02)  a float parameter needs an explicit step
//	hotspot(t=1,2,4,p=0.1)       value lists and fixed co-parameters mix
//
// In a workload sweep exactly one parameter carries multiple values; the
// others are fixed for every point, and each expanded point is validated
// through workloads.ParseSpec before anything runs.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"repro/internal/waste"
	"repro/internal/workloads"
)

// DefaultSweepPointCap bounds a sweep's expansion unless the caller
// raises it (ParseSweepLimit, trafficsim -maxpoints): a typo like
// "uniform(p=0.0001..1..0.0001)" should fail loudly, not run for a week.
// Genuinely large sweeps opt in to a higher cap explicitly — and should
// bring a point cache (-cachedir) so a kill doesn't cost the finished
// points.
const DefaultSweepPointCap = 256

// MaxSweepPointCap is the ceiling on that cap. Planning holds every
// point's plan at once, and its cost grows with the point count (about
// 3 KB and 11 µs a point on a 2-CPU host), so a request past the ceiling
// is refused before anything is planned rather than trusted with the
// host's memory.
const MaxSweepPointCap = 10_000

// SweepSpec is a parsed, validated sweep: one axis with an ordered,
// expanded value list, ready to stamp out per-point MatrixOptions.
type SweepSpec struct {
	// Spec is the normalized spelling of the sweep (whitespace trimmed,
	// value lists preserved as written).
	Spec string
	// Axis identifies the swept knob: an engine axis name ("topology",
	// "vcs", "protocol", ...) or "family.key" for a workload-parameter
	// sweep ("hotspot.t").
	Axis string
	// Workload is the swept workload family name for workload-parameter
	// sweeps ("" for engine axes).
	Workload string
	// Param is the swept parameter key for workload-parameter sweeps.
	Param string
	// Values holds one label per sweep point, in sweep order: the axis
	// value for engine axes ("ring", "4"), the swept parameter value for
	// workload sweeps ("2" for hotspot(t=2)) — the curve's x coordinates.
	Values []string

	axis  *Knob    // non-nil for engine-axis sweeps
	specs []string // per-point workload specs (workload sweeps)
}

// expandRange expands one sweep value token: a plain value, an integer
// range "lo..hi" (step 1) or "lo..hi..step", or a float range with an
// explicit step ("0.1..0.9..0.2"). Ranges are inclusive of hi when the
// step lands on it, and capped at limit points.
func expandRange(tok string, limit int) ([]string, error) {
	if !strings.Contains(tok, "..") {
		return []string{tok}, nil
	}
	parts := strings.Split(tok, "..")
	if len(parts) != 2 && len(parts) != 3 {
		return nil, fmt.Errorf("range %q is not lo..hi or lo..hi..step", tok)
	}
	// Integer range when every part — bounds and step alike — parses as
	// an integer; "0..1..0.25" has integer bounds but is a float range.
	allInt := true
	for _, p := range parts {
		if _, err := strconv.Atoi(p); err != nil {
			allInt = false
		}
	}
	if allInt {
		lo, _ := strconv.Atoi(parts[0])
		hi, _ := strconv.Atoi(parts[1])
		step := 1
		if len(parts) == 3 {
			if step, _ = strconv.Atoi(parts[2]); step < 1 {
				return nil, fmt.Errorf("range %q: step %q must be positive", tok, parts[2])
			}
		}
		if hi < lo {
			return nil, fmt.Errorf("range %q: hi %d < lo %d", tok, hi, lo)
		}
		var out []string
		for v := lo; v <= hi; v += step {
			out = append(out, strconv.Itoa(v))
			if len(out) > limit {
				return nil, fmt.Errorf("range %q expands past %d points (raise the cap with -maxpoints / ParseSweepLimit)", tok, limit)
			}
		}
		return out, nil
	}
	// Float range: the step is mandatory (there is no natural "next"
	// float, and an implied step would silently pick one).
	lo, err1 := strconv.ParseFloat(parts[0], 64)
	hi, err2 := strconv.ParseFloat(parts[1], 64)
	if err1 != nil || err2 != nil {
		return nil, fmt.Errorf("range %q: bounds are neither integers nor numbers", tok)
	}
	if len(parts) != 3 {
		return nil, fmt.Errorf("float range %q needs an explicit step (lo..hi..step)", tok)
	}
	step, err := strconv.ParseFloat(parts[2], 64)
	if err != nil || step <= 0 {
		return nil, fmt.Errorf("range %q: step %q must be a positive number", tok, parts[2])
	}
	if hi < lo {
		return nil, fmt.Errorf("range %q: hi %g < lo %g", tok, hi, lo)
	}
	var out []string
	for i := 0; ; i++ {
		// Recompute from the index (lo + i*step, decimally rounded) so the
		// labels stay clean instead of accumulating float error.
		v := math.Round((lo+float64(i)*step)*1e9) / 1e9
		if v > hi+1e-12 {
			break
		}
		out = append(out, strconv.FormatFloat(v, 'g', -1, 64))
		if len(out) > limit {
			return nil, fmt.Errorf("range %q expands past %d points (raise the cap with -maxpoints / ParseSweepLimit)", tok, limit)
		}
	}
	return out, nil
}

// splitSweepValues splits a comma-separated value list where a piece
// containing '=' starts a new key and bare pieces extend the previous
// key's values: "t=1,2,4,p=0.1" is t->[1 2 4], p->[0.1]. Order of first
// appearance is preserved.
func splitSweepValues(body string, limit int) (keys []string, vals map[string][]string, err error) {
	vals = make(map[string][]string)
	cur := ""
	for _, piece := range strings.Split(body, ",") {
		piece = strings.TrimSpace(piece)
		if piece == "" {
			continue
		}
		if eq := strings.IndexByte(piece, '='); eq >= 0 {
			cur = strings.TrimSpace(piece[:eq])
			if cur == "" {
				return nil, nil, fmt.Errorf("option %q has an empty key", piece)
			}
			if _, dup := vals[cur]; dup {
				return nil, nil, fmt.Errorf("duplicate option %q", cur)
			}
			keys = append(keys, cur)
			piece = strings.TrimSpace(piece[eq+1:])
		} else if cur == "" {
			return nil, nil, fmt.Errorf("value %q before any key=", piece)
		}
		if piece == "" {
			return nil, nil, fmt.Errorf("option %q: empty value", cur)
		}
		expanded, err := expandRange(piece, limit)
		if err != nil {
			return nil, nil, err
		}
		for _, v := range expanded {
			vals[cur] = append(vals[cur], normScalar(v))
		}
	}
	return keys, vals, nil
}

// ParseSweep resolves a sweep spec — "axis=value,value,..." over an engine
// axis, or "family(key=range,...)" over a workload-registry parameter —
// into a validated SweepSpec without running anything. Every expanded
// point value is checked against its registry, so a sweep that parses
// cannot fail on spec resolution mid-run. The expansion is capped at
// DefaultSweepPointCap points; ParseSweepLimit raises the cap.
func ParseSweep(spec string) (*SweepSpec, error) {
	return ParseSweepLimit(spec, 0)
}

// ParseSweepLimit is ParseSweep with an explicit point cap (maxPoints <= 0
// means DefaultSweepPointCap). The cap exists so a typo'd range fails
// loudly instead of expanding into a week of simulation; sweeps that
// genuinely need more points raise it deliberately, up to
// MaxSweepPointCap.
func ParseSweepLimit(spec string, maxPoints int) (*SweepSpec, error) {
	if maxPoints > MaxSweepPointCap {
		return nil, fmt.Errorf("core: sweep cap %d exceeds the ceiling of %d points; split the sweep into smaller ones", maxPoints, MaxSweepPointCap)
	}
	limit := maxPoints
	if limit <= 0 {
		limit = DefaultSweepPointCap
	}
	s := strings.TrimSpace(spec)
	if s == "" {
		return nil, fmt.Errorf("core: empty sweep spec (axes: %s; or a workload parameter like hotspot(t=1..16))",
			strings.Join(SweepAxisNames(), ", "))
	}
	if i := strings.IndexByte(s, '('); i >= 0 {
		return parseWorkloadSweep(spec, s, i, limit)
	}
	eq := strings.IndexByte(s, '=')
	if eq < 0 {
		return nil, fmt.Errorf("core: sweep %q is neither axis=values nor workload(key=range)", spec)
	}
	name := strings.TrimSpace(s[:eq])
	axes := SweepAxes()
	i := slices.IndexFunc(axes, func(a Knob) bool { return a.Name == name })
	if i < 0 {
		return nil, fmt.Errorf("core: unknown sweep axis %q (axes: %s; or a workload parameter like hotspot(t=1..16))",
			name, strings.Join(SweepAxisNames(), ", "))
	}
	axis := &axes[i]
	var values []string
	for _, tok := range strings.Split(s[eq+1:], ",") {
		if tok = strings.TrimSpace(tok); tok == "" {
			continue
		}
		expanded, err := expandRange(tok, limit)
		if err != nil {
			return nil, fmt.Errorf("core: sweep %q: %w", spec, err)
		}
		values = append(values, expanded...)
	}
	if len(values) < 2 {
		return nil, fmt.Errorf("core: sweep %q has %d point(s); a sweep needs at least 2", spec, len(values))
	}
	if len(values) > limit {
		return nil, fmt.Errorf("core: sweep %q expands to %d points (cap %d; raise it with -maxpoints / ParseSweepLimit)", spec, len(values), limit)
	}
	seen := make(map[string]bool, len(values))
	for i, v := range values {
		if axis.parse != nil {
			n, err := axis.parse(v)
			if err != nil {
				return nil, fmt.Errorf("core: sweep %q: %v", spec, err)
			}
			values[i] = n
			v = n
		} else if !slices.Contains(axis.Values(), v) {
			return nil, fmt.Errorf("core: sweep %q: unknown %s %q (valid: %s)",
				spec, axis.Name, v, strings.Join(axis.Values(), ", "))
		}
		if seen[v] {
			return nil, fmt.Errorf("core: sweep %q: duplicate point %q", spec, v)
		}
		seen[v] = true
	}
	return &SweepSpec{
		Spec:   name + "=" + strings.Join(values, ","),
		Axis:   name,
		Values: values,
		axis:   axis,
	}, nil
}

// parseWorkloadSweep handles the "family(key=range,...)" form: exactly one
// parameter carries multiple values and becomes the axis; the rest are
// fixed for every point.
func parseWorkloadSweep(orig, s string, paren, limit int) (*SweepSpec, error) {
	if !strings.HasSuffix(s, ")") {
		return nil, fmt.Errorf("core: malformed sweep %q: missing ')'", orig)
	}
	family := strings.TrimSpace(s[:paren])
	keys, vals, err := splitSweepValues(s[paren+1:len(s)-1], limit)
	if err != nil {
		return nil, fmt.Errorf("core: sweep %q: %w", orig, err)
	}
	swept := ""
	for _, k := range keys {
		if len(vals[k]) > 1 {
			if swept != "" {
				return nil, fmt.Errorf("core: sweep %q: both %q and %q have multiple values; a sweep has one axis",
					orig, swept, k)
			}
			swept = k
		}
	}
	if swept == "" {
		return nil, fmt.Errorf("core: sweep %q: no parameter has multiple values (use a range like t=1..16 or a list like t=1,2,4)", orig)
	}
	if len(vals[swept]) > limit {
		return nil, fmt.Errorf("core: sweep %q expands to %d points (cap %d; raise it with -maxpoints / ParseSweepLimit)", orig, len(vals[swept]), limit)
	}
	sw := &SweepSpec{
		Axis:     family + "." + swept,
		Workload: family,
		Param:    swept,
	}
	seen := make(map[string]bool, len(vals[swept]))
	for _, v := range vals[swept] {
		// One concrete spec per point, every parameter spelled out; the
		// workload registry validates and canonicalizes it, so two
		// spellings of one point ("t=4" and "t=04") collide here.
		var opts []string
		for _, k := range keys {
			val := v
			if k != swept {
				val = vals[k][0]
			}
			opts = append(opts, k+"="+val)
		}
		pointSpec := family + "(" + strings.Join(opts, ",") + ")"
		parsed, err := workloads.ParseSpec(pointSpec)
		if err != nil {
			return nil, fmt.Errorf("core: sweep %q: %w", orig, err)
		}
		if seen[parsed.Canonical] {
			return nil, fmt.Errorf("core: sweep %q: duplicate point %s=%s", orig, swept, v)
		}
		seen[parsed.Canonical] = true
		sw.specs = append(sw.specs, parsed.Canonical)
		sw.Values = append(sw.Values, v)
	}
	if len(sw.Values) < 2 {
		return nil, fmt.Errorf("core: sweep %q has %d point(s); a sweep needs at least 2", orig, len(sw.Values))
	}
	// Canonical spelling: swept values expanded, fixed parameters kept.
	var parts []string
	for _, k := range keys {
		if k == swept {
			parts = append(parts, k+"="+strings.Join(vals[k], ","))
		} else {
			parts = append(parts, k+"="+vals[k][0])
		}
	}
	sw.Spec = family + "(" + strings.Join(parts, ",") + ")"
	return sw, nil
}

// normScalar canonicalizes a numeric-looking value the way the workload
// registry does ("02" -> "2", "0.050" -> "0.05"), so sweep-point labels
// and the canonical Spec match the registry's spelling; non-numeric
// values (file paths) pass through verbatim.
func normScalar(v string) string {
	if n, err := strconv.Atoi(v); err == nil {
		return strconv.Itoa(n)
	}
	if f, err := strconv.ParseFloat(v, 64); err == nil {
		return strconv.FormatFloat(f, 'g', -1, 64)
	}
	return v
}

// PointOptions returns the per-point MatrixOptions, in sweep order: base
// with the axis value applied. For workload-parameter sweeps each point's
// Benchmarks is the single swept spec; for the protocol axis each point's
// Protocols is the single swept protocol. A base that already pins the
// swept axis (an explicit benchmark list against a workload sweep, a
// knob's nonzero field against that knob's axis) is an error rather than
// a silent override — callers leave a swept field at its zero value.
func (s *SweepSpec) PointOptions(base MatrixOptions) ([]MatrixOptions, error) {
	if s.Workload != "" && base.Benchmarks != nil {
		return nil, fmt.Errorf("core: sweep %q sets the benchmark axis; drop the explicit benchmark list", s.Spec)
	}
	if s.axis != nil && s.axis.pinned(&base) {
		return nil, fmt.Errorf("core: sweep %q sets the %s axis; drop the explicit %s value", s.Spec, s.Axis, s.Axis)
	}
	out := make([]MatrixOptions, len(s.Values))
	for i, v := range s.Values {
		o := base
		if s.Workload != "" {
			o.Benchmarks = []string{s.specs[i]}
		} else {
			s.axis.set(&o, v)
		}
		out[i] = o
	}
	return out, nil
}

// SweepPoint is one point of a completed sweep: the axis value and the
// full matrix simulated at it.
type SweepPoint struct {
	// Value is the point's axis value — the curve's x coordinate ("ring",
	// "4"). For workload-parameter sweeps the point's canonical workload
	// spec appears as the single benchmark of Matrix.
	Value string
	// Matrix holds the point's full benchmark x protocol results.
	Matrix *Matrix
	// Cached reports that the point was served from the point cache
	// instead of simulated (bit-identical either way; Load verifies the
	// configuration and tests pin the equality).
	Cached bool
}

// SweepResult is a sweep's outcome: every completed point's matrix, in
// sweep order. A run that was cancelled or hit a failing point returns
// the points that did complete (len(Points) < Expected) alongside the
// error, so callers keep — and, with a cache, persist — finished work.
type SweepResult struct {
	// Spec is the canonical sweep spelling the result was produced from.
	Spec string
	// Axis is the swept knob ("topology", "hotspot.t", ...).
	Axis string
	// Expected is the number of points the sweep expands to;
	// len(Points) == Expected for a complete run.
	Expected int
	// Points holds the per-point matrices of every completed point, in
	// sweep order (a partial result skips the unfinished points).
	Points []*SweepPoint
}

// RunOptions configures Run beyond the per-point MatrixOptions.
type RunOptions struct {
	// Sweep, if non-empty, is the sweep spec (see ParseSweep) expanded
	// over the base MatrixOptions. Empty runs the base options as a
	// one-point sweep: one point with Value "", under Axis "".
	Sweep string
	// Cache, if non-nil, serves repeated points from disk and persists
	// each point as it completes — which is also what makes a killed
	// sweep resumable: rerunning the same sweep skips the finished
	// points. Points the cache cannot key (trace replays) are always
	// simulated.
	Cache *PointCache
	// MaxPoints raises the sweep expansion cap (<= 0 means
	// DefaultSweepPointCap).
	MaxPoints int
	// Progress, if set, receives the run's progress stream under the
	// contract events.go documents: one event at a time, numbered, cell
	// events in claim order. It runs under the lock workers claim cells
	// under, so it must return promptly and must not wait on the run.
	Progress func(Event)
}

// Plan is the planning half of Run, callable on its own: it expands the
// sweep (a matrix is one point), resolves every point's protocol and
// workload specs through their registries and validates each point's
// system configuration, without building or simulating anything. Run
// plans through the same code, so a run Plan accepts cannot fail planning
// inside Run.
func Plan(opt MatrixOptions, ro RunOptions) error {
	_, _, err := plan(opt, ro)
	return err
}

// plan expands and plans every point of a run before anything runs, so
// registry resolution and config validation fail here, loudly, never
// mid-sweep; programs build lazily per point, so planning 10,000 points
// stays cheap. The sweep comes back whenever the spec expanded, even when
// a point then fails to plan, so Run can report the sweep's shape beside
// the error.
func plan(opt MatrixOptions, ro RunOptions) (*SweepSpec, []*matrixPlan, error) {
	if opt.Workers < 0 {
		return nil, nil, fmt.Errorf("core: workers %d must be >= 0 (0 = one per CPU, 1 = serial)", opt.Workers)
	}
	s, pts := &SweepSpec{Values: []string{""}}, []MatrixOptions{opt}
	if ro.Sweep != "" {
		var err error
		if s, err = ParseSweepLimit(ro.Sweep, ro.MaxPoints); err != nil {
			return nil, nil, err
		}
		if pts, err = s.PointOptions(opt); err != nil {
			return nil, nil, err
		}
	}
	plans := make([]*matrixPlan, len(pts))
	for i, po := range pts {
		p, err := planMatrix(po)
		if err != nil {
			return s, nil, s.pointErr(i, err)
		}
		plans[i] = p
	}
	return s, plans, nil
}

// pointErr names the failing point of a sweep. A matrix run (no spec)
// keeps the error's own text: its single point has no axis to name.
func (s *SweepSpec) pointErr(i int, err error) error {
	if s.Spec == "" {
		return err
	}
	return fmt.Errorf("core: sweep point %s = %s: %w", s.Axis, s.Values[i], err)
}

// Run is the one way to run simulations. It plans opt — expanded by
// ro.Sweep into per-point options, or as a one-point sweep when ro.Sweep
// is empty — and feeds every point's cells through one shared worker pool
// (opt.Workers wide; see scheduler.go): a point is a batch of cells, the
// pool claims cells in point-major order, and each point's matrix is
// assembled the moment its last cell finishes. Scheduling cannot change
// results — cells are independent deterministic simulations and assembly
// order is fixed — so the SweepResult is bit-identical at every worker
// count, cache on or off.
//
// With a cache attached, points whose configuration is already stored are
// served from disk up front (verified against the key's preimage) and
// completed points are persisted as the run goes. A failure to persist a
// point is reported through the progress stream (StatusStoreFailed),
// never as the run's error: the result is already in hand, and only a
// later resume pays for the missing entry by resimulating that point.
// Cancelling ctx stops the pool, cells in flight included (each within
// 65,536 events); the returned SweepResult then holds every point that
// completed, alongside the error — nothing finished is discarded, and a
// cached rerun of the same sweep resumes from there.
func Run(ctx context.Context, opt MatrixOptions, ro RunOptions) (*SweepResult, error) {
	s, plans, err := plan(opt, ro)
	if s == nil {
		return nil, err
	}
	res := &SweepResult{Spec: s.Spec, Axis: s.Axis, Expected: len(s.Values)}
	if err != nil {
		return res, err
	}
	st := &stream{send: ro.Progress, spec: s}

	// Serve cached points up front, in sweep order. A corrupt entry is
	// reported loudly and the point simulates fresh (rewriting a good
	// entry on completion).
	if ro.Cache != nil {
		for i, p := range plans {
			key, err := pointKeyFor(p)
			if err != nil {
				if errors.Is(err, ErrUncacheable) {
					continue
				}
				return res, s.pointErr(i, err)
			}
			p.key = &key
			m, err := ro.Cache.Load(key)
			if err != nil {
				st.emit(st.point(i, StatusCacheCorrupt, err))
				continue
			}
			if m != nil {
				p.matrix, p.cached = m, true
				st.emit(st.point(i, StatusCached, nil))
			}
		}
	}

	runErr := runPlans(ctx, plans, opt.Workers, st, ro.Cache)

	// Assemble every completed point, in sweep order — on success that is
	// all of them; after a cancel or a point failure it is the partial
	// result the caller (and the resume machinery) keeps.
	for i, p := range plans {
		if p.matrix != nil {
			res.Points = append(res.Points, &SweepPoint{Value: s.Values[i], Matrix: p.matrix, Cached: p.cached})
		}
	}
	if runErr != nil {
		return res, runErr
	}
	// A cell failure stops the pool from claiming new work, so the failing
	// point's remaining count may never reach zero and finish (which would
	// have seen the error via assemble) may never run for it — the error
	// then lives only in the plan's cell slots. Scan every point that did
	// not assemble, in sweep order, and report its first cell error (cell
	// slots are in matrix order, so the choice is deterministic under any
	// schedule that ran the same cells).
	for i, p := range plans {
		if p.matrix != nil {
			continue
		}
		for _, cerr := range p.errs {
			if cerr != nil {
				return res, s.pointErr(i, cerr)
			}
		}
	}
	return res, nil
}

// sweepColumns are the assembled table's per-cell quantities: total
// traffic (flit-hops), execution cycles, mean and worst packet latency
// over the measured window (cycles), the hottest directed link's
// utilization (percent of cycles busy), the wasted share of all traffic
// (percent of flit-hops), and the share of words fetched into the L1 that
// were never used (percent) — the load-latency and waste-vs-load curve
// data in one table. A sweep with at least one deflection-routed cell
// grows a trailing "Defl%" column (the share of link traversals that were
// deflected detours); sweeps without one keep the historical column set,
// which the sweep golden pins byte-for-byte.
var sweepColumns = []string{"Traffic", "Cycles", "MeanLat", "MaxLat", "Util%", "Waste%", "L1Waste%"}

// deflColumn is the conditional trailing column: deflected link
// traversals as a percentage of all traversals the fabric carried.
const deflColumn = "Defl%"

// SweepTable is the assembled sweep output: one row per
// (point, benchmark, protocol) cell with the curve quantities, in sweep
// order. Values are raw (not normalized to a baseline): saturation curves
// compare points of one configuration, not protocols against MESI.
type SweepTable struct {
	// Spec and Axis identify the sweep the table was assembled from.
	Spec string
	Axis string
	// Columns names the per-row quantities (see sweepColumns).
	Columns []string
	// Rows holds every (point, benchmark, protocol) cell, point-major in
	// sweep order.
	Rows []SweepRow
}

// SweepRow is one (point, benchmark, protocol) cell of a SweepTable.
type SweepRow struct {
	// Point is the sweep-axis value the cell was simulated at.
	Point string
	// Bench and Protocol key the cell inside the point's matrix.
	Bench    string
	Protocol string
	// Values holds the quantities named by SweepTable.Columns.
	Values []float64
}

// Table assembles the sweep's curve table from the per-point matrices.
// The Defl% column appears only when some cell ran the deflection router
// (a router=... sweep, or a base configuration pinning it), so tables of
// purely buffered sweeps are unchanged.
func (r *SweepResult) Table() *SweepTable {
	hasDefl := false
	for _, p := range r.Points {
		for _, bench := range p.Matrix.Benchmarks {
			for _, proto := range p.Matrix.Protocols {
				if res := p.Matrix.Get(bench, proto); res != nil && res.Net.Router == "deflection" {
					hasDefl = true
				}
			}
		}
	}
	cols := sweepColumns
	if hasDefl {
		cols = append(append([]string{}, sweepColumns...), deflColumn)
	}
	t := &SweepTable{Spec: r.Spec, Axis: r.Axis, Columns: cols}
	for _, p := range r.Points {
		m := p.Matrix
		for _, bench := range m.Benchmarks {
			for _, proto := range m.Protocols {
				res := m.Get(bench, proto)
				if res == nil {
					continue
				}
				l1waste := 0.0
				if total := float64(res.WasteTotal(waste.LevelL1)); total > 0 {
					l1waste = 100 * (1 - float64(res.Waste[waste.LevelL1][waste.Used])/total)
				}
				values := []float64{
					res.FlitHops.Total(),
					float64(res.ExecCycles),
					res.Net.LatencyMean,
					float64(res.Net.LatencyMax),
					res.Net.LinkUtilMax * 100,
					res.WasteShare * 100,
					l1waste,
				}
				if hasDefl {
					// Deflected share of all traversals: minimal flit-hops
					// (res.Total) plus the deflected detours; 0 for the
					// non-deflection cells of a router=... sweep.
					deflPct := 0.0
					if d := float64(res.Net.DeflectedHops); d > 0 {
						deflPct = 100 * d / (res.FlitHops.Total() + d)
					}
					values = append(values, deflPct)
				}
				t.Rows = append(t.Rows, SweepRow{
					Point:    p.Value,
					Bench:    bench,
					Protocol: proto,
					Values:   values,
				})
			}
		}
	}
	return t
}

// String renders the assembled table as aligned text, one block per sweep
// point.
func (t *SweepTable) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Sweep %s — one curve point per %s value\n", t.Spec, t.Axis)
	// Every text column's width is computed from its content, so long
	// composed protocol specs stay aligned.
	pointW, benchW, protoW := len(t.Axis), len("benchmark"), len("protocol")
	for _, r := range t.Rows {
		if len(r.Point) > pointW {
			pointW = len(r.Point)
		}
		if len(r.Bench) > benchW {
			benchW = len(r.Bench)
		}
		if len(r.Protocol) > protoW {
			protoW = len(r.Protocol)
		}
	}
	fmt.Fprintf(&b, "%-*s %-*s %-*s", pointW, t.Axis, benchW, "benchmark", protoW, "protocol")
	for _, c := range t.Columns {
		fmt.Fprintf(&b, " %12s", c)
	}
	b.WriteString("\n")
	prev := ""
	for _, r := range t.Rows {
		point := r.Point
		if point == prev {
			point = ""
		} else if prev != "" {
			b.WriteString("\n")
		}
		prev = r.Point
		fmt.Fprintf(&b, "%-*s %-*s %-*s", pointW, point, benchW, r.Bench, protoW, r.Protocol)
		for i, v := range r.Values {
			switch t.Columns[i] {
			case "Traffic", "Cycles", "MaxLat":
				fmt.Fprintf(&b, " %12.0f", v)
			default:
				fmt.Fprintf(&b, " %12.2f", v)
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}
