package core

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/memsys"
	"repro/internal/waste"
)

// Table is a rendered figure: one row per (benchmark, protocol) with
// stacked category values normalized to the benchmark's MESI baseline
// (percent), mirroring the paper's stacked bar charts. Raw tables (the
// congestion telemetry) carry unnormalized values instead and render
// without the percent marks and the Total column.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Raw     bool
	Rows    []TableRow
}

// TableRow is one bar of a figure.
type TableRow struct {
	Bench    string
	Protocol string
	Values   []float64 // percent of the MESI baseline
}

// Total returns the stacked height of the row.
func (r *TableRow) Total() float64 {
	var s float64
	for _, v := range r.Values {
		s += v
	}
	return s
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	// The protocol column fits the longest registry spec (composed
	// variants like DValidateL2+FlexL1), not just the canonical names.
	fmt.Fprintf(&b, "%-14s %-18s", "benchmark", "protocol")
	for _, c := range t.Columns {
		fmt.Fprintf(&b, " %14s", c)
	}
	if t.Raw {
		b.WriteString("\n")
	} else {
		fmt.Fprintf(&b, " %9s\n", "Total")
	}
	prev := ""
	for _, r := range t.Rows {
		bench := r.Bench
		if bench == prev {
			bench = ""
		} else if prev != "" {
			b.WriteString("\n")
		}
		prev = r.Bench
		fmt.Fprintf(&b, "%-14s %-18s", bench, r.Protocol)
		for _, v := range r.Values {
			if t.Raw {
				fmt.Fprintf(&b, " %14.2f", v)
			} else {
				fmt.Fprintf(&b, " %13.1f%%", v)
			}
		}
		if t.Raw {
			b.WriteString("\n")
		} else {
			fmt.Fprintf(&b, " %8.1f%%\n", r.Total())
		}
	}
	return b.String()
}

func (m *Matrix) eachRow(fill func(res, base *Result) []float64) []TableRow {
	var rows []TableRow
	for _, bench := range m.Benchmarks {
		base := m.Get(bench, "MESI")
		if base == nil {
			base = m.Get(bench, m.Protocols[0])
		}
		for _, proto := range m.Protocols {
			res := m.Get(bench, proto)
			if res == nil {
				continue
			}
			rows = append(rows, TableRow{Bench: bench, Protocol: proto, Values: fill(res, base)})
		}
	}
	return rows
}

func pct(v, base float64) float64 {
	if base == 0 {
		return 0
	}
	return v / base * 100
}

// Fig51a builds Figure 5.1a: overall network traffic (flit-hops) broken
// into LD/ST/WB/Overhead, normalized to MESI.
func (m *Matrix) Fig51a() *Table {
	t := &Table{
		ID:      "Fig 5.1a",
		Title:   "Overall network traffic (normalized flit-hops)",
		Columns: []string{"LD", "ST", "WB", "Overhead"},
	}
	t.Rows = m.eachRow(func(res, base *Result) []float64 {
		total := base.FlitHops.Total()
		return []float64{
			pct(res.FlitHops.ClassTotal(memsys.ClassLD), total),
			pct(res.FlitHops.ClassTotal(memsys.ClassST), total),
			pct(res.FlitHops.ClassTotal(memsys.ClassWB), total),
			pct(res.FlitHops.ClassTotal(memsys.ClassOVH), total),
		}
	})
	return t
}

var ldStColumns = []string{
	"Req Ctl", "Resp Ctl", "Resp L1 Used", "Resp L1 Waste", "Resp L2 Used", "Resp L2 Waste",
}

var ldStBuckets = []memsys.Bucket{
	memsys.BReqCtl, memsys.BRespCtl,
	memsys.BRespL1Used, memsys.BRespL1Waste,
	memsys.BRespL2Used, memsys.BRespL2Waste,
}

func (m *Matrix) classBreakdown(id, title string, class memsys.Class) *Table {
	t := &Table{ID: id, Title: title, Columns: ldStColumns}
	t.Rows = m.eachRow(func(res, base *Result) []float64 {
		total := base.FlitHops.ClassTotal(class)
		vals := make([]float64, len(ldStBuckets))
		for i, b := range ldStBuckets {
			vals[i] = pct(res.FlitHops[class][b], total)
		}
		return vals
	})
	return t
}

// Fig51b builds Figure 5.1b: load traffic breakdown, normalized to MESI's
// load traffic.
func (m *Matrix) Fig51b() *Table {
	return m.classBreakdown("Fig 5.1b", "LD network traffic breakdown", memsys.ClassLD)
}

// Fig51c builds Figure 5.1c: store traffic breakdown.
func (m *Matrix) Fig51c() *Table {
	return m.classBreakdown("Fig 5.1c", "ST network traffic breakdown", memsys.ClassST)
}

// Fig51d builds Figure 5.1d: writeback traffic breakdown.
func (m *Matrix) Fig51d() *Table {
	t := &Table{
		ID:      "Fig 5.1d",
		Title:   "WB network traffic breakdown",
		Columns: []string{"Control", "L2 Used", "L2 Waste", "Mem Used", "Mem Waste"},
	}
	buckets := []memsys.Bucket{
		memsys.BWBCtl, memsys.BWBL2Used, memsys.BWBL2Waste,
		memsys.BWBMemUsed, memsys.BWBMemWaste,
	}
	t.Rows = m.eachRow(func(res, base *Result) []float64 {
		total := base.FlitHops.ClassTotal(memsys.ClassWB)
		vals := make([]float64, len(buckets))
		for i, b := range buckets {
			vals[i] = pct(res.FlitHops[memsys.ClassWB][b], total)
		}
		return vals
	})
	return t
}

// Fig52 builds Figure 5.2: execution time broken into Compute / On-chip
// Hit / From MC / To MC / Mem / Sync, normalized to MESI.
func (m *Matrix) Fig52() *Table {
	t := &Table{
		ID:      "Fig 5.2",
		Title:   "Execution time (normalized)",
		Columns: []string{"Compute", "On-chip Hit", "From MC", "To MC", "Mem", "Sync"},
	}
	t.Rows = m.eachRow(func(res, base *Result) []float64 {
		total := float64(base.Time.Total())
		return []float64{
			pct(float64(res.Time.Busy), total),
			pct(float64(res.Time.OnChip), total),
			pct(float64(res.Time.FromMC), total),
			pct(float64(res.Time.ToMC), total),
			pct(float64(res.Time.Mem), total),
			pct(float64(res.Time.Sync), total),
		}
	})
	return t
}

// fetchWaste builds a Figure 5.3 panel: words fetched into a level,
// partitioned by waste category, normalized to MESI.
func (m *Matrix) fetchWaste(id, title string, level waste.Level, withExcess bool) *Table {
	cats := []waste.Category{
		waste.Used, waste.Fetch, waste.Write, waste.Invalidate, waste.Evict, waste.Unevicted,
	}
	cols := []string{"Used", "Fetch", "Write", "Invalidate", "Evict", "Unevicted"}
	if withExcess {
		cats = append(cats, waste.Excess)
		cols = append(cols, "Excess")
	}
	t := &Table{ID: id, Title: title, Columns: cols}
	t.Rows = m.eachRow(func(res, base *Result) []float64 {
		total := float64(base.WasteTotal(level))
		vals := make([]float64, len(cats))
		for i, c := range cats {
			vals[i] = pct(float64(res.Waste[level][c]), total)
		}
		return vals
	})
	return t
}

// Fig53a builds Figure 5.3a: L1 fetch waste.
func (m *Matrix) Fig53a() *Table {
	return m.fetchWaste("Fig 5.3a", "Words fetched into the L1 by waste category", waste.LevelL1, false)
}

// Fig53b builds Figure 5.3b: L2 fetch waste.
func (m *Matrix) Fig53b() *Table {
	return m.fetchWaste("Fig 5.3b", "Words fetched into the L2 (from memory) by waste category", waste.LevelL2, false)
}

// Fig53c builds Figure 5.3c: memory fetch waste, including the Excess
// waste the L2 Flex optimization drops at the memory controller.
func (m *Matrix) Fig53c() *Table {
	return m.fetchWaste("Fig 5.3c", "Words fetched from memory by waste category", waste.LevelMem, true)
}

// FigCongestion builds the congestion-telemetry table (not a paper
// figure): for each cell, the mean and worst packet latency over the
// measured window, the mean and hottest directed-link utilization
// (percent of cycles busy), the peak buffer occupancy (input-VC flits
// under "vc", local-queue flits under "deflection"), and the deflected
// link traversals (nonzero only under "deflection"). Values are raw, not
// normalized to MESI — latencies are only comparable within one router
// model, which the title records.
func (m *Matrix) FigCongestion() *Table {
	router := m.Router
	if router == "" {
		router = "ideal"
	}
	t := &Table{
		ID:      "Net",
		Title:   fmt.Sprintf("Congestion telemetry (router=%s, topology=%s)", router, m.Topology),
		Columns: []string{"Mean Lat", "Max Lat", "Link Util%", "Max Util%", "Peak VC", "Defl Hops"},
		Raw:     true,
	}
	t.Rows = m.eachRow(func(res, base *Result) []float64 {
		n := res.Net
		return []float64{
			n.LatencyMean,
			float64(n.LatencyMax),
			n.LinkUtilMean * 100,
			n.LinkUtilMax * 100,
			float64(n.PeakVCOccupancy),
			float64(n.DeflectedHops),
		}
	})
	return t
}

// figures is the one list of reproducible figures, in output order: the
// paper's eight plus the congestion-telemetry table, each with the second
// spelling it accepts and its builder.
var figures = []struct {
	id, alias string
	build     func(*Matrix) *Table
}{
	{"5.1a", "fig5.1a", (*Matrix).Fig51a},
	{"5.1b", "fig5.1b", (*Matrix).Fig51b},
	{"5.1c", "fig5.1c", (*Matrix).Fig51c},
	{"5.1d", "fig5.1d", (*Matrix).Fig51d},
	{"5.2", "fig5.2", (*Matrix).Fig52},
	{"5.3a", "fig5.3a", (*Matrix).Fig53a},
	{"5.3b", "fig5.3b", (*Matrix).Fig53b},
	{"5.3c", "fig5.3c", (*Matrix).Fig53c},
	{"net", "congestion", (*Matrix).FigCongestion},
}

// figure returns the builder of a figure id in either spelling, any case.
func figure(id string) (func(*Matrix) *Table, error) {
	key := strings.ToLower(strings.TrimSpace(id))
	for _, f := range figures {
		if key == f.id || key == f.alias {
			return f.build, nil
		}
	}
	return nil, fmt.Errorf("core: unknown figure %q (figures: %s)", id, strings.Join(FigureIDs(), ", "))
}

// ValidFigureID rejects unknown figure ids with the known list, so CLIs
// can fail fast before paying for a matrix run.
func ValidFigureID(id string) error {
	_, err := figure(id)
	return err
}

// Figure builds a figure table by the paper's figure id.
func (m *Matrix) Figure(id string) (*Table, error) {
	build, err := figure(id)
	if err != nil {
		return nil, err
	}
	return build(m), nil
}

// FigureIDs lists the reproducible figure ids: the paper's eight figures
// plus the congestion-telemetry table.
func FigureIDs() []string {
	ids := make([]string, len(figures))
	for i, f := range figures {
		ids[i] = f.id
	}
	return ids
}

// Summary holds the paper's headline averages (§5.1, §5.2.4, §7) as
// measured by a matrix, with the paper's own values for comparison.
type Summary struct {
	// Average traffic reductions (fraction, e.g. 0.395 = 39.5%).
	TrafficDBypFullVsMESI    float64 // paper: 0.395
	TrafficDBypFullVsMMemL1  float64 // paper: 0.352
	TrafficDBypFullVsDFlexL1 float64 // paper: 0.189
	TrafficDeNovoVsMESI      float64 // paper: 0.139
	TrafficMMemL1VsMESI      float64 // paper: 0.062
	// Average execution-time reductions.
	TimeDBypFullVsMESI   float64 // paper: 0.105
	TimeDBypFullVsMMemL1 float64 // paper: 0.071
	TimeMMemL1VsMESI     float64 // paper: 0.038
	// Remaining waste share of DBypFull traffic. paper: 0.088
	DBypFullWasteShare float64
	// MESI overhead share of total traffic. paper: 0.136
	MESIOverheadShare float64
	// MESI overhead split (fractions of overhead). paper: 0.653/0.261/0.044/0.043
	MESIOverheadUnblock float64
	MESIOverheadWBCtl   float64
	MESIOverheadInval   float64
	MESIOverheadAck     float64
	// NotRun lists the headline protocols the matrix did not run, in
	// figure order; every average that needs one of them reads 0 and
	// renders as "n/a".
	NotRun []string `json:",omitempty"`
}

// avgReduction averages 1 - a/b across benchmarks for a metric.
func (m *Matrix) avgReduction(protoA, protoB string, metric func(*Result) float64) float64 {
	var sum float64
	n := 0
	for _, bench := range m.Benchmarks {
		a, b := m.Get(bench, protoA), m.Get(bench, protoB)
		if a == nil || b == nil || metric(b) == 0 {
			continue
		}
		sum += 1 - metric(a)/metric(b)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func (m *Matrix) avgOf(proto string, metric func(*Result) float64) float64 {
	var sum float64
	n := 0
	for _, bench := range m.Benchmarks {
		if r := m.Get(bench, proto); r != nil {
			sum += metric(r)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Summarize computes the headline averages from a full matrix.
func (m *Matrix) Summarize() *Summary {
	traffic := func(r *Result) float64 { return r.FlitHops.Total() }
	time := func(r *Result) float64 { return float64(r.ExecCycles) }
	s := &Summary{
		TrafficDBypFullVsMESI:    m.avgReduction("DBypFull", "MESI", traffic),
		TrafficDBypFullVsMMemL1:  m.avgReduction("DBypFull", "MMemL1", traffic),
		TrafficDBypFullVsDFlexL1: m.avgReduction("DBypFull", "DFlexL1", traffic),
		TrafficDeNovoVsMESI:      m.avgReduction("DeNovo", "MESI", traffic),
		TrafficMMemL1VsMESI:      m.avgReduction("MMemL1", "MESI", traffic),
		TimeDBypFullVsMESI:       m.avgReduction("DBypFull", "MESI", time),
		TimeDBypFullVsMMemL1:     m.avgReduction("DBypFull", "MMemL1", time),
		TimeMMemL1VsMESI:         m.avgReduction("MMemL1", "MESI", time),
		DBypFullWasteShare:       m.avgOf("DBypFull", func(r *Result) float64 { return r.WasteShare }),
	}
	for _, p := range []string{"MESI", "MMemL1", "DeNovo", "DFlexL1", "DBypFull"} {
		if !slices.Contains(m.Protocols, p) {
			s.NotRun = append(s.NotRun, p)
		}
	}
	s.MESIOverheadShare = m.avgOf("MESI", func(r *Result) float64 {
		t := r.FlitHops.Total()
		if t == 0 {
			return 0
		}
		return r.FlitHops.ClassTotal(memsys.ClassOVH) / t
	})
	var unb, wbc, inv, ack, ovh float64
	for _, bench := range m.Benchmarks {
		if r := m.Get(bench, "MESI"); r != nil {
			unb += r.FlitHops[memsys.ClassOVH][memsys.BOvhUnblock]
			wbc += r.FlitHops[memsys.ClassOVH][memsys.BOvhWBCtl]
			inv += r.FlitHops[memsys.ClassOVH][memsys.BOvhInval]
			ack += r.FlitHops[memsys.ClassOVH][memsys.BOvhAck]
			ovh += r.FlitHops.ClassTotal(memsys.ClassOVH)
		}
	}
	if ovh > 0 {
		s.MESIOverheadUnblock = unb / ovh
		s.MESIOverheadWBCtl = wbc / ovh
		s.MESIOverheadInval = inv / ovh
		s.MESIOverheadAck = ack / ovh
	}
	return s
}

// String renders the summary as paper-vs-measured lines. A line that
// needs a protocol the matrix did not run says so instead of a number.
func (s *Summary) String() string {
	var b strings.Builder
	line := func(name string, measured, paper float64, needs ...string) {
		val := fmt.Sprintf("%6.1f%%", measured*100)
		missing := slices.DeleteFunc(needs, func(p string) bool { return !slices.Contains(s.NotRun, p) })
		if len(missing) > 0 {
			val = "n/a (" + strings.Join(missing, ", ") + " not run)"
		}
		fmt.Fprintf(&b, "%-42s measured %s   paper %6.1f%%\n", name, val, paper*100)
	}
	b.WriteString("Headline averages (paper §5.1, §5.2.4, §7):\n")
	line("traffic: DBypFull vs MESI", s.TrafficDBypFullVsMESI, 0.395, "DBypFull", "MESI")
	line("traffic: DBypFull vs MMemL1", s.TrafficDBypFullVsMMemL1, 0.352, "DBypFull", "MMemL1")
	line("traffic: DBypFull vs DFlexL1", s.TrafficDBypFullVsDFlexL1, 0.189, "DBypFull", "DFlexL1")
	line("traffic: DeNovo vs MESI", s.TrafficDeNovoVsMESI, 0.139, "DeNovo", "MESI")
	line("traffic: MMemL1 vs MESI", s.TrafficMMemL1VsMESI, 0.062, "MMemL1", "MESI")
	line("exec time: DBypFull vs MESI", s.TimeDBypFullVsMESI, 0.105, "DBypFull", "MESI")
	line("exec time: DBypFull vs MMemL1", s.TimeDBypFullVsMMemL1, 0.071, "DBypFull", "MMemL1")
	line("exec time: MMemL1 vs MESI", s.TimeMMemL1VsMESI, 0.038, "MMemL1", "MESI")
	line("DBypFull remaining waste share", s.DBypFullWasteShare, 0.088, "DBypFull")
	line("MESI overhead share of traffic", s.MESIOverheadShare, 0.136, "MESI")
	line("MESI overhead: unblock", s.MESIOverheadUnblock, 0.653, "MESI")
	line("MESI overhead: WB control", s.MESIOverheadWBCtl, 0.261, "MESI")
	line("MESI overhead: invalidations", s.MESIOverheadInval, 0.044, "MESI")
	line("MESI overhead: acks", s.MESIOverheadAck, 0.043, "MESI")
	return b.String()
}
