package workloads

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/memsys"
)

// tinyCatalog builds the six benchmarks at Tiny scale, in Names order.
func tinyCatalog() []memsys.Program {
	var progs []memsys.Program
	for _, name := range Names() {
		progs = append(progs, MustByName(name, Tiny, 16))
	}
	return progs
}

// registryTinyPrograms builds every registry workload — the six ported
// benchmarks, the synthetic patterns at their defaults, and the preset
// parameter variants — so the generic Program-contract tests cover the
// synthetic axis with the same rigor as the benchmarks.
func registryTinyPrograms() []memsys.Program {
	var out []memsys.Program
	for _, spec := range RegistryWorkloads() {
		out = append(out, MustByName(spec, Tiny, 16))
	}
	return out
}

func collect(p memsys.Program, phase, thread int) []memsys.Op {
	var ops []memsys.Op
	p.EmitOps(phase, thread, func(o memsys.Op) { ops = append(ops, o) })
	return ops
}

func TestCatalogNamesAndOrder(t *testing.T) {
	progs := tinyCatalog()
	names := Names()
	if len(progs) != 6 || len(names) != 6 {
		t.Fatalf("catalog size %d / names %d", len(progs), len(names))
	}
	for i, p := range progs {
		if p.Name() != names[i] {
			t.Errorf("catalog[%d] = %q, want %q", i, p.Name(), names[i])
		}
	}
	if _, err := ByName("radix", Tiny, 16); err != nil {
		t.Fatalf("ByName(radix): %v", err)
	}
	if _, err := ByName("nope", Tiny, 16); err == nil {
		t.Fatal("ByName(nope) did not error")
	}
}

// ByName's dispatch must cover Names(): every listed name constructs a
// program reporting that name, the result agrees with the benchmark's own
// constructor, and anything else is a loud error (regression for the
// silent nil return that let callers deref or skip unknown names).
func TestByNameCoversExactlyNames(t *testing.T) {
	for i, name := range Names() {
		p, err := ByName(name, Tiny, 16)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Fatalf("ByName(%q) built %q", name, p.Name())
		}
		direct := benchmarks[i].ctor(Tiny, 16)
		if p.Name() != direct.Name() || p.FootprintBytes() != direct.FootprintBytes() {
			t.Fatalf("ByName(%q) disagrees with its constructor", name)
		}
	}
	for _, bogus := range []string{"", "fft", "lu", "Radix", "kdtree", "nope", "FTT"} {
		p, err := ByName(bogus, Tiny, 16)
		if err == nil {
			t.Fatalf("ByName(%q) = %v, want a loud unknown-benchmark error", bogus, p)
		}
		if !strings.Contains(err.Error(), "unknown benchmark") {
			t.Fatalf("ByName(%q) error %q does not name the failure", bogus, err)
		}
	}
}

func TestAllProgramsBasicContract(t *testing.T) {
	for _, p := range registryTinyPrograms() {
		p := p
		t.Run(p.Name(), func(t *testing.T) {
			if p.Threads() != 16 {
				t.Fatalf("threads = %d", p.Threads())
			}
			if p.Phases() <= p.WarmupPhases() {
				t.Fatalf("no measured phases: %d total, %d warmup", p.Phases(), p.WarmupPhases())
			}
			if p.FootprintBytes() == 0 || p.FootprintBytes()%memsys.LineBytes != 0 {
				t.Fatalf("footprint %d not line-aligned", p.FootprintBytes())
			}
			if _, err := memsys.NewRegionTable(p.Regions()); err != nil {
				t.Fatalf("regions invalid: %v", err)
			}
			total := 0
			for ph := 0; ph < p.Phases(); ph++ {
				for th := 0; th < p.Threads(); th++ {
					total += len(collect(p, ph, th))
				}
				for _, id := range p.WrittenRegions(ph) {
					found := false
					for _, r := range p.Regions() {
						if r.ID == id {
							found = true
						}
					}
					if !found {
						t.Fatalf("phase %d declares unknown written region %d", ph, id)
					}
				}
			}
			if total == 0 {
				t.Fatal("program emits no ops")
			}
		})
	}
}

func TestAddressesInFootprintAndAligned(t *testing.T) {
	for _, p := range registryTinyPrograms() {
		p := p
		t.Run(p.Name(), func(t *testing.T) {
			fp := p.FootprintBytes()
			for ph := 0; ph < p.Phases(); ph++ {
				for th := 0; th < p.Threads(); th++ {
					for _, op := range collect(p, ph, th) {
						if op.Kind == memsys.OpCompute {
							continue
						}
						if op.Addr%4 != 0 {
							t.Fatalf("phase %d: unaligned address %#x", ph, op.Addr)
						}
						if op.Addr >= fp {
							t.Fatalf("phase %d: address %#x outside footprint %#x", ph, op.Addr, fp)
						}
					}
				}
			}
		})
	}
}

func TestDeterministicEmission(t *testing.T) {
	for _, name := range Names() {
		a, b := MustByName(name, Tiny, 16), MustByName(name, Tiny, 16)
		for ph := 0; ph < a.Phases(); ph++ {
			for th := 0; th < a.Threads(); th++ {
				oa, ob := collect(a, ph, th), collect(b, ph, th)
				if len(oa) != len(ob) {
					t.Fatalf("%s phase %d thread %d: lengths differ", name, ph, th)
				}
				for i := range oa {
					if oa[i] != ob[i] {
						t.Fatalf("%s phase %d thread %d op %d differs", name, ph, th, i)
					}
				}
			}
		}
	}
}

// TestDataRaceFreedom verifies the DeNovo prerequisite: within any phase,
// an address written by one thread is neither read nor written by another.
func TestDataRaceFreedom(t *testing.T) {
	for _, p := range registryTinyPrograms() {
		p := p
		t.Run(p.Name(), func(t *testing.T) {
			for ph := 0; ph < p.Phases(); ph++ {
				writer := map[uint32]int{}
				reader := map[uint32]int{} // representative reader
				for th := 0; th < p.Threads(); th++ {
					for _, op := range collect(p, ph, th) {
						switch op.Kind {
						case memsys.OpStore:
							if w, ok := writer[op.Addr]; ok && w != th {
								t.Fatalf("phase %d: %#x written by threads %d and %d", ph, op.Addr, w, th)
							}
							writer[op.Addr] = th
						case memsys.OpLoad:
							if _, ok := reader[op.Addr]; !ok {
								reader[op.Addr] = th
							}
						}
					}
				}
				for addr, w := range writer {
					for th := 0; th < p.Threads(); th++ {
						if th == w {
							continue
						}
						// Re-scan this thread for reads of addr only if some
						// thread read it at all (cheap pre-filter).
						if _, any := reader[addr]; !any {
							continue
						}
					}
				}
				// Full read-write conflict check.
				readers := map[uint32]map[int]bool{}
				for th := 0; th < p.Threads(); th++ {
					for _, op := range collect(p, ph, th) {
						if op.Kind != memsys.OpLoad {
							continue
						}
						if readers[op.Addr] == nil {
							readers[op.Addr] = map[int]bool{}
						}
						readers[op.Addr][th] = true
					}
				}
				for addr, w := range writer {
					for th := range readers[addr] {
						if th != w {
							t.Fatalf("phase %d: %#x written by %d, read by %d", ph, addr, w, th)
						}
					}
				}
			}
		})
	}
}

func TestWorkDistribution(t *testing.T) {
	// Parallel phases must involve most threads (not everything on thread 0).
	for _, p := range registryTinyPrograms() {
		p := p
		t.Run(p.Name(), func(t *testing.T) {
			parallelPhases := 0
			for ph := 0; ph < p.Phases(); ph++ {
				active := 0
				for th := 0; th < p.Threads(); th++ {
					if len(collect(p, ph, th)) > 0 {
						active++
					}
				}
				if active > p.Threads()/2 {
					parallelPhases++
				}
			}
			if parallelPhases == 0 {
				t.Fatal("no parallel phases")
			}
		})
	}
}

func TestRadixIsARealSort(t *testing.T) {
	r := NewRadix(Tiny, 16)
	final := r.KeysAt(radixIters)
	// After sorting by the two lowest 10-bit digits of 20-bit keys, the
	// array must be fully sorted.
	if !sort.SliceIsSorted(final, func(i, j int) bool { return final[i] < final[j] }) {
		t.Fatal("radix permutation does not sort the keys")
	}
	// And it must be a permutation of the initial keys.
	a := append([]uint32(nil), r.KeysAt(0)...)
	b := append([]uint32(nil), final...)
	sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("radix lost or duplicated keys")
		}
	}
}

func TestRadixScatterExceedsWriteCombining(t *testing.T) {
	// The permutation phase must write to far more than 32 distinct lines
	// per thread before revisiting (the paper's §5.2.2 store-control
	// blowup). Count distinct destination lines in thread 0's permute ops.
	r := NewRadix(Tiny, 16)
	lines := map[uint32]bool{}
	for _, op := range collect(r, 5, 0) { // measured permute phase
		if op.Kind == memsys.OpStore {
			lines[memsys.LineOf(op.Addr)] = true
		}
	}
	if len(lines) < 200 {
		t.Fatalf("permute touches only %d lines; need scatter >> 32", len(lines))
	}
}

func TestBarnesLayoutMatchesPaper(t *testing.T) {
	b := NewBarnes(Tiny, 16)
	var bodies, cells *memsys.Region
	rt, _ := memsys.NewRegionTable(b.Regions())
	for _, r := range rt.All() {
		r := r
		switch r.Name {
		case "bodies":
			bodies = &r
		case "cells":
			cells = &r
		}
	}
	// Body records must not be a multiple of the cache-line size.
	if bodies.StrideWords*4%memsys.LineBytes == 0 {
		t.Fatal("body stride is line-aligned; paper requires straddling records")
	}
	if len(bodies.CommOffsets) == 0 || len(cells.CommOffsets) == 0 {
		t.Fatal("Flex communication regions missing")
	}
	// Communication region smaller than the record (that is the Flex win).
	if len(bodies.CommOffsets) >= int(bodies.StrideWords) {
		t.Fatal("body comm region covers whole record; no Flex benefit")
	}
}

func TestKDTreeEdgeCommSpansRecords(t *testing.T) {
	k := NewKDTree(Tiny, 16)
	var edges *memsys.Region
	for _, r := range k.Regions() {
		if r.Name == "edges" {
			rr := r
			edges = &rr
		}
	}
	if edges == nil || !edges.Bypass {
		t.Fatal("edges region missing or not bypassed")
	}
	max := uint16(0)
	for _, o := range edges.CommOffsets {
		if o > max {
			max = o
		}
	}
	if max < edges.StrideWords {
		t.Fatal("edge comm region does not prefetch into the next record")
	}
	if len(edges.CommOffsets) > 16 {
		t.Fatal("edge comm region exceeds the 64B packet cap")
	}
}

func TestFluidCellsUnderfilled(t *testing.T) {
	f := NewFluidanimate(Tiny, 16)
	full, total := 0, 0
	for _, c := range f.counts {
		total++
		if c >= fluidSlots {
			full++
		}
	}
	if full*2 >= total {
		t.Fatal("most cells full; paper requires mostly-underfilled cells")
	}
}

func TestBypassAnnotationsMatchPaper(t *testing.T) {
	// §5.2.1: bypass applies to fluidanimate, FFT, radix and kD-tree only.
	want := map[string]bool{
		"fluidanimate": true, "FFT": true, "radix": true, "kD-tree": true,
		"LU": false, "barnes": false,
	}
	for _, p := range tinyCatalog() {
		has := false
		for _, r := range p.Regions() {
			if r.Bypass {
				has = true
			}
		}
		if has != want[p.Name()] {
			t.Errorf("%s: bypass=%v, want %v", p.Name(), has, want[p.Name()])
		}
	}
}

func TestFlexAnnotationsMatchPaper(t *testing.T) {
	// §5.2.1: Flex is only applicable to Barnes-Hut and kD-tree.
	want := map[string]bool{
		"barnes": true, "kD-tree": true,
		"LU": false, "FFT": false, "radix": false, "fluidanimate": false,
	}
	for _, p := range tinyCatalog() {
		has := false
		for _, r := range p.Regions() {
			if len(r.CommOffsets) > 0 && len(r.CommOffsets) < int(r.StrideWords) ||
				(len(r.CommOffsets) > 0 && r.StrideWords > 0 && len(r.CommOffsets) != int(r.StrideWords)) {
				has = true
			}
		}
		if has != want[p.Name()] {
			t.Errorf("%s: flex=%v, want %v", p.Name(), has, want[p.Name()])
		}
	}
}

func TestSpanCoversAll(t *testing.T) {
	for _, n := range []int{0, 1, 15, 16, 17, 100} {
		covered := 0
		prevHi := 0
		for t1 := 0; t1 < 16; t1++ {
			lo, hi := span(n, 16, t1)
			if lo < prevHi {
				t.Fatalf("span overlap at thread %d", t1)
			}
			covered += hi - lo
			prevHi = hi
		}
		if covered != n {
			t.Fatalf("span covers %d of %d", covered, n)
		}
	}
}

func TestSizesGrowMonotonically(t *testing.T) {
	for _, spec := range RegistryWorkloads() {
		tiny := MustByName(spec, Tiny, 16).FootprintBytes()
		small := MustByName(spec, Small, 16).FootprintBytes()
		if small <= tiny {
			t.Errorf("%s: small footprint %d <= tiny %d", spec, small, tiny)
		}
	}
}
