package waste

import (
	"fmt"
	"math/bits"
	"slices"
	"testing"
)

// refProfiler is the append-only profiler the recycling one replaced: it
// keeps every instance's record, classified or not, for the whole run, so
// a classified id can never alias a later instance. The line entry points
// are the per-word loops they replace in the protocol handlers (the
// share is attached after the arrivals, as Traffic.Data did).
type refProfiler struct {
	recs       []refInst
	measuring  bool
	onClassify ClassifyFunc
	open       map[uint32][]uint64 // open memory instances per address
}

type refInst struct {
	addr     uint32
	share    float32
	refs     int32
	level    Level
	cat      Category
	class    uint8
	measured bool
}

func newRefProfiler() *refProfiler {
	return &refProfiler{recs: make([]refInst, 1), open: map[uint32][]uint64{}}
}

func (p *refProfiler) new(level Level, addr uint32) uint64 {
	p.recs = append(p.recs, refInst{addr: addr, level: level, measured: p.measuring})
	return uint64(len(p.recs) - 1)
}

func (p *refProfiler) classify(id uint64, cat Category) {
	if id == 0 {
		return
	}
	in := &p.recs[id]
	if in.cat != Open {
		return
	}
	in.cat = cat
	if p.onClassify != nil {
		p.onClassify(in.level, in.class, cat, float64(in.share), in.measured)
	}
	if in.level == LevelMem {
		ids := p.open[in.addr]
		if i := slices.Index(ids, id); i >= 0 {
			ids[i] = ids[len(ids)-1]
			p.open[in.addr] = ids[:len(ids)-1]
		}
	}
}

func (p *refProfiler) arrival(level Level, addr uint32, present bool) uint64 {
	id := p.new(level, addr)
	if present {
		p.classify(id, Fetch)
	}
	return id
}

func (p *refProfiler) setTraffic(id uint64, class uint8, share float64) {
	if id != 0 {
		p.recs[id].class = class
		p.recs[id].share += float32(share)
	}
}

func (p *refProfiler) memFetch(addr uint32, present bool) uint64 {
	id := p.new(LevelMem, addr)
	if present {
		p.classify(id, Fetch)
		return id
	}
	p.open[addr] = append(p.open[addr], id)
	return id
}

func (p *refProfiler) memAddRef(id uint64) {
	if id != 0 {
		p.recs[id].refs++
	}
}

func (p *refProfiler) memRelease(id uint64, invalidated bool) {
	if id == 0 {
		return
	}
	in := &p.recs[id]
	if in.refs > 0 {
		in.refs--
	}
	if in.refs == 0 && in.cat == Open {
		if invalidated {
			p.classify(id, Invalidate)
		} else {
			p.classify(id, Evict)
		}
	}
}

func (p *refProfiler) memStore(addr uint32) {
	for _, id := range slices.Clone(p.open[addr]) {
		p.classify(id, Write)
	}
}

func (p *refProfiler) fill(level Level, base uint32, mask, present uint16, class uint8, share float64, inst, minst []uint64, ref bool) {
	var ids []uint64
	for w := 0; w < 16; w++ {
		if mask&(1<<w) == 0 {
			continue
		}
		id := p.arrival(level, base+uint32(w)*4, present&(1<<w) != 0)
		ids = append(ids, id)
		if present&(1<<w) == 0 {
			inst[w] = id
			if ref {
				p.memAddRef(minst[w])
			}
		}
	}
	for _, id := range ids {
		p.setTraffic(id, class, share)
	}
}

func (p *refProfiler) release(mask uint16, cat Category, inst, minst []uint64, comm bool) {
	for w := 0; w < 16; w++ {
		if mask&(1<<w) == 0 {
			continue
		}
		p.classify(inst[w], cat)
		if minst != nil && minst[w] != 0 {
			p.memRelease(minst[w], comm)
			minst[w] = 0
		}
	}
}

func (p *refProfiler) finish() {
	for id := range p.recs[1:] {
		p.classify(uint64(id+1), Unevicted)
	}
}

// classified is one event of a profiler's classification stream.
type classified struct {
	level    Level
	class    uint8
	cat      Category
	share    float64
	measured bool
}

// recycleLine is a cache line's id arrays, one copy per profiler.
type recycleLine struct {
	inst, minst [2][16]uint64 // [0] recycling profiler, [1] reference
}

// FuzzProfilerRecycle drives random sequences of every profiler entry
// point, stale ids included, through the recycling profiler and the
// append-only reference, and requires the same classification stream in
// the same order. The one exception is Finish's Unevicted batch, which the
// recycling profiler emits in table order: it is compared as a multiset.
// Every share is a multiple of a quarter flit-hop, so the traffic
// recorder's bucket sums do not depend on that order.
func FuzzProfilerRecycle(f *testing.F) {
	f.Add([]byte{12, 0, 0, 1, 0, 1, 0, 8, 0, 1, 4, 4, 0, 1})
	f.Add([]byte{12, 2, 3, 0, 11, 0, 3, 0, 9, 0, 0, 255, 255, 1, 0, 6, 1, 10, 0, 255, 255, 2, 1, 1})
	f.Add([]byte{2, 1, 0, 5, 0, 5, 0, 6, 0, 0, 7, 1, 2, 1, 0, 6, 0, 1, 12, 0, 5, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		got, want := runRecycle(ops)
		if len(got.stream) != len(want.stream) || len(got.batch) != len(want.batch) {
			t.Fatalf("%d classifications then %d at Finish, reference %d then %d",
				len(got.stream), len(got.batch), len(want.stream), len(want.batch))
		}
		for i := range got.stream {
			if got.stream[i] != want.stream[i] {
				t.Fatalf("classification %d: %+v, reference %+v", i, got.stream[i], want.stream[i])
			}
		}
		if !slices.Equal(sortedEvents(got.batch), sortedEvents(want.batch)) {
			t.Fatalf("Finish batch %+v, reference %+v", got.batch, want.batch)
		}
		if got.made != want.made || got.counts != want.counts {
			t.Fatalf("made %d counts %v, reference made %d counts %v", got.made, got.counts, want.made, want.counts)
		}
		if got.peak > got.made {
			t.Fatalf("peak live %d above the %d instances made", got.peak, got.made)
		}
	})
}

func sortedEvents(es []classified) []classified {
	es = slices.Clone(es)
	slices.SortFunc(es, func(a, b classified) int {
		return cmpKey(a) - cmpKey(b)
	})
	return es
}

func cmpKey(e classified) int {
	m := 0
	if e.measured {
		m = 1
	}
	return ((int(e.level)*4+int(e.class))*16+int(e.cat))*4096*2 + int(e.share*4)*2 + m
}

type recycleRun struct {
	stream, batch []classified
	counts        [3][8]uint64
	made, peak    int
}

// runRecycle decodes ops and applies each to both profilers. An op is one
// byte (mod 13) and a fixed number of argument bytes (missing ones read
// as 0); instances are named by handles, each pairing the two profilers'
// ids for one instance, so an op can reach a classified (stale) id.
func runRecycle(ops []byte) (got, want recycleRun) {
	p, r := NewProfiler(), newRefProfiler()
	gotEvents, wantEvents := &got.stream, &want.stream
	p.OnClassify(func(l Level, c uint8, cat Category, share float64, m bool) {
		*gotEvents = append(*gotEvents, classified{l, c, cat, share, m})
	})
	r.onClassify = func(l Level, c uint8, cat Category, share float64, m bool) {
		*wantEvents = append(*wantEvents, classified{l, c, cat, share, m})
	}
	var handles [][2]uint64
	var lines [2]recycleLine
	arg := func(i int) byte {
		if i < len(ops) {
			return ops[i]
		}
		return 0
	}
	handle := func(b byte) [2]uint64 {
		if i := int(b) % (len(handles) + 1); i < len(handles) {
			return handles[i]
		}
		return [2]uint64{}
	}
	addr := func(b byte) uint32 { return uint32(b%16) * 4 }
	mask := func(i int) uint16 { return uint16(arg(i)) | uint16(arg(i+1))<<8 }
	cats := []Category{Used, Write, Fetch, Invalidate, Evict, Unevicted, Excess}
	for i := 0; i < len(ops); {
		op, a := ops[i]%13, i+1
		switch op {
		case 0, 1:
			level, present := Level(op), arg(a+1)&1 != 0
			var n uint64
			if level == LevelL1 {
				n = p.L1Arrival(addr(arg(a)), present)
			} else {
				n = fillWord(p, level, addr(arg(a)), present)
			}
			handles = append(handles, [2]uint64{n, r.arrival(level, addr(arg(a)), present)})
			i = a + 2
		case 2:
			present := arg(a+1)&1 != 0
			handles = append(handles, [2]uint64{p.MemFetch(addr(arg(a)), present), r.memFetch(addr(arg(a)), present)})
			i = a + 2
		case 3:
			n := r.new(LevelMem, addr(arg(a)))
			r.classify(n, Excess)
			handles = append(handles, [2]uint64{p.MemExcess(addr(arg(a))), n})
			i = a + 1
		case 4:
			h := handle(arg(a + 1))
			release := func(cat Category) func(uint64) { return func(id uint64) { releaseWord(p, id, cat) } }
			wrappers := []func(uint64){p.L1Load, p.L1Store, release(Invalidate), release(Evict), p.L2Served, release(Write), release(Evict), p.MemLoad}
			refCats := []Category{Used, Write, Invalidate, Evict, Used, Write, Evict, Used}
			k := int(arg(a)) % len(wrappers)
			wrappers[k](h[0])
			r.classify(h[1], refCats[k])
			i = a + 2
		case 5:
			h := handle(arg(a))
			p.MemAddRef(h[0])
			r.memAddRef(h[1])
			i = a + 1
		case 6:
			h, comm := handle(arg(a)), arg(a+1)&1 != 0
			p.MemRelease(h[0], comm)
			r.memRelease(h[1], comm)
			i = a + 2
		case 7:
			p.MemStore(addr(arg(a)))
			r.memStore(addr(arg(a)))
			i = a + 1
		case 8:
			h, class, share := handle(arg(a)), arg(a+1)%4, float64(arg(a+2)%8)/4
			p.SetTraffic(h[0], class, share)
			r.setTraffic(h[1], class, share)
			i = a + 3
		case 9:
			ln := &lines[arg(a)%2]
			base := uint32(arg(a)%2) * 64
			level := Level(arg(a+1) & 1)
			m, present := mask(a+2), mask(a+4)
			class, share, ref := arg(a+6)%4, float64(arg(a+6)/4%8)/4, arg(a+7)&1 != 0
			p.Fill(level, base, m, present, class, share, ln.inst[0][:], ln.minst[0][:], ref)
			r.fill(level, base, m, present, class, share, ln.inst[1][:], ln.minst[1][:], ref)
			for fresh := m &^ present; fresh != 0; fresh &= fresh - 1 {
				w := bits.TrailingZeros16(fresh)
				handles = append(handles, [2]uint64{ln.inst[0][w], ln.inst[1][w]})
			}
			i = a + 8
		case 10:
			ln := &lines[arg(a)%2]
			m, cat, comm := mask(a+1), cats[int(arg(a+3))%len(cats)], arg(a+4)&1 != 0
			if arg(a+4)&2 != 0 {
				p.Release(m, cat, ln.inst[0][:], nil, comm)
				r.release(m, cat, ln.inst[1][:], nil, comm)
			} else {
				p.Release(m, cat, ln.inst[0][:], ln.minst[0][:], comm)
				r.release(m, cat, ln.inst[1][:], ln.minst[1][:], comm)
			}
			i = a + 5
		case 11:
			ln, w, h := &lines[arg(a)%2], arg(a+1)%16, handle(arg(a+2))
			ln.minst[0][w], ln.minst[1][w] = h[0], h[1]
			i = a + 3
		case 12:
			p.StartMeasurement()
			r.measuring = true
			i = a
		}
	}
	gotEvents, wantEvents = &got.batch, &want.batch
	p.Finish()
	r.finish()
	got.counts, got.made, got.peak = p.Snapshot(), p.Instances(), p.PeakLive()
	for _, e := range append(slices.Clone(want.stream), want.batch...) {
		if e.measured {
			want.counts[e.level][e.cat]++
		}
	}
	want.made = len(r.recs) - 1
	return got, want
}

// TestStaleIDMissesNextTenant pins the case a recycled slot is most
// exposed to: an instance classified at arrival frees its slot at once,
// the next instance takes it, and a share attached through the first id
// afterwards must not land on the second.
func TestStaleIDMissesNextTenant(t *testing.T) {
	p := newMeasuring()
	var shares []float64
	p.OnClassify(func(_ Level, _ uint8, _ Category, share float64, _ bool) { shares = append(shares, share) })
	a := p.L1Arrival(0, true)
	b := p.L1Arrival(4, false)
	if uint32(a) != uint32(b) {
		t.Fatalf("ids %#x and %#x: the second instance did not reuse the first's slot", a, b)
	}
	p.SetTraffic(a, 1, 1)
	p.L1Load(b)
	if want := []float64{0, 0}; !slices.Equal(shares, want) {
		t.Fatalf("shares %v, want %v: a stale id reached the slot's next tenant", shares, want)
	}
	if p.Count(LevelL1, Fetch) != 1 || p.Count(LevelL1, Used) != 1 {
		t.Fatalf("counts %v", p.Snapshot()[LevelL1])
	}
}

// TestFillReleaseMatchPerWordCalls checks the line entry points against
// the per-word calls on one line: the ids they store, the memory
// references they take and drop, and the shares they report.
func TestFillReleaseMatchPerWordCalls(t *testing.T) {
	for _, present := range []uint16{0, 0x00f0} {
		t.Run(fmt.Sprintf("present=%#04x", present), func(t *testing.T) {
			got, want := runRecycle(fillReleaseOps(present))
			if !slices.Equal(got.stream, want.stream) {
				t.Fatalf("stream %+v\nreference %+v", got.stream, want.stream)
			}
			if bits.OnesCount16(present) != int(got.counts[LevelL1][Fetch]) {
				t.Fatalf("Fetch count %d, want %d", got.counts[LevelL1][Fetch], bits.OnesCount16(present))
			}
		})
	}
}

// fillReleaseOps encodes: measure; fetch two memory words; give line 0's
// words 0 and 1 those memory instances; fill line 0 at L1 with all 16
// words (share 1, class 2, with references); release it as Invalidate.
func fillReleaseOps(present uint16) []byte {
	return []byte{
		12,
		2, 0, 0, 2, 1, 0,
		11, 0, 0, 0, 11, 0, 1, 1,
		9, 0, 0, 0xff, 0xff, byte(present), byte(present >> 8), 2 + 4*4, 1,
		10, 0, 0xff, 0xff, 3, 1,
	}
}
