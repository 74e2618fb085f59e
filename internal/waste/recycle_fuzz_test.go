package waste

import (
	"fmt"
	"math/bits"
	"slices"
	"testing"
)

// refProfiler is the append-only profiler the recycling one replaced: it
// keeps every instance's record, classified or not, for the whole run, so
// a classified id can never alias a later instance, and its cache words
// hold ids, not the instances themselves. The line entry points are the
// per-word loops they replace in the protocol handlers; a word's class and
// share are attached when its instance is made.
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

func (p *refProfiler) fill(level Level, mask, present uint16, class uint8, share float64, inst, minst []uint64, ref bool) {
	for w := 0; w < 16; w++ {
		if mask&(1<<w) == 0 {
			continue
		}
		id := p.new(level, 0)
		p.recs[id].class, p.recs[id].share = class, float32(share)
		if present&(1<<w) != 0 {
			p.classify(id, Fetch)
			continue
		}
		inst[w] = id
		if ref {
			p.memAddRef(minst[w])
		}
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

// recycleLine is a cache line's instance words, one copy per profiler:
// the recycling profiler's open words and the reference's ids.
type recycleLine struct {
	inst, minst [2][16]uint64 // [0] recycling profiler, [1] reference
}

// wordRef names a cache word holding an L1 or L2 instance: the recycling
// profiler's word, as a one-word slice, and where the reference keeps the
// id of the word's instance.
type wordRef struct {
	got []uint64
	ref *uint64
}

// FuzzProfilerRecycle drives random sequences of every profiler entry
// point, settled words and stale ids included, through the recycling
// profiler and the append-only reference, and requires the same
// classification stream in the same order. The one exception is Finish's
// Unevicted batch, which the recycling profiler emits in word and table
// order: it is compared as a multiset. Every share is a multiple of a
// quarter flit-hop, so the traffic recorder's bucket sums do not depend on
// that order.
func FuzzProfilerRecycle(f *testing.F) {
	f.Add([]byte{11, 0, 0, 0x22, 4, 0, 0, 0, 1, 0x14, 4, 1, 0, 4, 0, 1})
	f.Add([]byte{11, 2, 3, 0, 10, 0, 3, 0, 8, 0, 0, 255, 255, 1, 0, 6, 1, 9, 0, 255, 255, 2, 1, 1})
	f.Add([]byte{2, 1, 0, 5, 0, 5, 0, 6, 0, 0, 7, 1, 2, 1, 0, 6, 0, 1, 11, 0, 5, 0})
	f.Add(recycleMidRunOps)
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
// as 0). Memory instances are named by handles, each pairing the two
// profilers' ids for one instance, and L1 and L2 instances by the cache
// words they live in, so an op can reach a classified (stale) id or a
// settled word. A fill never opens an instance over a word whose own is
// still open, as no protocol does. Op 12 recycles the profiler mid-run
// and goes on with the next NewProfiler.
func runRecycle(ops []byte) (got, want recycleRun) {
	gotEvents, wantEvents := &got.stream, &want.stream
	var p *Profiler
	var r *refProfiler
	var lines [2]recycleLine
	start := func() {
		p, r = NewProfiler(), newRefProfiler()
		p.OnClassify(func(l Level, c uint8, cat Category, share float64, m bool) {
			*gotEvents = append(*gotEvents, classified{l, c, cat, share, m})
		})
		r.onClassify = func(l Level, c uint8, cat Category, share float64, m bool) {
			*wantEvents = append(*wantEvents, classified{l, c, cat, share, m})
		}
		for k := range lines {
			p.Track(lines[k].inst[0][:])
		}
	}
	start()
	var handles [][2]uint64
	var words []wordRef
	since := 0 // the reference's first event since the last recycle
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
			// One word at L1 or L2; the flag byte holds present (bit 0),
			// the class (bits 1-2) and the share in quarters (bits 3-5).
			level, flags := Level(op), arg(a+1)
			present, class, share := flags&1 != 0, (flags>>1)%4, float64((flags>>3)%8)/4
			id := make([]uint64, 1)
			r.fill(level, 1, uint16(flags&1), class, share, id, nil, false)
			if w := fillWord(p, level, present, class, share); !present {
				words = append(words, wordRef{w, &id[0]})
			}
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
			k := int(arg(a)) % 8
			if k == 7 {
				h := handle(arg(a + 1))
				p.MemLoad(h[0])
				r.classify(h[1], Used)
				i = a + 2
				break
			}
			if len(words) == 0 {
				i = a + 2
				break
			}
			w := words[int(arg(a+1))%len(words)]
			release := func(cat Category) func(*uint64) {
				return func(*uint64) { releaseWord(p, w.got, cat) }
			}
			wrappers := []func(*uint64){p.L1Load, p.L1Store, release(Invalidate), release(Evict), p.L2Served, release(Write), release(Evict)}
			refCats := []Category{Used, Write, Invalidate, Evict, Used, Write, Evict}
			wrappers[k](&w.got[0])
			r.classify(*w.ref, refCats[k])
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
			ln := &lines[arg(a)%2]
			level := Level(arg(a+1) & 1)
			m, present := mask(a+2), mask(a+4)
			class, share, ref := arg(a+6)%4, float64(arg(a+6)/4%8)/4, arg(a+7)&1 != 0
			for w, x := range ln.inst[0] {
				if x != 0 && present&(1<<w) == 0 {
					m &^= 1 << w // still open: no fill replaces it
				}
			}
			p.Fill(level, m, present, class, share, ln.inst[0][:], ln.minst[0][:], ref)
			r.fill(level, m, present, class, share, ln.inst[1][:], ln.minst[1][:], ref)
			for fresh := m &^ present; fresh != 0; fresh &= fresh - 1 {
				w := bits.TrailingZeros16(fresh)
				words = append(words, wordRef{ln.inst[0][w : w+1], &ln.inst[1][w]})
			}
			i = a + 8
		case 9:
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
		case 10:
			ln, w, h := &lines[arg(a)%2], arg(a+1)%16, handle(arg(a+2))
			ln.minst[0][w], ln.minst[1][w] = h[0], h[1]
			i = a + 3
		case 11:
			p.StartMeasurement()
			r.measuring = true
			i = a
		case 12:
			// The run ends here, dirty, as a cancelled cell does. The
			// next run's recycled profiler must behave as a fresh one:
			// its ids, instances and counts start over, like the new
			// reference's, and the ended run's ids and lines go with it.
			p.Recycle()
			handles, words, lines, since = nil, nil, [2]recycleLine{}, len(want.stream)
			start()
			i = a
		}
	}
	gotEvents, wantEvents = &got.batch, &want.batch
	p.Finish()
	r.finish()
	got.counts, got.made, got.peak = p.Snapshot(), p.Instances(), p.PeakLive()
	for _, e := range append(slices.Clone(want.stream[since:]), want.batch...) {
		if e.measured {
			want.counts[e.level][e.cat]++
		}
	}
	want.made = len(r.recs) - 1
	return got, want
}

// TestStaleIDMissesNextTenant pins the case a recycled slot is most
// exposed to: a classified memory instance frees its slot at once, the
// next instance takes it, and a classification through the first id
// afterwards must not reach the second.
func TestStaleIDMissesNextTenant(t *testing.T) {
	p := newMeasuring()
	a := p.MemFetch(0, false)
	p.MemLoad(a)
	b := p.MemFetch(4, false)
	if uint32(a) != uint32(b) {
		t.Fatalf("ids %#x and %#x: the second instance did not reuse the first's slot", a, b)
	}
	p.MemStore(0)
	p.MemRelease(a, false)
	p.MemLoad(a)
	if p.Count(LevelMem, Used) != 1 || p.Count(LevelMem, Evict) != 0 {
		t.Fatalf("counts %v: a stale id reached the slot's next tenant", p.Snapshot()[LevelMem])
	}
	p.MemLoad(b)
	if p.Count(LevelMem, Used) != 2 {
		t.Fatalf("counts %v", p.Snapshot()[LevelMem])
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

// recycleMidRunOps leaves a run with open memory instances on two
// addresses, a filled line and measured counts, recycles its profiler,
// and then runs the same ops again on the next one: a table, index or
// counter the recycled profiler kept shows up as a different stream.
var recycleMidRunOps = func() []byte {
	run := []byte{
		11,
		2, 0, 0, 2, 1, 0,
		10, 0, 0, 0, 10, 0, 1, 1,
		8, 0, 0, 0xff, 0xff, 0x0f, 0, 2 + 4*4, 1,
		7, 0,
	}
	return append(append(append([]byte{}, run...), 12), run...)
}()

// fillReleaseOps encodes: measure; fetch two memory words; give line 0's
// words 0 and 1 those memory instances; fill line 0 at L1 with all 16
// words (share 1, class 2, with references); release it as Invalidate.
func fillReleaseOps(present uint16) []byte {
	return []byte{
		11,
		2, 0, 0, 2, 1, 0,
		10, 0, 0, 0, 10, 0, 1, 1,
		8, 0, 0, 0xff, 0xff, byte(present), byte(present >> 8), 2 + 4*4, 1,
		9, 0, 0xff, 0xff, 3, 1,
	}
}
