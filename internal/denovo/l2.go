package denovo

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/bloom"
	"repro/internal/cache"
	"repro/internal/coher"
	"repro/internal/memsys"
	"repro/internal/mesh"
)

// l2Fetch tracks one in-flight memory fetch for a line. Requests that
// cannot be satisfied while the fetch is in flight are queued and
// re-dispatched once the fill lands.
type l2Fetch struct {
	line   uint32
	retry  []*dvnLoadReq
	tAtMC  int64
	tDram  int64
	filled bool
	next   *l2Fetch // free-list link while recycled
}

// memStamp carries DRAM timing to re-dispatched requests so their loads
// still sample as memory time in Figure 5.2.
type memStamp struct {
	tAtMC, tDram int64
}

type l2Slice struct {
	sys  *System
	tile int
	c    *cache.Cache

	fetch     coher.Table[l2Fetch]
	busyEvict map[uint32]bool
	evictCont map[uint32]*evictState
	gate      map[uint32][]func()
	dirtyCnt  map[uint32]int // words per line that are registered or dirty
	blooms    *bloom.L2Bank
	pred      *bypassPredictor

	// Arriving requests, registrations, writebacks and fills wait out the
	// L2 access latency here before their handler runs.
	loadReqs  coher.Deferred[*dvnLoadReq]
	registers coher.Deferred[*dvnRegister]
	wbs       coher.Deferred[*dvnWB]
	fills     coher.Deferred[*dvnL2Fill]

	fetchFree *l2Fetch
}

// fwdWord is a requested word registered at a remote owner.
type fwdWord struct {
	owner uint8
	addr  uint32
}

// Compile-time guards: a registrant is a tile id, so the registry word
// (cache.Line.Owner) and fwdWord.owner must hold the largest tile id of
// the largest grid, mesh.MaxSide per side.
var (
	_ = fwdWord{owner: mesh.MaxSide*mesh.MaxSide - 1}
	_ = cache.Line{Owner: []uint8{mesh.MaxSide*mesh.MaxSide - 1}}
)

// evictState tracks an eviction waiting on owner recalls.
type evictState struct {
	pending int
	cont    func()
}

func newL2(s *System, tile int) *l2Slice {
	cfg := s.Env.Cfg
	sl := &l2Slice{
		sys:       s,
		tile:      tile,
		c:         cache.New(cfg.L2SliceBytes, cfg.L2Assoc, memsys.LineBytes),
		fetch:     coher.NewTable[l2Fetch](),
		busyEvict: make(map[uint32]bool),
		evictCont: make(map[uint32]*evictState),
		gate:      make(map[uint32][]func()),
		dirtyCnt:  make(map[uint32]int),
	}
	if s.opt.BypassReq {
		sl.blooms = bloom.NewL2Bank(cfg.Bloom)
	}
	if s.opt.PredictBypass {
		sl.pred = newBypassPredictor()
	}
	k, lat := s.Env.K, cfg.L2Latency
	sl.loadReqs = coher.NewDeferred(k, lat, func(m *dvnLoadReq) { sl.serve(m, nil) })
	sl.registers = coher.NewDeferred(k, lat, sl.handleRegister)
	sl.wbs = coher.NewDeferred(k, lat, sl.handleWB)
	sl.fills = coher.NewDeferred(k, lat, sl.handleL2Fill)
	return sl
}

// newFetch returns an empty fetch record for line. Records are recycled
// by fillInstalled once the retries they hold were re-dispatched.
func (sl *l2Slice) newFetch(line uint32) *l2Fetch {
	f := sl.fetchFree
	if f == nil {
		f = &l2Fetch{}
	} else {
		sl.fetchFree = f.next
	}
	*f = l2Fetch{line: line, retry: f.retry[:0]}
	return f
}

func (sl *l2Slice) env() *memsys.Env { return sl.sys.Env }

// lockLine serializes state mutations per line in arrival order. Timed
// retries would let an old writeback overtake a newer registration from
// the same L1; the FIFO gate preserves per-source message order instead.
// lockLine takes a free gate and returns true: the caller runs its
// mutation at once. On a gated line it returns false and the caller
// queues the mutation with waitLine. Either way the mutation must arrange
// for unlockLine to run when it completes.
func (sl *l2Slice) lockLine(line uint32) bool {
	if _, gated := sl.gate[line]; gated {
		return false
	}
	sl.gate[line] = nil
	return true
}

// waitLine queues op behind line's gate; it runs when the gate passes to
// it.
func (sl *l2Slice) waitLine(line uint32, op func()) {
	sl.gate[line] = append(sl.gate[line], op)
}

func (sl *l2Slice) unlockLine(line uint32) {
	q, gated := sl.gate[line]
	if !gated {
		panic("denovo: unlock of ungated line")
	}
	if len(q) == 0 {
		delete(sl.gate, line)
		return
	}
	next := q[0]
	sl.gate[line] = q[1:]
	next()
}

// markDirty/markClean maintain the per-line dirty-word count and the
// counting Bloom filters of §4.4.
func (sl *l2Slice) markDirty(line uint32) {
	sl.dirtyCnt[line]++
	if sl.dirtyCnt[line] == 1 && sl.blooms != nil {
		sl.blooms.Insert(line)
	}
}

func (sl *l2Slice) markClean(line uint32) {
	if sl.dirtyCnt[line] == 0 {
		return
	}
	sl.dirtyCnt[line]--
	if sl.dirtyCnt[line] == 0 {
		delete(sl.dirtyCnt, line)
		if sl.blooms != nil {
			sl.blooms.Remove(line)
		}
	}
}

// dirtyMask returns the words of a line that are stale in memory
// (registered to an L1 or dirty at the L2).
func (sl *l2Slice) dirtyMask(line uint32) uint16 {
	ln := sl.c.Lookup(line)
	if ln == nil {
		return 0
	}
	var m uint16
	for w := 0; w < lineWords; w++ {
		st := ln.WState[w]
		if st&l2StateMask == l2Registered || st&l2Dirty != 0 {
			m |= 1 << w
		}
	}
	return m
}

// --- load requests ---

// serve satisfies a request from the L2 array, remote owners, and memory;
// it runs L2Latency cycles after the request arrives (loadReqs). stamp is
// non-nil when the request was re-dispatched after a fill, so loads keep
// their memory-time attribution.
func (sl *l2Slice) serve(m *dvnLoadReq, stamp *memStamp) {
	env := sl.env()
	// The word lists travel in messages, so each gets its own array, sized
	// for the whole request on first use.
	var direct, denied, memWords []uint32
	var fwd []fwdWord
	nacked := false

	critLine := memsys.LineOf(m.crit)
	bypass := m.bypass
	if sl.pred != nil && !bypass && sl.pred.shouldBypass(critLine) {
		bypass = true
	}
	for _, addr := range m.wants {
		line, w := memsys.LineOf(addr), memsys.WordIndex(addr)
		if sl.busyEvict[line] {
			nacked = true
			continue
		}
		ln := sl.c.Lookup(line)
		if ln != nil {
			switch ln.WState[w] & l2StateMask {
			case l2Valid:
				direct = appendWord(direct, addr, len(m.wants))
				continue
			case l2Registered:
				if int(ln.Owner[w]) != m.from {
					fwd = append(fwd, fwdWord{ln.Owner[w], addr})
					continue
				}
				// Registered to the requestor itself: nothing to send
				// (it already owns the word); drop from the want set.
				denied = appendWord(denied, addr, len(m.wants))
				continue
			}
		}
		// Invalid at the L2 (or line absent): memory.
		if line != critLine && !(bypass && sl.sys.opt.FlexL2) {
			// Cross-line Flex prefetch is only fetched from memory by the
			// bypass+FlexL2 path; otherwise only on-chip copies serve it.
			denied = appendWord(denied, addr, len(m.wants))
			continue
		}
		memWords = appendWord(memWords, addr, len(m.wants))
	}

	if len(direct) > 0 {
		sl.sendFromArray(m, direct, stamp)
	}
	for owner := 0; len(fwd) > 0 && owner < env.Cfg.Tiles; owner++ { // deterministic order
		var words []uint32
		for _, f := range fwd {
			if int(f.owner) == owner {
				words = append(words, f.addr)
			}
		}
		if words == nil {
			continue
		}
		sl.sys.SendCtl(memsys.ClassLD, memsys.BReqCtl, sl.tile, owner, &dvnFwdRead{
			key: m.key, requestor: m.from, words: words, tIssue: m.tIssue,
		})
	}
	if nacked {
		// NACK: the requestor retries the whole remainder (§5.2.4).
		sl.sys.SendCtl(memsys.ClassOVH, memsys.BOvhNack, sl.tile, m.from,
			&dvnNack{key: m.key, from: sl.tile})
	}
	if len(denied) > 0 {
		sl.sys.SendCtl(memsys.ClassLD, memsys.BRespCtl, sl.tile, m.from,
			&dvnDeny{key: m.key, words: denied})
	}
	if len(memWords) == 0 {
		return
	}
	slices.Sort(memWords)

	if bypass {
		// L2 response bypass: fetch straight to the L1, no L2 fill.
		mc := env.Cfg.MCTile(critLine)
		sl.sys.SendCtl(memsys.ClassLD, memsys.BReqCtl, sl.tile, mc, &dvnMemRead{
			key: m.key, critLine: critLine, wants: memWords,
			noReturn: sl.dirtyMask(critLine),
			home:     sl.tile, requestor: m.from,
			direct: true, fillL2: false, flex: m.flex && sl.sys.opt.FlexL2,
			class: memsys.ClassLD, tIssue: m.tIssue,
		})
		return
	}

	if f := sl.fetch.Get(critLine); f != nil {
		// A fetch is already in flight: re-dispatch the remainder after
		// the fill.
		rest := *m
		rest.wants = memWords
		f.retry = append(f.retry, &rest)
		return
	}

	f := sl.newFetch(critLine)
	sl.fetch.Put(critLine, f)
	if sl.sys.opt.MemToL1 {
		// §3.1 Memory Controller to L1 Transfer: data goes to the L1 and
		// the L2 in parallel; the request carries the dirty-word vector.
		sl.sendMemRead(m, critLine, memWords, true)
		return
	}
	// Baseline: memory fills the L2; the requestor is re-dispatched after
	// the fill and served from the array.
	rest := *m
	rest.wants = memWords
	f.retry = append(f.retry, &rest)
	sl.sendMemRead(m, critLine, nil, false)
}

// appendWord appends a to s, giving a nil s an array for n words.
func appendWord(s []uint32, a uint32, n int) []uint32 {
	if s == nil {
		s = make([]uint32, 0, n)
	}
	return append(s, a)
}

func (sl *l2Slice) sendMemRead(m *dvnLoadReq, critLine uint32, wants []uint32, direct bool) {
	mc := sl.env().Cfg.MCTile(critLine)
	sl.sys.SendCtl(memsys.ClassLD, memsys.BReqCtl, sl.tile, mc, &dvnMemRead{
		key: m.key, critLine: critLine, wants: wants,
		noReturn: sl.dirtyMask(critLine),
		home:     sl.tile, requestor: m.from,
		direct: direct, fillL2: true,
		flex:  m.flex && sl.sys.opt.FlexL2,
		class: memsys.ClassLD, tIssue: m.tIssue,
	})
}

// sendFromArray serves words from the L2 data array: genuine L2 reuse, so
// the words classify as Used at the L2 (Figure 4.2) — unless this is the
// immediate forward of a fill (stamp != nil), which is the L1's copy, not
// L2 reuse.
func (sl *l2Slice) sendFromArray(m *dvnLoadReq, words []uint32, stamp *memStamp) {
	env := sl.env()
	vals := make([]uint32, len(words))
	minsts := make([]uint64, len(words))
	for i, addr := range words {
		ln := sl.c.Lookup(memsys.LineOf(addr))
		w := memsys.WordIndex(addr)
		vals[i] = ln.Data[w]
		minsts[i] = ln.MInst[w]
		if stamp == nil {
			env.Prof.L2Served(ln.Inst[w])
			if ln.State < 255 {
				ln.State++ // reuse count for the bypass predictor
			}
		}
		sl.c.Touch(ln)
	}
	hops := sl.sys.CtlHops(memsys.ClassLD, memsys.BRespCtl, sl.tile, m.from)
	d := &dvnData{key: m.key, words: words, vals: vals, minsts: minsts, hops: hops}
	if stamp != nil {
		d.fromMem = true
		d.tAtMC, d.tDram = stamp.tAtMC, stamp.tDram
	}
	sl.sys.SendData(sl.tile, m.from, len(words), d)
}

// --- registration (§2) ---

// handleRegister runs L2Latency cycles after a registration arrives
// (registers).
func (sl *l2Slice) handleRegister(m *dvnRegister) {
	if sl.lockLine(m.line) {
		sl.register(m)
		return
	}
	sl.waitLine(m.line, func() { sl.register(m) })
}

func (sl *l2Slice) register(m *dvnRegister) {
	ln := sl.c.Lookup(m.line)
	if ln == nil {
		sl.ensureWay(m.line, func() { sl.registerInstalled(m, true) })
		return
	}
	sl.registerInstalled(m, false)
}

// registerInstalled applies a registration once the line has a way.
func (sl *l2Slice) registerInstalled(m *dvnRegister, fresh bool) {
	env := sl.env()
	ln := sl.c.Allocate(m.line)
	invals := map[uint8][]uint32{}
	for w := 0; w < lineWords; w++ {
		if m.mask&(1<<w) == 0 {
			continue
		}
		addr := memsys.AddrOf(m.line, w)
		switch ln.WState[w] & l2StateMask {
		case l2Registered:
			old := ln.Owner[w]
			if int(old) != m.from {
				invals[old] = append(invals[old], addr)
			}
		case l2Valid:
			// The L2's clean copy dies before use: Write waste (Fig 4.2).
			env.Prof.L2Overwritten(ln.Inst[w])
			if ln.MInst[w] != 0 {
				env.Prof.MemRelease(ln.MInst[w], false)
				ln.MInst[w] = 0
			}
			sl.markDirty(m.line)
		case l2Invalid:
			sl.markDirty(m.line)
		}
		ln.WState[w] = l2Registered | (ln.WState[w] &^ (l2StateMask | l2Dirty))
		ln.Owner[w] = uint8(m.from)
		ln.Inst[w] = 0
	}
	for owner := 0; owner < env.Cfg.Tiles; owner++ { // deterministic order
		words, ok := invals[uint8(owner)]
		if !ok {
			continue
		}
		sl.sys.SendCtl(memsys.ClassST, memsys.BReqCtl, sl.tile, owner, &dvnInvalWord{words: words})
	}
	// Baseline DeNovo keeps a fetch-on-write L2: a write miss fetches the
	// rest of the line from memory (§3.1).
	if fresh && !sl.sys.opt.ValidateL2 {
		sl.fetchForWrite(m.line)
	}
	sl.sys.SendCtl(memsys.ClassST, memsys.BRespCtl, sl.tile, m.from,
		&dvnRegAck{line: m.line, mask: m.mask})
	sl.unlockLine(m.line)
}

// fetchForWrite fills the invalid words of a write-allocated line
// (fetch-on-write at the L2, baseline DeNovo only).
func (sl *l2Slice) fetchForWrite(line uint32) {
	if sl.fetch.Has(line) {
		return
	}
	// Nothing to fetch when every word is already registered, dirty or
	// valid (a fully overwritten line, e.g. radix's permutation).
	ln := sl.c.Lookup(line)
	need := false
	for w := 0; w < lineWords; w++ {
		if ln == nil || ln.WState[w]&(l2StateMask|l2Dirty) == l2Invalid {
			need = true
			break
		}
	}
	if !need {
		return
	}
	sl.fetch.Put(line, sl.newFetch(line))
	mc := sl.env().Cfg.MCTile(line)
	sl.sys.SendCtl(memsys.ClassST, memsys.BReqCtl, sl.tile, mc, &dvnMemRead{
		key: line, critLine: line,
		noReturn: sl.dirtyMask(line),
		home:     sl.tile, requestor: -1,
		fillL2: true, class: memsys.ClassST,
	})
}

// --- writebacks ---

// handleWB runs L2Latency cycles after a writeback arrives (wbs).
func (sl *l2Slice) handleWB(m *dvnWB) {
	if sl.lockLine(m.line) {
		sl.writeback(m)
		return
	}
	sl.waitLine(m.line, func() { sl.writeback(m) })
}

func (sl *l2Slice) writeback(m *dvnWB) {
	if sl.c.Lookup(m.line) == nil {
		sl.ensureWay(m.line, func() { sl.writebackInstalled(m) })
		return
	}
	sl.writebackInstalled(m)
}

func (sl *l2Slice) writebackInstalled(m *dvnWB) {
	env := sl.env()
	ln := sl.c.Allocate(m.line)
	fresh := false
	for w := 0; w < lineWords; w++ {
		if m.mask&(1<<w) == 0 {
			continue
		}
		st := ln.WState[w] & l2StateMask
		if st == l2Registered && int(ln.Owner[w]) != m.from {
			continue // superseded by a newer registrant: stale data
		}
		switch st {
		case l2Valid:
			// Combined writeback+register over a clean copy.
			env.Prof.L2Overwritten(ln.Inst[w])
			if ln.MInst[w] != 0 {
				env.Prof.MemRelease(ln.MInst[w], false)
				ln.MInst[w] = 0
			}
			sl.markDirty(m.line)
		case l2Invalid:
			sl.markDirty(m.line)
			fresh = true
		}
		ln.Data[w] = m.vals[w]
		ln.WState[w] = l2Valid | l2Dirty
		ln.Owner[w] = 0
		ln.Inst[w] = 0
	}
	if fresh && !sl.sys.opt.ValidateL2 {
		sl.fetchForWrite(m.line)
	}
	sl.sys.SendCtl(memsys.ClassWB, memsys.BWBCtl, sl.tile, m.from, &dvnWBAck{line: m.line})
	sl.unlockLine(m.line)
}

// --- fills ---

// handleL2Fill runs L2Latency cycles after a fill arrives (fills).
func (sl *l2Slice) handleL2Fill(m *dvnL2Fill) {
	if sl.lockLine(m.line) {
		sl.fill(m)
		return
	}
	sl.waitLine(m.line, func() { sl.fill(m) })
}

func (sl *l2Slice) fill(m *dvnL2Fill) {
	if sl.c.Lookup(m.line) == nil {
		sl.ensureWay(m.line, func() { sl.fillInstalled(m) })
		return
	}
	sl.fillInstalled(m)
}

func (sl *l2Slice) fillInstalled(m *dvnL2Fill) {
	env := sl.env()
	ln := sl.c.Allocate(m.line)
	insts := make([]uint64, 0, lineWords)
	for w := 0; w < lineWords; w++ {
		if m.mask&(1<<w) == 0 {
			continue
		}
		addr := memsys.AddrOf(m.line, w)
		present := ln.WState[w]&l2StateMask != l2Invalid
		id := env.Prof.L2Arrival(addr, present)
		insts = append(insts, id)
		if present {
			// The shipped copy is dropped (the L2 already has the word).
			env.Prof.MemRelease(m.minsts[w], false)
			continue
		}
		ln.Data[w] = m.vals[w]
		ln.WState[w] = l2Valid
		ln.Inst[w] = id
		ln.MInst[w] = m.minsts[w]
		env.Prof.MemAddRef(m.minsts[w])
	}
	env.Traffic.Data(m.class, m.hops, insts)

	f := sl.fetch.Get(m.line)
	sl.fetch.Delete(m.line)
	sl.unlockLine(m.line)
	if f == nil {
		return
	}
	stamp := &memStamp{tAtMC: m.tAtMC, tDram: m.tDram}
	for _, req := range f.retry {
		sl.serve(req, stamp)
	}
	// The table no longer holds f and its retries are dispatched: recycle.
	clear(f.retry)
	f.next = sl.fetchFree
	sl.fetchFree = f
}

// --- eviction ---

// ensureWay guarantees a free way in line's set, then calls cont.
func (sl *l2Slice) ensureWay(line uint32, cont func()) {
	victim := sl.c.VictimWhere(line, func(l *cache.Line) bool {
		_, gated := sl.gate[l.Tag]
		return !gated && !sl.busyEvict[l.Tag] && !sl.fetch.Has(l.Tag)
	})
	if victim == nil {
		sl.sys.RetryAfter(func() { sl.ensureWay(line, cont) })
		return
	}
	if !victim.Valid {
		cont()
		return
	}
	// The continuation runs synchronously when the eviction finishes and
	// claims the freed way immediately (callers Allocate first thing), so
	// concurrent allocations cannot steal it and livelock the set.
	sl.evictLine(victim, cont)
}

// evictLine recalls registered words from their owners, writes dirty words
// to memory, and frees the way.
func (sl *l2Slice) evictLine(ln *cache.Line, cont func()) {
	env := sl.env()
	line := ln.Tag
	// The victim is ungated (VictimWhere guarantees it); take its gate so
	// arriving registrations/writebacks queue behind the eviction.
	sl.lockLine(line)
	sl.busyEvict[line] = true
	owners := map[uint8]uint16{}
	for w := 0; w < lineWords; w++ {
		if ln.WState[w]&l2StateMask == l2Registered {
			owners[ln.Owner[w]] |= 1 << w
		}
	}
	pending := len(owners)
	if pending == 0 {
		sl.finishEvict(ln, cont)
		return
	}
	sl.evictCont[line] = &evictState{pending: pending, cont: cont}
	for owner := 0; owner < env.Cfg.Tiles; owner++ { // deterministic order
		mask, ok := owners[uint8(owner)]
		if !ok {
			continue
		}
		sl.sys.SendCtl(memsys.ClassWB, memsys.BWBCtl, sl.tile, owner,
			&dvnRecall{line: line, mask: mask})
	}
}

func (sl *l2Slice) handleRecallResp(m *dvnRecallResp) {
	ln := sl.c.Lookup(m.line)
	st := sl.evictCont[m.line]
	if st == nil || ln == nil {
		panic(fmt.Sprintf("denovo: slice %d recall resp line %#x from %d mask %04x: st=%v ln=%v busy=%v gated=%v",
			sl.tile, m.line, m.from, m.mask, st != nil, ln != nil, sl.busyEvict[m.line], func() bool { _, g := sl.gate[m.line]; return g }()))
	}
	for w := 0; w < lineWords; w++ {
		if m.mask&(1<<w) == 0 {
			continue
		}
		ln.Data[w] = m.vals[w]
		ln.WState[w] = l2Valid | l2Dirty
		ln.Owner[w] = 0
	}
	st.pending--
	if st.pending == 0 {
		delete(sl.evictCont, m.line)
		sl.finishEvict(ln, st.cont)
	}
}

// finishEvict writes dirty words back to memory (dirty-words-only with
// ValidateL2; the full line otherwise) and removes the line.
func (sl *l2Slice) finishEvict(ln *cache.Line, cont func()) {
	env := sl.env()
	line := ln.Tag
	var dirty uint16
	var vals [lineWords]uint32
	for w := 0; w < lineWords; w++ {
		if ln.WState[w]&l2Dirty != 0 {
			dirty |= 1 << w
			vals[w] = ln.Data[w]
		}
		env.Prof.L2Evict(ln.Inst[w])
		if ln.MInst[w] != 0 {
			env.Prof.MemRelease(ln.MInst[w], false)
		}
	}
	if dirty != 0 {
		msg := &msgMemWBPartial{line: line, mask: dirty, vals: vals}
		mc := env.Cfg.MCTile(line)
		nDirty := bits.OnesCount16(dirty)
		clean := 0
		if !sl.sys.opt.ValidateL2 {
			// Baseline: the full 64B line travels to memory.
			clean = lineWords - nDirty
		}
		hops := sl.sys.CtlHops(memsys.ClassWB, memsys.BWBCtl, sl.tile, mc)
		env.Traffic.WBData(true, hops, nDirty, clean)
		sl.sys.SendData(sl.tile, mc, nDirty+clean, msg)
	}
	if sl.dirtyCnt[line] > 0 {
		delete(sl.dirtyCnt, line)
		if sl.blooms != nil {
			sl.blooms.Remove(line)
		}
	}
	if sl.pred != nil {
		sl.pred.train(line, ln.State > 0)
	}
	sl.c.Remove(ln)
	delete(sl.busyEvict, line)
	// The waiting allocation claims the freed way synchronously BEFORE the
	// gate releases queued operations, which could otherwise steal it and
	// force a silent eviction of a line that is mid-recall.
	cont()
	sl.unlockLine(line)
}

// --- Bloom copies (§4.4) ---

func (sl *l2Slice) handleBloomReq(m *dvnBloomReq) {
	env := sl.env()
	hops := sl.sys.Hops(sl.tile, m.from)
	snap := sl.blooms.Snapshot(m.idx)
	// The snapshot payload is entries/8 bytes (64B for the paper's 512
	// entries): one control flit plus the data flits it fills.
	flits := 1 + memsys.DataFlits((snap.SizeBytes()+3)/4)
	env.Traffic.Ctl(memsys.ClassOVH, memsys.BOvhBloom, flits, hops)
	sl.sys.Send(sl.tile, m.from, flits, &dvnBloomResp{
		idx: m.idx, slice: sl.tile, snap: snap,
	})
}
