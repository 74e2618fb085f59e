package denovo

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/bloom"
	"repro/internal/cache"
	"repro/internal/coher"
	"repro/internal/memsys"
)

// loadWaiter is a blocked core load waiting for one word.
type loadWaiter struct {
	addr uint32
	done func(uint32, memsys.Sample)
}

// mshr tracks one outstanding load request group, keyed by the critical
// line. Under Flex the wanted set may span lines.
type mshr struct {
	key     uint32
	wanted  wordSet
	waiters []loadWaiter
	waitBuf [1]loadWaiter // waiters' backing: loads block, so one waiter is the norm
	tIssue  int64
}

// wordSet is an MSHR's set of wanted word addresses, kept in the MSHR
// itself. A request wants at most MaxDataWords words plus the rest of the
// critical line, so the inline capacity covers the default four-flit
// packets; a larger packet size spills to the heap. Order is not
// meaningful: every reader that sends messages sorts first.
type wordSet struct {
	w   []uint32
	buf [2 * lineWords]uint32
}

func (s *wordSet) len() int { return len(s.w) }

func (s *wordSet) has(a uint32) bool { return slices.Contains(s.w, a) }

func (s *wordSet) add(a uint32) {
	if s.has(a) {
		return
	}
	if s.w == nil {
		s.w = s.buf[:0]
	}
	s.w = append(s.w, a)
}

func (s *wordSet) remove(a uint32) {
	for i, x := range s.w {
		if x == a {
			last := len(s.w) - 1
			s.w[i] = s.w[last]
			s.w = s.w[:last]
			return
		}
	}
}

// wbEntry is a victim-buffer entry: registered words in flight to the L2,
// able to service forwarded reads and recalls until acknowledged. A line
// can be refetched, re-written and evicted again before the first ack
// returns, so entries count outstanding writebacks and merge values
// (mesh delivery is FIFO per source/destination pair, so the L2 applies
// the writebacks in send order).
type wbEntry struct {
	line    uint32
	mask    uint16
	vals    [lineWords]uint32
	pending int
	next    *wbEntry // free-list link while recycled
}

type l1Cache struct {
	sys  *System
	tile int
	c    *cache.Cache

	loads coher.Deferred[coher.Load] // core loads waiting out the hit latency
	mshrs coher.Table[mshr]
	wc    coher.WriteCombiner
	wbBuf coher.Table[wbEntry]

	wbFree      *wbEntry // recycled victim-buffer entries (linked by next)
	wcTimerFree *wcTimer

	pendingRegs int
	drainGate   coher.DrainGate

	blooms    *bloom.L1Bank
	bloomWait map[int][]func() // key: slice*4096+filterIdx
}

func newL1(s *System, tile int) *l1Cache {
	cfg := s.Env.Cfg
	l := &l1Cache{
		sys:   s,
		tile:  tile,
		c:     cache.New(cfg.L1Bytes, cfg.L1Assoc, memsys.LineBytes),
		mshrs: coher.NewTable[mshr](),
		wc:    coher.NewWriteCombiner(),
		wbBuf: coher.NewTable[wbEntry](),
	}
	if s.opt.BypassReq {
		l.blooms = bloom.NewL1Bank(cfg.Bloom)
		l.bloomWait = make(map[int][]func())
	}
	l.loads = coher.NewDeferred(s.Env.K, cfg.L1Latency, func(ld coher.Load) {
		l.loadAttempt(ld.Addr, s.Env.K.Now(), ld.Done)
	})
	return l
}

func (l *l1Cache) env() *memsys.Env { return l.sys.Env }

// --- loads ---

func (l *l1Cache) loadAttempt(addr uint32, tIssue int64, done func(uint32, memsys.Sample)) {
	env := l.env()
	line, w := memsys.LineOf(addr), memsys.WordIndex(addr)
	if ln := l.c.Lookup(line); ln != nil && ln.WState[w] != wInvalid {
		l.c.Touch(ln)
		env.Prof.L1Load(ln.Inst[w])
		env.Prof.MemLoad(ln.MInst[w])
		done(ln.Data[w], memsys.Sample{Point: memsys.PointL1})
		return
	}
	if l.wbBuf.Has(line) {
		l.sys.RetryAfter(func() { l.loadAttempt(addr, tIssue, done) })
		return
	}
	if m := l.mshrs.Get(line); m != nil {
		m.waiters = append(m.waiters, loadWaiter{addr, done})
		if !m.wanted.has(addr) {
			// The in-flight request did not cover this word; ask again.
			m.wanted.add(addr)
			l.sendLoadReq(m, []uint32{addr}, nil)
		}
		return
	}
	m := &mshr{key: line, tIssue: tIssue}
	m.waiters = append(m.waitBuf[:0], loadWaiter{addr, done})
	l.mshrs.Put(line, m)

	region := env.Regions.ByAddr(addr)
	flex := l.sys.opt.FlexL1 && region != nil && region.InComm(addr)
	// wants travels in the request message, so it gets its own array,
	// sized for the largest request up front (the critical word included).
	var wants []uint32
	if flex {
		wants = make([]uint32, 0, env.Cfg.MaxDataWords()+1)
		for _, wa := range region.CommWords(addr) {
			if len(wants) >= env.Cfg.MaxDataWords() {
				break
			}
			if ln := l.c.Lookup(memsys.LineOf(wa)); ln != nil && ln.WState[memsys.WordIndex(wa)] != wInvalid {
				continue // already cached
			}
			wants = append(wants, wa)
		}
	} else {
		wants = make([]uint32, 0, lineWords)
		ln := l.c.Lookup(line)
		for i := 0; i < lineWords; i++ {
			if ln != nil && ln.WState[i] != wInvalid {
				continue
			}
			wants = append(wants, memsys.AddrOf(line, i))
		}
	}
	// The critical word is always requested.
	if !slices.Contains(wants, memsys.WordAddr(addr)) {
		wants = append(wants, memsys.WordAddr(addr))
	}
	for _, wa := range wants {
		m.wanted.add(wa)
	}

	bypass := l.sys.opt.BypassResp && region != nil && region.Bypass
	if bypass && l.sys.opt.BypassReq {
		l.tryRequestBypass(m, addr, wants, flex)
		return
	}
	l.sendLoadReq(m, wants, &reqMeta{crit: addr, bypass: bypass, flex: flex})
}

// reqMeta carries per-request attributes for sendLoadReq.
type reqMeta struct {
	crit   uint32
	bypass bool
	flex   bool
}

func (l *l1Cache) sendLoadReq(m *mshr, wants []uint32, meta *reqMeta) {
	home := l.env().Cfg.HomeTile(m.key)
	req := &dvnLoadReq{key: m.key, from: l.tile, wants: wants, tIssue: m.tIssue}
	if meta != nil {
		req.crit, req.bypass, req.flex = meta.crit, meta.bypass, meta.flex
	} else {
		req.crit = wants[0]
	}
	l.sys.SendCtl(memsys.ClassLD, memsys.BReqCtl, l.tile, home, req)
}

// tryRequestBypass consults the L1 Bloom filter copies (§4.4): when the
// critical line definitely has no dirty words on-chip, the request goes
// straight to the memory controller, skipping the L2.
func (l *l1Cache) tryRequestBypass(m *mshr, crit uint32, wants []uint32, flex bool) {
	env := l.env()
	home := env.Cfg.HomeTile(m.key)
	valid, may := l.blooms.Query(home, m.key)
	if !valid {
		l.fetchBloomCopy(home, m.key, func() { l.tryRequestBypass(m, crit, wants, flex) })
		return
	}
	if may {
		// Possibly dirty on-chip: take the normal path through the L2.
		l.sendLoadReq(m, wants, &reqMeta{crit: crit, bypass: true, flex: flex})
		return
	}
	mc := env.Cfg.MCTile(m.key)
	l.sys.SendCtl(memsys.ClassLD, memsys.BReqCtl, l.tile, mc, &dvnMemRead{
		key: m.key, critLine: m.key, wants: wants,
		home: home, requestor: l.tile,
		direct: true, fillL2: false, flex: flex && l.sys.opt.FlexL2,
		class: memsys.ClassLD, tIssue: m.tIssue,
	})
}

// fetchBloomCopy requests one filter snapshot from the home slice on
// demand, coalescing concurrent waiters (§4.4).
func (l *l1Cache) fetchBloomCopy(slice int, line uint32, cont func()) {
	idx := l.blooms.FilterIndex(line)
	key := slice*4096 + idx
	l.bloomWait[key] = append(l.bloomWait[key], cont)
	if len(l.bloomWait[key]) > 1 {
		return // request already in flight
	}
	l.sys.SendCtl(memsys.ClassOVH, memsys.BOvhBloom, l.tile, slice, &dvnBloomReq{idx: idx, from: l.tile})
}

func (l *l1Cache) handleBloomResp(m *dvnBloomResp) {
	l.blooms.LoadCopy(m.slice, m.idx, m.snap)
	key := m.slice*4096 + m.idx
	waiters := l.bloomWait[key]
	delete(l.bloomWait, key)
	for _, cont := range waiters {
		cont()
	}
}

// --- stores (write-validate, §3.1) ---

func (l *l1Cache) store(addr, val uint32) {
	env := l.env()
	line, w := memsys.LineOf(addr), memsys.WordIndex(addr)
	ln := l.c.Lookup(line)
	if ln == nil {
		// Write-validate: allocate without fetching.
		l.evictFor(line)
		ln = l.c.Allocate(line)
	}
	env.Prof.L1Store(ln.Inst[w])
	env.Prof.MemStore(addr)
	if ln.MInst[w] != 0 {
		env.Prof.MemRelease(ln.MInst[w], false)
		ln.MInst[w] = 0
	}
	ln.Data[w] = val
	if ln.WState[w] != wRegistered {
		ln.WState[w] = wRegistered
		l.wcAdd(line, w)
	}
	l.c.Touch(ln)
}

// wcAdd batches a registration request in the write-combining table.
func (l *l1Cache) wcAdd(line uint32, w int) {
	env := l.env()
	e := l.wc.Get(line)
	if e == nil {
		if l.wc.Len() >= env.Cfg.WriteCombineEntries {
			l.flushOldestWC()
		}
		e = l.wc.Add(line, env.K.Now())
		t := l.wcTimerFree
		if t == nil {
			t = &wcTimer{l: l}
		} else {
			l.wcTimerFree = t.next
		}
		t.line, t.id = line, e.ID
		env.K.AtArg(env.K.Now()+env.Cfg.WriteCombineTimeout, runWCTimeout, t)
	}
	e.Mask |= 1 << w
	if e.Mask == 0xffff {
		l.flushWC(e) // the entire line has been written
	}
}

// wcTimer is a pending write-combining timeout for one table entry,
// free-listed on the L1 and scheduled with Kernel.AtArg.
type wcTimer struct {
	l    *l1Cache
	line uint32
	id   uint64 // the WCEntry.ID the timeout was armed for
	next *wcTimer
}

// runWCTimeout flushes the entry the timer was armed for, unless that
// entry already left the table (a newer entry for the line has another
// ID). The record is recycled first; flushing never arms a timer.
func runWCTimeout(a any) {
	t := a.(*wcTimer)
	l, line, id := t.l, t.line, t.id
	t.next = l.wcTimerFree
	l.wcTimerFree = t
	if e := l.wc.Get(line); e != nil && e.ID == id {
		l.flushWC(e)
	}
}

func (l *l1Cache) flushOldestWC() {
	if oldest := l.wc.Oldest(); oldest != nil {
		l.flushWC(oldest)
	}
}

func (l *l1Cache) flushWC(e *coher.WCEntry) {
	line, mask := e.Line, e.Mask
	l.wc.Remove(line) // invalidates e
	l.pendingRegs++
	home := l.env().Cfg.HomeTile(line)
	l.sys.SendCtl(memsys.ClassST, memsys.BReqCtl, l.tile, home,
		&dvnRegister{line: line, from: l.tile, mask: mask})
}

func (l *l1Cache) handleRegAck(m *dvnRegAck) {
	l.pendingRegs--
	l.drainGate.TryFire(l.drained())
}

// --- responses ---

func (l *l1Cache) handleData(m *dvnData) {
	env := l.env()
	ms := l.mshrs.Get(m.key)
	var buf [2 * lineWords]uint64 // Traffic.Data does not keep insts
	insts := buf[:0]
	for i, addr := range m.words {
		line, w := memsys.LineOf(addr), memsys.WordIndex(addr)
		ln := l.c.Lookup(line)
		if ln == nil {
			l.evictFor(line)
			ln = l.c.Allocate(line)
			if r := env.Regions.ByAddr(addr); r != nil {
				ln.Region = r.ID
			}
		}
		present := ln.WState[w] != wInvalid
		id := env.Prof.L1Arrival(addr, present)
		insts = append(insts, id)
		if !present {
			ln.Inst[w] = id
			ln.Data[w] = m.vals[i]
			ln.WState[w] = wValid
			ln.MInst[w] = m.minsts[i]
			env.Prof.MemAddRef(m.minsts[i])
		}
		if ms != nil {
			ms.wanted.remove(addr)
		}
	}
	env.Traffic.Data(memsys.ClassLD, m.hops, insts)
	if ms == nil {
		return // stale response (mshr already satisfied)
	}
	sample := memsys.Sample{Point: memsys.PointOnChip}
	if m.fromMem {
		sample = memsys.Sample{
			Point:  memsys.PointMemory,
			ToMC:   m.tAtMC - ms.tIssue,
			Mem:    m.tDram - m.tAtMC,
			FromMC: env.K.Now() - m.tDram,
		}
	}
	l.completeWaiters(ms, sample)
}

// completeWaiters finishes every waiter whose word is now cached and
// closes the MSHR once the wanted set is empty.
func (l *l1Cache) completeWaiters(ms *mshr, sample memsys.Sample) {
	env := l.env()
	kept := ms.waiters[:0]
	for _, wtr := range ms.waiters {
		line, w := memsys.LineOf(wtr.addr), memsys.WordIndex(wtr.addr)
		ln := l.c.Lookup(line)
		if ln == nil || ln.WState[w] == wInvalid {
			kept = append(kept, wtr)
			continue
		}
		env.Prof.L1Load(ln.Inst[w])
		env.Prof.MemLoad(ln.MInst[w])
		wtr.done(ln.Data[w], sample)
	}
	ms.waiters = kept
	if ms.wanted.len() == 0 {
		if len(ms.waiters) != 0 {
			panic(fmt.Sprintf("denovo: tile %d mshr %#x closed with %d waiters", l.tile, ms.key, len(ms.waiters)))
		}
		l.mshrs.Delete(ms.key)
	}
}

// handleDeny drops flex-prefetch words that will not be delivered. Denied
// words with waiters are re-requested individually.
func (l *l1Cache) handleDeny(m *dvnDeny) {
	ms := l.mshrs.Get(m.key)
	if ms == nil {
		return
	}
	var reissue []uint32
	for _, addr := range m.words {
		if !ms.wanted.has(addr) {
			continue
		}
		needed := false
		for _, wtr := range ms.waiters {
			if memsys.WordAddr(wtr.addr) == addr {
				needed = true
				break
			}
		}
		if needed {
			reissue = append(reissue, addr)
		} else {
			ms.wanted.remove(addr)
		}
	}
	if len(reissue) > 0 {
		l.sendLoadReq(ms, reissue, &reqMeta{crit: reissue[0]})
	}
	l.completeWaiters(ms, memsys.Sample{Point: memsys.PointOnChip})
}

func (l *l1Cache) handleNack(m *dvnNack) {
	ms := l.mshrs.Get(m.key)
	if ms == nil {
		return
	}
	l.sys.NackBackoff(m.from, l.tile, func() {
		if l.mshrs.Get(m.key) != ms || ms.wanted.len() == 0 {
			return
		}
		wants := append([]uint32(nil), ms.wanted.w...)
		slices.Sort(wants)
		l.sendLoadReq(ms, wants, &reqMeta{crit: wants[0]})
	})
}

// handleFwdRead serves a forwarded read as the registered owner; the copy
// duplicates (the owner stays registered).
func (l *l1Cache) handleFwdRead(m *dvnFwdRead) {
	words := make([]uint32, 0, len(m.words))
	vals := make([]uint32, 0, len(m.words))
	minsts := make([]uint64, 0, len(m.words))
	for _, addr := range m.words {
		line, w := memsys.LineOf(addr), memsys.WordIndex(addr)
		if ln := l.c.Lookup(line); ln != nil && ln.WState[w] == wRegistered {
			words = append(words, addr)
			vals = append(vals, ln.Data[w])
			minsts = append(minsts, 0)
			continue
		}
		if wb := l.wbBuf.Get(line); wb != nil && wb.mask&(1<<w) != 0 {
			words = append(words, addr)
			vals = append(vals, wb.vals[w])
			minsts = append(minsts, 0)
			continue
		}
		panic(fmt.Sprintf("denovo: tile %d forwarded for word %#x it does not own", l.tile, addr))
	}
	hops := l.sys.CtlHops(memsys.ClassLD, memsys.BRespCtl, l.tile, m.requestor)
	l.sys.SendData(l.tile, m.requestor, len(words), &dvnData{
		key: m.key, words: words, vals: vals, minsts: minsts, hops: hops,
	})
}

// handleInvalWord drops copies superseded by a new registrant.
func (l *l1Cache) handleInvalWord(m *dvnInvalWord) {
	env := l.env()
	for _, addr := range m.words {
		line, w := memsys.LineOf(addr), memsys.WordIndex(addr)
		ln := l.c.Lookup(line)
		if ln == nil || ln.WState[w] == wInvalid {
			continue
		}
		env.Prof.L1Invalidate(ln.Inst[w])
		if ln.MInst[w] != 0 {
			env.Prof.MemRelease(ln.MInst[w], true)
			ln.MInst[w] = 0
		}
		ln.WState[w] = wInvalid
	}
}

// handleRecall surrenders registered words for an L2 eviction.
func (l *l1Cache) handleRecall(m *dvnRecall) {
	env := l.env()
	resp := &dvnRecallResp{line: m.line, from: l.tile}
	ln := l.c.Lookup(m.line)
	for w := 0; w < lineWords; w++ {
		if m.mask&(1<<w) == 0 {
			continue
		}
		if ln != nil && ln.WState[w] == wRegistered {
			resp.mask |= 1 << w
			resp.vals[w] = ln.Data[w]
			env.Prof.L1Invalidate(ln.Inst[w])
			ln.WState[w] = wInvalid
			continue
		}
		if wb := l.wbBuf.Get(m.line); wb != nil && wb.mask&(1<<w) != 0 {
			resp.mask |= 1 << w
			resp.vals[w] = wb.vals[w]
		}
	}
	home := env.Cfg.HomeTile(m.line)
	dirty := bits.OnesCount16(resp.mask)
	hops := l.sys.CtlHops(memsys.ClassWB, memsys.BWBCtl, l.tile, home)
	env.Traffic.WBData(false, hops, dirty, 0)
	l.sys.SendData(l.tile, home, dirty, resp)
}

func (l *l1Cache) handleWBAck(m *dvnWBAck) {
	if wb := l.wbBuf.Get(m.line); wb != nil {
		wb.pending--
		if wb.pending <= 0 {
			// The table was the entry's only holder.
			l.wbBuf.Delete(m.line)
			wb.next = l.wbFree
			l.wbFree = wb
		}
	}
	l.drainGate.TryFire(l.drained())
}

// --- eviction ---

// evictFor frees the victim way for a fill or store allocation. Valid
// words drop silently (no sharer lists); registered words and pending
// registrations leave through a combined writeback+register message.
func (l *l1Cache) evictFor(line uint32) {
	env := l.env()
	victim := l.c.Victim(line)
	if !victim.Valid {
		return
	}
	vline := victim.Tag
	var regMask uint16
	var vals [lineWords]uint32
	for w := 0; w < lineWords; w++ {
		if victim.WState[w] == wRegistered {
			regMask |= 1 << w
			vals[w] = victim.Data[w]
		}
	}
	coher.ReleaseL1Line(env, victim, true, false)
	// Pending registrations ride along with the writeback.
	l.wc.Remove(vline)
	l.c.Remove(victim)
	if regMask == 0 {
		return
	}
	if old := l.wbBuf.Get(vline); old != nil {
		for w := 0; w < lineWords; w++ {
			if regMask&(1<<w) != 0 {
				old.vals[w] = vals[w]
			}
		}
		old.mask |= regMask
		old.pending++
	} else {
		wb := l.wbFree
		if wb == nil {
			wb = &wbEntry{}
		} else {
			l.wbFree = wb.next
		}
		*wb = wbEntry{line: vline, mask: regMask, vals: vals, pending: 1}
		l.wbBuf.Put(vline, wb)
	}
	home := env.Cfg.HomeTile(vline)
	dirty := bits.OnesCount16(regMask)
	hops := l.sys.CtlHops(memsys.ClassWB, memsys.BWBCtl, l.tile, home)
	env.Traffic.WBData(false, hops, dirty, 0)
	if l.sys.opt.BypassReq {
		l.blooms.InsertLocal(home, vline)
	}
	l.sys.SendData(l.tile, home, dirty, &dvnWB{
		line: vline, from: l.tile, mask: regMask, vals: vals,
	})
}

// --- barriers ---

func (l *l1Cache) drain(done func()) {
	// Flush every pending registration (release semantics, §4.2), in
	// deterministic line order.
	for _, line := range l.wc.SortedLines() {
		if e := l.wc.Get(line); e != nil {
			l.flushWC(e)
		}
	}
	l.drainGate.Arm(done)
	l.drainGate.TryFire(l.drained())
}

func (l *l1Cache) drained() bool {
	return l.wc.Len() == 0 && l.pendingRegs == 0 && l.wbBuf.Len() == 0
}

// selfInvalidate drops non-registered words of the regions written during
// the finished phase (§2).
func (l *l1Cache) selfInvalidate(written []uint8) {
	if len(written) == 0 {
		return
	}
	env := l.env()
	set := map[uint8]bool{}
	for _, id := range written {
		set[id] = true
	}
	l.c.ForEach(func(ln *cache.Line) {
		r := env.Regions.ByAddr(ln.Tag << memsys.LineShift)
		if r == nil || !set[r.ID] {
			return
		}
		for w := 0; w < lineWords; w++ {
			if ln.WState[w] != wValid {
				continue
			}
			env.Prof.L1Invalidate(ln.Inst[w])
			if ln.MInst[w] != 0 {
				env.Prof.MemRelease(ln.MInst[w], true)
				ln.MInst[w] = 0
			}
			ln.WState[w] = wInvalid
		}
	})
}
