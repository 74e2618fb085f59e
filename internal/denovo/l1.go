package denovo

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/bloom"
	"repro/internal/cache"
	"repro/internal/coher"
	"repro/internal/memsys"
	"repro/internal/waste"
)

// loadWaiter is a blocked core load waiting for one word.
type loadWaiter struct {
	addr uint32
	done func(uint32, memsys.Sample)
}

// mshr tracks one outstanding load request group, keyed by the critical
// line. Under Flex the wanted set may span lines. It is recycled when it
// leaves the MSHR table, once its wanted set is empty.
type mshr struct {
	gen     uint64 // names this request group: a record reused for another gets a new gen
	key     uint32
	wanted  wordSet
	waiters []loadWaiter
	waitBuf [1]loadWaiter // waiters' backing: loads block, so one waiter is the norm
	tIssue  int64

	// The first request of a group that may bypass the L2 (§4.4), kept
	// while the group waits for a Bloom filter copy.
	bypassCrit  uint32
	bypassFlex  bool
	bypassWants wordList
}

// mshrRef names one request group of a recycled MSHR record.
type mshrRef struct {
	ms  *mshr
	gen uint64
}

// wordSet is an MSHR's set of wanted word addresses, kept in the MSHR
// itself (a wordList without duplicates). Order is not meaningful: every
// reader that sends messages sorts first.
type wordSet struct{ wordList }

func (s *wordSet) len() int { return len(s.s) }

func (s *wordSet) has(a uint32) bool { return slices.Contains(s.s, a) }

func (s *wordSet) add(a uint32) {
	if !s.has(a) {
		s.wordList.add(a)
	}
}

func (s *wordSet) remove(a uint32) {
	if i := slices.Index(s.s, a); i >= 0 {
		last := len(s.s) - 1
		s.s[i] = s.s[last]
		s.s = s.s[:last]
	}
}

// wbEntry is a victim-buffer entry: registered words in flight to the L2,
// able to service forwarded reads and recalls until acknowledged. A line
// can be refetched, re-written and evicted again before the first ack
// returns, so entries count outstanding writebacks and merge values
// (mesh delivery is FIFO per source/destination pair, so the L2 applies
// the writebacks in send order). The table is the entry's only holder; it
// is recycled when the last writeback ack removes it.
type wbEntry struct {
	line    uint32
	mask    uint16
	vals    [lineWords]uint32
	pending int
}

type l1Cache struct {
	sys  *System
	tile int
	c    *cache.Cache

	loads coher.Deferred[coher.Load] // core loads waiting out the hit latency
	mshrs coher.Table[mshr]
	wc    coher.LineTable[wcEntry]
	wcID  uint64 // the last wcEntry.id handed out
	wbBuf coher.Table[wbEntry]

	// Retries wait out a backoff here: loads of a line still in the
	// victim buffer, and NACKed request groups (named with their gen, so
	// a group that completed meanwhile is skipped).
	loadRetry coher.Deferred[coher.Load]
	nackRetry coher.Deferred[mshrRef]

	wcTimeouts coher.Deferred[wcTimer] // one per write-combining entry

	pendingRegs int
	drainGate   coher.DrainGate

	blooms    *bloom.L1Bank
	bloomWait coher.LineTable[[]mshrRef] // groups waiting for a filter copy; key: slice*4096+filterIdx
	words     []uint32                   // scratch for loadAttempt's communication-region lookup
}

func newL1(s *System, tile int) *l1Cache {
	cfg := s.env.Cfg
	l := &l1Cache{
		sys:  s,
		tile: tile,
		c:    s.env.NewCache(cfg.L1Bytes, cfg.L1Assoc),
	}
	if s.opt.BypassReq {
		l.blooms = bloom.NewL1Bank(cfg.Bloom, cfg.Tiles())
	}
	k := s.env.K
	l.loads = coher.NewDeferred(k, cfg.L1Latency, func(ld coher.Load) {
		l.loadAttempt(ld.Addr, k.Now(), ld.Done)
	})
	l.loadRetry = coher.NewDeferred(k, cfg.RetryBackoff, func(ld coher.Load) {
		l.loadAttempt(ld.Addr, ld.Issue, ld.Done)
	})
	l.nackRetry = coher.NewDeferred(k, s.env.NackDelay(tile), l.retryNacked)
	l.wcTimeouts = coher.NewDeferred(k, cfg.WriteCombineTimeout, l.wcTimeout)
	return l
}

func (l *l1Cache) env() *memsys.Env { return l.sys.env }

// --- loads ---

func (l *l1Cache) loadAttempt(addr uint32, tIssue int64, done func(uint32, memsys.Sample)) {
	env := l.env()
	line, w := memsys.LineOf(addr), memsys.WordIndex(addr)
	if ln := l.c.Lookup(line); ln != nil && ln.WState[w] != wInvalid {
		l.c.Touch(ln)
		env.Prof.L1Load(&ln.Inst[w])
		env.Prof.MemLoad(ln.MInst[w])
		done(ln.Data[w], memsys.Sample{Point: memsys.PointL1})
		return
	}
	if l.wbBuf.Has(line) {
		l.loadRetry.Add(coher.Load{Addr: addr, Issue: tIssue, Done: done})
		return
	}
	if m := l.mshrs.Get(line); m != nil {
		m.waiters = append(m.waiters, loadWaiter{addr, done})
		if !m.wanted.has(addr) {
			// The in-flight request did not cover this word; ask again.
			m.wanted.add(addr)
			l.sendLoadReq(m, []uint32{addr}, addr, false, false)
		}
		return
	}
	p := &l.sys.pool
	p.gen++
	m := p.mshr.New(mshr{gen: p.gen, key: line, tIssue: tIssue})
	m.waiters = append(m.waitBuf[:0], loadWaiter{addr, done})
	l.mshrs.Put(line, m)

	region := env.Regions.ByAddr(addr)
	flex := l.sys.opt.FlexL1 && region != nil && region.InComm(addr)
	// wants is copied into the request message (the critical word
	// included).
	var buf [2 * lineWords]uint32
	wants := buf[:0]
	if flex {
		l.words = region.CommWords(l.words[:0], addr)
		// A line is looked up once while it repeats (cur; no line is ^0):
		// nothing in the loop changes the array.
		cur, ln := ^uint32(0), (*cache.Line)(nil)
		for _, wa := range l.words {
			if len(wants) >= env.Cfg.MaxDataWords() {
				break
			}
			if wl := memsys.LineOf(wa); wl != cur {
				cur, ln = wl, l.c.Lookup(wl)
			}
			if ln != nil && ln.WState[memsys.WordIndex(wa)] != wInvalid {
				continue // already cached
			}
			wants = append(wants, wa)
		}
	} else {
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
		m.bypassCrit, m.bypassFlex = addr, flex
		m.bypassWants.set(wants)
		l.tryRequestBypass(m)
		return
	}
	l.sendLoadReq(m, wants, addr, bypass, flex)
}

func (l *l1Cache) sendLoadReq(m *mshr, wants []uint32, crit uint32, bypass, flex bool) {
	home := l.env().Cfg.HomeTile(m.key)
	req := l.sys.pool.loadReq.New(dvnLoadReq{key: m.key, crit: crit, from: l.tile,
		bypass: bypass, flex: flex, tIssue: m.tIssue})
	req.wants.set(wants)
	l.env().Send(memsys.ClassLD, memsys.BReqCtl, l.tile, home, 0, req)
}

// tryRequestBypass consults the L1 Bloom filter copies (§4.4) for a
// group's first request: when the critical line definitely has no dirty
// words on-chip, the request goes straight to the memory controller,
// skipping the L2.
func (l *l1Cache) tryRequestBypass(m *mshr) {
	env := l.env()
	home := env.Cfg.HomeTile(m.key)
	valid, may := l.blooms.Query(home, m.key)
	if !valid {
		l.fetchBloomCopy(home, m)
		return
	}
	if may {
		// Possibly dirty on-chip: take the normal path through the L2.
		l.sendLoadReq(m, m.bypassWants.s, m.bypassCrit, true, m.bypassFlex)
		return
	}
	mc := env.Cfg.MCTile(m.key)
	rd := l.sys.pool.memRead.New(dvnMemRead{
		key: m.key, critLine: m.key,
		home: home, requestor: l.tile,
		direct: true, fillL2: false, flex: m.bypassFlex && l.sys.opt.FlexL2,
		class: memsys.ClassLD, tIssue: m.tIssue,
	})
	rd.wants.set(m.bypassWants.s)
	env.Send(memsys.ClassLD, memsys.BReqCtl, l.tile, mc, 0, rd)
}

// fetchBloomCopy requests the filter snapshot covering m's line from the
// home slice on demand, coalescing concurrent waiters (§4.4).
func (l *l1Cache) fetchBloomCopy(slice int, m *mshr) {
	idx := l.blooms.FilterIndex(m.key)
	key := uint32(slice*4096 + idx)
	waiters := l.bloomWait.Get(key)
	l.bloomWait.Put(key, append(waiters, mshrRef{m, m.gen}))
	if len(waiters) > 0 {
		return // request already in flight
	}
	l.env().Send(memsys.ClassOVH, memsys.BOvhBloom, l.tile, slice, 0, l.sys.pool.bloomReq.New(dvnBloomReq{idx: idx, from: l.tile}))
}

func (l *l1Cache) handleBloomResp(m *dvnBloomResp) {
	l.blooms.LoadCopy(m.slice, m.idx, m.snap)
	key := uint32(m.slice*4096 + m.idx)
	waiters := l.bloomWait.Get(key)
	l.bloomWait.Delete(key)
	for _, r := range waiters {
		if r.ms.gen == r.gen {
			l.tryRequestBypass(r.ms)
		}
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
	env.Prof.L1Store(&ln.Inst[w])
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

// wcEntry is one write-combining table entry (§4.2): registrations for a
// line batched until the line fills, a timeout expires, the line is
// evicted, or a barrier drains the table.
type wcEntry struct {
	mask uint16
	born int64
	// id names this occupancy of the table: a line flushed and added
	// again gets a new id, so a timeout armed for the old entry can tell
	// it no longer applies. Ids start at 1, so an absent entry has id 0.
	id uint64
}

// wcAdd batches a registration request in the write-combining table. A
// new entry for a full table first flushes the oldest one.
func (l *l1Cache) wcAdd(line uint32, w int) {
	env := l.env()
	e := l.wc.Get(line)
	if e.id == 0 {
		if l.wc.Len() >= env.Cfg.WriteCombineEntries {
			l.flushOldestWC()
		}
		l.wcID++
		e = wcEntry{born: env.K.Now(), id: l.wcID}
		l.wcTimeouts.Add(wcTimer{line, e.id})
	}
	e.mask |= 1 << w
	if e.mask == memsys.LineMask {
		l.flushWC(line, e.mask) // the entire line has been written
		return
	}
	l.wc.Put(line, e)
}

// flushOldestWC flushes the entry with the lowest birth time, ties broken
// by line address: a strict order, so the table's slot order cannot
// change which entry goes.
func (l *l1Cache) flushOldestWC() {
	var oldest uint32
	var first wcEntry
	l.wc.Range(func(line uint32, e wcEntry) {
		if first.id == 0 || e.born < first.born || (e.born == first.born && line < oldest) {
			oldest, first = line, e
		}
	})
	if first.id != 0 {
		l.flushWC(oldest, first.mask)
	}
}

// wcTimer is a pending write-combining timeout for one table entry.
type wcTimer struct {
	line uint32
	id   uint64 // the wcEntry.id the timeout was armed for
}

// wcTimeout flushes the entry the timer was armed for, unless that entry
// already left the table (a newer entry for the line has another id).
func (l *l1Cache) wcTimeout(t wcTimer) {
	if e := l.wc.Get(t.line); e.id == t.id {
		l.flushWC(t.line, e.mask)
	}
}

// flushWC sends line's batched registrations, mask, to the home slice and
// drops its entry.
func (l *l1Cache) flushWC(line uint32, mask uint16) {
	l.wc.Delete(line)
	l.pendingRegs++
	home := l.env().Cfg.HomeTile(line)
	l.env().Send(memsys.ClassST, memsys.BReqCtl, l.tile, home, 0,
		l.sys.pool.register.New(dvnRegister{line: line, from: l.tile, mask: mask}))
}

func (l *l1Cache) handleRegAck(m *dvnRegAck) {
	l.pendingRegs--
	l.drainGate.TryFire(l.drained())
}

// --- responses ---

// handleData installs a response's words, each through waste.Profiler.Fill
// as a one-word fill in message order, and charges the response's filler
// once: under Flex its words can span lines.
func (l *l1Cache) handleData(m *dvnData) {
	env := l.env()
	ms := l.mshrs.Get(m.key)
	share := memsys.WordShare(m.hops)
	for _, d := range m.words.s {
		addr := d.addr
		line, w := memsys.LineOf(addr), memsys.WordIndex(addr)
		ln := l.c.Lookup(line)
		if ln == nil {
			l.evictFor(line)
			ln = l.c.Allocate(line)
			if r := env.Regions.ByAddr(addr); r != nil {
				ln.Region = r.ID
			}
		}
		var present uint16
		if ln.WState[w] != wInvalid {
			present = 1 << w
		} else {
			ln.Data[w] = d.val
			ln.WState[w] = wValid
			ln.MInst[w] = d.minst
		}
		env.Prof.Fill(waste.LevelL1, 1<<w, present, uint8(memsys.ClassLD), share, ln.Inst, ln.MInst, true)
		if ms != nil {
			ms.wanted.remove(addr)
		}
	}
	env.Traffic.Filler(memsys.ClassLD, m.hops, len(m.words.s))
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
// closes the MSHR once the wanted set is empty. A waiter can outlive the
// wanted set: a later word of a Flex response can evict the line an
// earlier word filled. Every waiter waits on its MSHR's own line, so its
// word is then requested again from that line's home.
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
		env.Prof.L1Load(&ln.Inst[w])
		env.Prof.MemLoad(ln.MInst[w])
		wtr.done(ln.Data[w], sample)
	}
	ms.waiters = kept
	if ms.wanted.len() != 0 {
		return
	}
	if len(ms.waiters) == 0 {
		l.mshrs.Delete(ms.key)
		l.sys.pool.mshr.Put(ms)
		return
	}
	for _, wtr := range ms.waiters {
		ms.wanted.add(memsys.WordAddr(wtr.addr))
	}
	l.retryNacked(mshrRef{ms, ms.gen})
}

// handleDeny drops flex-prefetch words that will not be delivered. Denied
// words with waiters are re-requested individually.
func (l *l1Cache) handleDeny(m *dvnDeny) {
	ms := l.mshrs.Get(m.key)
	if ms == nil {
		return
	}
	var buf [2 * lineWords]uint32
	reissue := buf[:0]
	for _, addr := range m.words.s {
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
		l.sendLoadReq(ms, reissue, reissue[0], false, false)
	}
	l.completeWaiters(ms, memsys.Sample{Point: memsys.PointOnChip})
}

func (l *l1Cache) handleNack(m *dvnNack) {
	ms := l.mshrs.Get(m.key)
	if ms == nil {
		return
	}
	l.env().ChargeNack(m.from, l.tile)
	l.nackRetry.Add(mshrRef{ms, ms.gen})
}

// retryNacked re-requests a group's remaining words from its line's home:
// a NACKed group's once its backoff has passed, unless the group
// completed meanwhile, and a group whose waiters outlived its wanted set.
func (l *l1Cache) retryNacked(r mshrRef) {
	ms := r.ms
	if ms.gen != r.gen || ms.wanted.len() == 0 {
		return
	}
	var buf [2 * lineWords]uint32
	wants := append(buf[:0], ms.wanted.s...)
	slices.Sort(wants)
	l.sendLoadReq(ms, wants, wants[0], false, false)
}

// handleFwdRead serves a forwarded read as the registered owner; the copy
// duplicates (the owner stays registered).
func (l *l1Cache) handleFwdRead(m *dvnFwdRead) {
	d := l.sys.pool.data.New(dvnData{key: m.key})
	for _, addr := range m.words.s {
		line, w := memsys.LineOf(addr), memsys.WordIndex(addr)
		if ln := l.c.Lookup(line); ln != nil && ln.WState[w] == wRegistered {
			d.words.add(dataWord{addr: addr, val: ln.Data[w]})
			continue
		}
		if wb := l.wbBuf.Get(line); wb != nil && wb.mask&(1<<w) != 0 {
			d.words.add(dataWord{addr: addr, val: wb.vals[w]})
			continue
		}
		panic(fmt.Sprintf("denovo: tile %d forwarded for word %#x it does not own", l.tile, addr))
	}
	d.hops = l.env().Send(memsys.ClassLD, memsys.BRespCtl, l.tile, m.requestor, len(d.words.s), d)
}

// handleInvalWord drops copies superseded by a new registrant.
func (l *l1Cache) handleInvalWord(m *dvnInvalWord) {
	ln := l.c.Lookup(m.line)
	if ln == nil {
		return
	}
	var valid uint16
	for w := 0; w < lineWords; w++ {
		if m.mask&(1<<w) != 0 && ln.WState[w] != wInvalid {
			valid |= 1 << w
			ln.WState[w] = wInvalid
		}
	}
	l.env().Prof.Release(valid, waste.Invalidate, ln.Inst, ln.MInst, true)
}

// handleRecall surrenders registered words for an L2 eviction.
func (l *l1Cache) handleRecall(m *dvnRecall) {
	env := l.env()
	resp := l.sys.pool.recallResp.New(dvnRecallResp{line: m.line, from: l.tile})
	ln := l.c.Lookup(m.line)
	var registered uint16
	for w := 0; w < lineWords; w++ {
		if m.mask&(1<<w) == 0 {
			continue
		}
		if ln != nil && ln.WState[w] == wRegistered {
			resp.mask |= 1 << w
			resp.vals[w] = ln.Data[w]
			registered |= 1 << w
			ln.WState[w] = wInvalid
			continue
		}
		if wb := l.wbBuf.Get(m.line); wb != nil && wb.mask&(1<<w) != 0 {
			resp.mask |= 1 << w
			resp.vals[w] = wb.vals[w]
		}
	}
	if ln != nil {
		// Registered words hold no memory instance: the store released it.
		env.Prof.Release(registered, waste.Invalidate, ln.Inst, nil, false)
	}
	home := env.Cfg.HomeTile(m.line)
	env.SendWB(false, l.tile, home, bits.OnesCount16(resp.mask), 0, resp)
}

func (l *l1Cache) handleWBAck(m *dvnWBAck) {
	if wb := l.wbBuf.Get(m.line); wb != nil {
		wb.pending--
		if wb.pending <= 0 {
			l.wbBuf.Delete(m.line)
			l.sys.pool.victim.Put(wb)
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
	env.Prof.Release(memsys.LineMask, waste.Evict, victim.Inst, victim.MInst, false)
	// Pending registrations ride along with the writeback.
	l.wc.Delete(vline)
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
		l.wbBuf.Put(vline, l.sys.pool.victim.New(wbEntry{line: vline, mask: regMask, vals: vals, pending: 1}))
	}
	home := env.Cfg.HomeTile(vline)
	if l.sys.opt.BypassReq {
		l.blooms.InsertLocal(home, vline)
	}
	env.SendWB(false, l.tile, home, bits.OnesCount16(regMask), 0, l.sys.pool.wb.New(dvnWB{
		line: vline, from: l.tile, mask: regMask, vals: vals,
	}))
}

// --- barriers ---

func (l *l1Cache) drain(done func()) {
	// Flush every pending registration (release semantics, §4.2), in
	// deterministic line order.
	for _, line := range l.wc.SortedLines() {
		l.flushWC(line, l.wc.Get(line).mask)
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
	var set [256]bool // region ids are uint8
	for _, id := range written {
		set[id] = true
	}
	l.c.ForEach(func(ln *cache.Line) {
		r := env.Regions.ByAddr(ln.Tag << memsys.LineShift)
		if r == nil || !set[r.ID] {
			return
		}
		var valid uint16
		for w := 0; w < lineWords; w++ {
			if ln.WState[w] == wValid {
				valid |= 1 << w
				ln.WState[w] = wInvalid
			}
		}
		env.Prof.Release(valid, waste.Invalidate, ln.Inst, ln.MInst, true)
	})
}
