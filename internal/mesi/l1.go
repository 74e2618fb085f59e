package mesi

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/cache"
	"repro/internal/coher"
	"repro/internal/memsys"
	"repro/internal/waste"
)

// maxStoreTxns bounds how many distinct lines a core's store buffer can be
// fetching concurrently (the 32-entry buffer itself bounds total pending
// writes, §4.2).
const maxStoreTxns = 8

// loadWaiter is a core load blocked on an in-flight line fill.
type loadWaiter struct {
	word int
	done func(val uint32, s memsys.Sample)
}

// mshr tracks one outstanding L1 transaction for a line. It is recycled
// when the fill completes, the same moment it leaves the MSHR table.
type mshr struct {
	gen     uint64 // names this transaction: a record reused for another gets a new gen
	line    uint32
	isStore bool // GetX/Upgrade for the store buffer
	upgrade bool // issued as an Upgrade (may convert to GetX on retry)
	tIssue  int64

	loadWaiters []loadWaiter
	waitBuf     [1]loadWaiter // loadWaiters' backing: loads block, so one waiter is the norm

	dataArrived bool
	needAcks    int
	gotAcks     int
	state       uint8
	data        [lineWords]uint32
	minst       [lineWords]uint64
	transfer    bool
	fromMem     bool
	tAtMC       int64
	tDram       int64
	hopsIn      int
	class       memsys.Class
}

// wbEntry is a victim buffer entry: an evicted line awaiting its
// writeback acknowledgement. It can still service forwarded requests. It
// is recycled when it leaves the victim buffer.
type wbEntry struct {
	gen     uint64 // names this occupancy, like mshr.gen
	line    uint32
	dirty   bool
	aborted bool // ownership moved away; stop retrying
	data    [lineWords]uint32
	wmask   uint16
	minst   [lineWords]uint64
}

type l1Cache struct {
	sys  *System
	tile int
	c    *cache.Cache

	loads coher.Deferred[coher.Load] // core loads waiting out the hit latency
	mshrs coher.Table[mshr]
	wbBuf coher.Table[wbEntry]

	// Retries wait out a backoff here: loads of a line still in the
	// victim buffer, fills whose set has every way pinned by an upgrade,
	// and NACKed puts and requests. A retried MSHR or victim-buffer entry
	// is named with its gen, so a record recycled meanwhile is skipped.
	loadRetry coher.Deferred[coher.Load]
	fillRetry coher.Deferred[mshrRef]
	putRetry  coher.Deferred[wbRef]
	nackRetry coher.Deferred[mshrRef]

	sb           coher.StoreBuffer
	storeTxns    int
	storeUnstall func()
	drainGate    coher.DrainGate
}

func newL1(s *System, tile int) *l1Cache {
	cfg := s.env.Cfg
	l := &l1Cache{
		sys:  s,
		tile: tile,
		c:    s.env.NewCache(cfg.L1Bytes, cfg.L1Assoc),
		sb:   coher.NewStoreBuffer(cfg.StoreBufferEntries),
	}
	k := s.env.K
	l.loads = coher.NewDeferred(k, cfg.L1Latency, func(ld coher.Load) {
		l.loadAttempt(ld.Addr, k.Now(), ld.Done)
	})
	l.loadRetry = coher.NewDeferred(k, cfg.RetryBackoff, func(ld coher.Load) {
		l.loadAttempt(ld.Addr, ld.Issue, ld.Done)
	})
	l.fillRetry = coher.NewDeferred(k, cfg.RetryBackoff, func(r mshrRef) {
		if r.ms.gen == r.gen {
			l.tryCompleteFill(r.ms)
		}
	})
	l.putRetry = coher.NewDeferred(k, cfg.RetryBackoff, func(r wbRef) {
		if r.wb.gen == r.gen {
			l.sendPut(r.wb)
		}
	})
	l.nackRetry = coher.NewDeferred(k, s.env.NackDelay(tile), l.retryNacked)
	return l
}

// mshrRef names one transaction of a recycled MSHR record.
type mshrRef struct {
	ms  *mshr
	gen uint64
}

// wbRef names one occupancy of a recycled victim-buffer record.
type wbRef struct {
	wb  *wbEntry
	gen uint64
}

// newMSHR opens a transaction for line.
func (l *l1Cache) newMSHR(line uint32, isStore bool, tIssue int64) *mshr {
	p := &l.sys.pool
	p.gen++
	m := p.mshr.New(mshr{gen: p.gen, line: line, isStore: isStore, tIssue: tIssue})
	m.loadWaiters = m.waitBuf[:0]
	l.mshrs.Put(line, m)
	return m
}

// dropWB removes a victim-buffer entry and recycles it.
func (l *l1Cache) dropWB(wb *wbEntry) {
	l.wbBuf.Delete(wb.line)
	l.sys.pool.wb.Put(wb)
}

func (l *l1Cache) env() *memsys.Env { return l.sys.env }

// --- core-facing operations ---

func (l *l1Cache) loadAttempt(addr uint32, tIssue int64, done func(uint32, memsys.Sample)) {
	env := l.env()
	// Store-buffer forwarding: the newest pending write to this word wins.
	if val, ok := l.sb.Forward(addr); ok {
		done(val, memsys.Sample{Point: memsys.PointL1})
		return
	}
	line, w := memsys.LineOf(addr), memsys.WordIndex(addr)
	if ln := l.c.Lookup(line); ln != nil {
		l.c.Touch(ln)
		env.Prof.L1Load(&ln.Inst[w])
		env.Prof.MemLoad(ln.MInst[w])
		done(ln.Data[w], memsys.Sample{Point: memsys.PointL1})
		return
	}
	// A line being written back cannot be re-read until the writeback is
	// acknowledged; retry shortly.
	if l.wbBuf.Has(line) {
		l.loadRetry.Add(coher.Load{Addr: addr, Issue: tIssue, Done: done})
		return
	}
	if m := l.mshrs.Get(line); m != nil {
		m.loadWaiters = append(m.loadWaiters, loadWaiter{w, done})
		return
	}
	m := l.newMSHR(line, false, tIssue)
	m.loadWaiters = append(m.loadWaiters, loadWaiter{w, done})
	l.sendGetS(m)
}

func (l *l1Cache) sendGetS(m *mshr) {
	home := l.env().Cfg.HomeTile(m.line)
	l.env().Send(memsys.ClassLD, memsys.BReqCtl, l.tile, home, 0, l.sys.pool.getS.New(msgGetS{line: m.line, from: l.tile}))
}

// storePush enqueues a non-blocking write; false when the buffer is full.
func (l *l1Cache) storePush(addr, val uint32) bool {
	if !l.sb.Push(addr, val) {
		return false
	}
	l.pumpStores()
	return true
}

// pumpStores issues store transactions for pending lines, up to the
// concurrency bound.
func (l *l1Cache) pumpStores() {
	env := l.env()
	var seenBuf [32]uint32 // the default store buffer's size
	seen := seenBuf[:0]    // lines already visited
	entries := l.sb.Entries()
	for i := 0; i < len(entries); i++ {
		line := memsys.LineOf(entries[i].Addr)
		if slices.Contains(seen, line) {
			continue
		}
		seen = append(seen, line)
		if l.mshrs.Has(line) {
			continue // a transaction for this line is already in flight
		}
		if l.wbBuf.Has(line) {
			continue // wait for the writeback ack, then retry
		}
		if ln := l.c.Lookup(line); ln != nil && (ln.State == stM || ln.State == stE) {
			l.applyStores(ln)
			i = -1 // sb mutated; restart scan
			entries = l.sb.Entries()
			seen = seen[:0]
			continue
		}
		if l.storeTxns >= maxStoreTxns {
			break
		}
		l.storeTxns++
		m := l.newMSHR(line, true, env.K.Now())
		if ln := l.c.Lookup(line); ln != nil && ln.State == stS {
			m.upgrade = true
			l.sendUpgrade(line)
		} else {
			l.sendGetX(m)
		}
	}
	l.drainGate.TryFire(l.drained())
}

func (l *l1Cache) sendGetX(m *mshr) {
	m.upgrade = false
	home := l.env().Cfg.HomeTile(m.line)
	l.env().Send(memsys.ClassST, memsys.BReqCtl, l.tile, home, 0, l.sys.pool.getX.New(msgGetX{line: m.line, from: l.tile}))
}

func (l *l1Cache) sendUpgrade(line uint32) {
	home := l.env().Cfg.HomeTile(line)
	l.env().Send(memsys.ClassST, memsys.BReqCtl, l.tile, home, 0, l.sys.pool.upgrade.New(msgUpgrade{line: line, from: l.tile}))
}

// applyStores retires every buffered write targeting a line the core now
// owns (M), then wakes the driver if buffer space freed.
func (l *l1Cache) applyStores(ln *cache.Line) {
	env := l.env()
	ln.State = stM
	l.sb.RetireLine(ln.Tag, memsys.LineOf, func(addr, val uint32) {
		w := memsys.WordIndex(addr)
		env.Prof.L1Store(&ln.Inst[w])
		env.Prof.MemStore(addr)
		if ln.MInst[w] != 0 {
			env.Prof.MemRelease(ln.MInst[w], false)
			ln.MInst[w] = 0
		}
		ln.Data[w] = val
		ln.WState[w] |= wDirty
	})
	l.c.Touch(ln)
	if l.storeUnstall != nil {
		// Deferred: the driver's retry re-enters Store, which must not
		// recurse into this apply path synchronously.
		fn := l.storeUnstall
		env.K.After(0, fn)
	}
	l.drainGate.TryFire(l.drained())
}

// drain registers a barrier-drain continuation: it fires once the store
// buffer is empty and no store transactions remain.
func (l *l1Cache) drain(done func()) {
	l.drainGate.Arm(done)
	l.drainGate.TryFire(l.drained())
}

func (l *l1Cache) drained() bool { return l.sb.Empty() && l.storeTxns == 0 }

// --- protocol message handlers ---

func (l *l1Cache) handleData(m *msgData) {
	ms := l.mshrs.Get(m.line)
	if ms == nil {
		panic(fmt.Sprintf("mesi: tile %d data without mshr line %#x", l.tile, m.line))
	}
	ms.dataArrived = true
	ms.state = m.state
	ms.needAcks += m.acks
	ms.data = m.data
	ms.minst = m.minst
	ms.transfer = m.transfer
	ms.fromMem = m.fromMem
	ms.tAtMC, ms.tDram, ms.hopsIn = m.tAtMC, m.tDram, m.hops
	ms.class = m.class
	l.tryCompleteFill(ms)
}

func (l *l1Cache) handleUpgAck(m *msgUpgAck) {
	ms := l.mshrs.Get(m.line)
	if ms == nil {
		panic("mesi: upgrade ack without mshr")
	}
	// The line must still be present in S (invalidations racing ahead of
	// the upgrade are NACKed at the directory instead).
	ms.dataArrived = true
	ms.state = stM
	ms.needAcks += m.acks
	l.tryCompleteFill(ms)
}

func (l *l1Cache) handleInvAck(m *msgInvAck) {
	ms := l.mshrs.Get(m.line)
	if ms == nil {
		panic("mesi: inv ack without mshr")
	}
	ms.gotAcks++
	l.tryCompleteFill(ms)
}

// tryCompleteFill finishes a transaction once data and all acks arrived.
func (l *l1Cache) tryCompleteFill(ms *mshr) {
	if !ms.dataArrived || ms.gotAcks < ms.needAcks {
		return
	}
	env := l.env()
	if !ms.upgrade && !l.canAllocate(ms.line) {
		// Every way is held by an in-flight upgrade; retry the fill once
		// those transactions finish.
		l.fillRetry.Add(mshrRef{ms, ms.gen})
		return
	}
	l.mshrs.Delete(ms.line)

	var ln *cache.Line
	if ms.upgrade {
		ln = l.c.Lookup(ms.line)
		if ln == nil {
			panic("mesi: upgraded line vanished")
		}
		ln.State = stM
	} else {
		ln = l.allocate(ms.line)
		ln.State = ms.state
		copy(ln.Data, ms.data[:])
		copy(ln.MInst, ms.minst[:])
		env.Traffic.Fill(ms.class, ms.hopsIn, waste.LevelL1, memsys.LineMask, 0, ln.Inst, ln.MInst, !ms.transfer)
	}

	// Directory unblock. MMemL1 load fills from memory carry the data to
	// the L2 (unblock+data, profiled as load traffic).
	home := env.Cfg.HomeTile(ms.line)
	if l.sys.opt.MemToL1 && ms.fromMem && !ms.isStore {
		u := l.sys.pool.unblock.New(msgUnblock{
			line: ms.line, from: l.tile, withData: true,
			data: ms.data, minst: ms.minst,
		})
		u.hops = env.Send(memsys.ClassLD, memsys.BRespCtl, l.tile, home, lineWords, u)
	} else {
		env.Send(memsys.ClassOVH, memsys.BOvhUnblock, l.tile, home, 0, l.sys.pool.unblock.New(msgUnblock{line: ms.line, from: l.tile}))
	}

	sample := memsys.Sample{Point: memsys.PointOnChip}
	if ms.fromMem {
		sample = memsys.Sample{
			Point:  memsys.PointMemory,
			ToMC:   ms.tAtMC - ms.tIssue,
			Mem:    ms.tDram - ms.tAtMC,
			FromMC: env.K.Now() - ms.tDram,
		}
	}
	for _, wtr := range ms.loadWaiters {
		env.Prof.L1Load(&ln.Inst[wtr.word])
		env.Prof.MemLoad(ln.MInst[wtr.word])
		wtr.done(ln.Data[wtr.word], sample)
	}
	if ms.isStore {
		l.storeTxns--
		l.applyStores(ln)
		l.pumpStores()
	}
	l.sys.pool.mshr.Put(ms)
}

func (l *l1Cache) handleNack(m *msgNack) {
	if m.isPut {
		wb := l.wbBuf.Get(m.line)
		if wb == nil {
			return
		}
		if wb.aborted {
			// Ownership moved while the put was in flight; nothing to
			// retry and no ack will come for the stale put.
			l.dropWB(wb)
			l.pumpStores()
			return
		}
		l.putRetry.Add(wbRef{wb, wb.gen})
		return
	}
	ms := l.mshrs.Get(m.line)
	if ms == nil {
		return // transaction already satisfied (stale NACK)
	}
	l.env().ChargeNack(m.from, l.tile)
	l.nackRetry.Add(mshrRef{ms, ms.gen})
}

// retryNacked reissues a NACKed request once its backoff has passed,
// unless its transaction has finished meanwhile.
func (l *l1Cache) retryNacked(r mshrRef) {
	ms := r.ms
	if ms.gen != r.gen {
		return
	}
	if !ms.isStore {
		l.sendGetS(ms)
		return
	}
	// A NACKed upgrade retries as an upgrade only while the S copy
	// survives; otherwise it converts to a full GetX.
	if ms.upgrade {
		if ln := l.c.Lookup(ms.line); ln != nil && ln.State == stS {
			l.sendUpgrade(ms.line)
			return
		}
	}
	l.sendGetX(ms)
}

// handleInv invalidates this L1's shared copy and acknowledges.
func (l *l1Cache) handleInv(m *msgInv) {
	if ln := l.c.Lookup(m.line); ln != nil {
		l.env().Prof.Release(memsys.LineMask, waste.Invalidate, ln.Inst, ln.MInst, true)
		l.c.Remove(ln)
	}
	if m.toL2 {
		// L2-eviction invalidation: acknowledge the home slice.
		l.env().Send(memsys.ClassOVH, memsys.BOvhAck, l.tile, m.ackTo, 0, l.sys.pool.recallResp.New(msgRecallResp{line: m.line, from: l.tile}))
		return
	}
	l.env().Send(memsys.ClassOVH, memsys.BOvhAck, l.tile, m.ackTo, 0, l.sys.pool.invAck.New(msgInvAck{line: m.line, from: l.tile}))
}

// handleFwd services a forwarded GetS/GetX as the owner.
func (l *l1Cache) handleFwd(m *msgFwd) {
	env := l.env()
	class := memsys.ClassLD
	if m.excl {
		class = memsys.ClassST
	}
	var data [lineWords]uint32
	var minst [lineWords]uint64
	var wmask uint16
	if ln := l.c.Lookup(m.line); ln != nil {
		data, wmask = [lineWords]uint32(ln.Data), coher.DirtyMask(ln, wDirty)
		minst = [lineWords]uint64(ln.MInst)
		if m.excl {
			// Ownership transfer: local copy conceptually moves, memory
			// instances and all.
			env.Prof.Release(memsys.LineMask, waste.Invalidate, ln.Inst, nil, false)
			l.c.Remove(ln)
		} else {
			ln.State = stS
		}
	} else if wb := l.wbBuf.Get(m.line); wb != nil {
		data, wmask, minst = wb.data, wb.wmask, wb.minst
		if m.excl {
			wb.aborted = true // ownership moved; the retried Put is stale
		} else {
			wb.dirty = false // data handed to the L2 via the downgrade WB
		}
	} else {
		panic(fmt.Sprintf("mesi: tile %d forwarded for line %#x it does not hold", l.tile, m.line))
	}

	st := stS
	if m.excl {
		st = stM
	}
	d := l.sys.pool.data.New(msgData{
		line: m.line, state: st, data: data, minst: minst,
		transfer: m.excl, tIssue: m.tIssue, class: class,
	})
	d.hops = env.Send(class, memsys.BRespCtl, l.tile, m.requestor, lineWords, d)
	if !m.excl {
		// Downgrade writeback carries the (possibly dirty) data to the L2.
		home := env.Cfg.HomeTile(m.line)
		dirty := bits.OnesCount16(wmask)
		env.SendWB(false, l.tile, home, dirty, lineWords-dirty, l.sys.pool.downgradeWB.New(msgDowngradeWB{
			line: m.line, from: l.tile, data: data, wmask: wmask,
		}))
	}
}

// handleRecall surrenders a line for an inclusive L2 eviction.
func (l *l1Cache) handleRecall(m *msgRecall) {
	env := l.env()
	resp := l.sys.pool.recallResp.New(msgRecallResp{line: m.line, from: l.tile})
	if ln := l.c.Lookup(m.line); ln != nil {
		if ln.State == stM {
			resp.hasData = true
			resp.data, resp.wmask = [lineWords]uint32(ln.Data), coher.DirtyMask(ln, wDirty)
		}
		env.Prof.Release(memsys.LineMask, waste.Invalidate, ln.Inst, ln.MInst, true)
		l.c.Remove(ln)
	} else if wb := l.wbBuf.Get(m.line); wb != nil {
		if wb.dirty {
			resp.hasData = true
			resp.data, resp.wmask = wb.data, wb.wmask
		}
		wb.aborted = true
	}
	home := env.Cfg.HomeTile(m.line)
	if resp.hasData {
		dirty := bits.OnesCount16(resp.wmask)
		env.SendWB(false, l.tile, home, dirty, lineWords-dirty, resp)
	} else {
		env.Send(memsys.ClassOVH, memsys.BOvhAck, l.tile, home, 0, resp)
	}
}

func (l *l1Cache) handleWBAck(m *msgWBAck) {
	if wb := l.wbBuf.Get(m.line); wb != nil {
		l.dropWB(wb)
	}
	l.pumpStores() // lines blocked on the victim buffer can proceed now
}

// --- eviction ---

// canAllocate reports whether a fill for line can find a victim way that
// is not pinned by an in-flight upgrade transaction.
func (l *l1Cache) canAllocate(line uint32) bool {
	return l.c.VictimWhere(line, func(v *cache.Line) bool {
		return l.mshrs.Get(v.Tag) == nil
	}) != nil
}

// allocate returns a line for a fill, evicting the victim through the
// victim buffer if necessary. Lines pinned by in-flight upgrades are never
// chosen (callers check canAllocate first).
func (l *l1Cache) allocate(line uint32) *cache.Line {
	env := l.env()
	victim := l.c.VictimWhere(line, func(v *cache.Line) bool {
		return l.mshrs.Get(v.Tag) == nil
	})
	if victim.Valid {
		vline := victim.Tag
		p := &l.sys.pool
		p.gen++
		wb := p.wb.New(wbEntry{
			gen: p.gen, line: vline, dirty: victim.State == stM,
			data: [lineWords]uint32(victim.Data), wmask: coher.DirtyMask(victim, wDirty),
			minst: [lineWords]uint64(victim.MInst),
		})
		env.Prof.Release(memsys.LineMask, waste.Evict, victim.Inst, victim.MInst, false)
		l.c.Remove(victim)
		l.wbBuf.Put(vline, wb)
		l.sendPut(wb)
	}
	return l.c.Allocate(line)
}

func (l *l1Cache) sendPut(wb *wbEntry) {
	if wb.aborted {
		l.dropWB(wb)
		return
	}
	env := l.env()
	home := env.Cfg.HomeTile(wb.line)
	msg := l.sys.pool.put.New(msgPut{line: wb.line, from: l.tile, dirty: wb.dirty})
	if wb.dirty {
		msg.data, msg.wmask, msg.minst = wb.data, wb.wmask, wb.minst
		dirty := bits.OnesCount16(wb.wmask)
		env.SendWB(false, l.tile, home, dirty, lineWords-dirty, msg)
	} else {
		// Clean replacement notice: pure protocol overhead (§5.2.4).
		env.Send(memsys.ClassOVH, memsys.BOvhWBCtl, l.tile, home, 0, msg)
	}
}
