package mesi

import (
	"fmt"
	"iter"
	"math/bits"

	"repro/internal/cache"
	"repro/internal/coher"
	"repro/internal/memsys"
	"repro/internal/mesh"
	"repro/internal/waste"
)

// Transaction kinds at the directory.
const (
	txFetch uint8 = iota // memory fetch in flight (GetS/GetX miss)
	txHit                // on-chip service, waiting for unblock
	txFwd                // forwarded to owner
	txEvict              // inclusive L2 eviction / recall
)

// txn is one in-flight directory transaction for a line. The directory is
// blocking: while a txn exists, other requests for the line are NACKed.
type txn struct {
	kind      uint8
	requestor int
	class     memsys.Class
	grant     uint8
	isStore   bool
	tIssue    int64

	needUnblock   bool
	needDowngrade bool

	// Eviction sub-state.
	pendingAcks int
	then        wayWaiter // the step waiting for the way this eviction frees
}

// dirEntry is the directory state for a line. An entry exists while the
// line is resident in the L2 array and/or has a transaction in flight; it
// is recycled when it leaves the directory.
type dirEntry struct {
	line    uint32
	owner   int16 // owning L1 tile (E or M), -1 if none
	sharers sharerSet
	hasData bool // L2 data array holds valid data (false for MMemL1 store fills)
	busy    *txn // the transaction in flight (points at txn), nil if none
	txn     txn
}

// maxTiles is the tile count of the largest grid, mesh.MaxSide per side.
const maxTiles = mesh.MaxSide * mesh.MaxSide

// sharerSet holds one bit per tile of the largest grid.
type sharerSet [maxTiles / 64]uint64

// Compile-time guards: the sharer set has exactly one bit per tile, and
// the owner field holds every tile id.
var (
	_ = [1]struct{}{}[len(sharerSet{})*64-maxTiles]
	_ = dirEntry{owner: maxTiles - 1}
)

func (s *sharerSet) add(t int)      { s[t>>6] |= 1 << (t & 63) }
func (s *sharerSet) remove(t int)   { s[t>>6] &^= 1 << (t & 63) }
func (s *sharerSet) has(t int) bool { return s[t>>6]&(1<<(t&63)) != 0 }
func (s *sharerSet) empty() bool    { return *s == sharerSet{} }

func (s *sharerSet) count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// all yields the members in ascending tile order.
func (s sharerSet) all() iter.Seq[int] {
	return func(yield func(int) bool) {
		for i, w := range s {
			for ; w != 0; w &= w - 1 {
				if !yield(i*64 + bits.TrailingZeros64(w)) {
					return
				}
			}
		}
	}
}

// wayWaiter is an L2 step that needs a free way in its line's set: a
// fetch about to read memory (its directory entry), or memory data or an
// MMemL1 load's data unblock about to be installed (the message). It
// waits through evictions and retries as itself, without a closure.
type wayWaiter interface {
	wayLine() uint32
	wayFree(sl *l2Slice) // runs once the set has a free way
}

func (e *dirEntry) wayLine() uint32       { return e.line }
func (e *dirEntry) wayFree(sl *l2Slice)   { sl.sendMemRead(e) }
func (m *msgMemData) wayLine() uint32     { return m.line }
func (m *msgMemData) wayFree(sl *l2Slice) { sl.fillFromMem(m) }
func (m *msgUnblock) wayLine() uint32     { return m.line }
func (m *msgUnblock) wayFree(sl *l2Slice) { sl.fillFromUnblock(m) }

// begin starts a transaction on the entry. The directory is blocking, so
// an entry has at most one in flight and its record lives in the entry.
func (e *dirEntry) begin(t txn) {
	e.txn = t
	e.busy = &e.txn
}

type l2Slice struct {
	sys  *System
	tile int
	c    *cache.Cache
	dir  coher.Table[dirEntry]

	// Arriving requests, memory data and puts wait out the L2 access
	// latency here before their handler runs.
	getS    coher.Deferred[*msgGetS]
	getX    coher.Deferred[*msgGetX]
	upgrade coher.Deferred[*msgUpgrade]
	memData coher.Deferred[*msgMemData]
	put     coher.Deferred[*msgPut]

	wayRetry coher.Deferred[wayWaiter] // steps whose set has every way busy
}

func newL2(s *System, tile int) *l2Slice {
	cfg := s.env.Cfg
	sl := &l2Slice{
		sys:  s,
		tile: tile,
		c:    s.env.NewCache(cfg.L2SliceBytes, cfg.L2Assoc),
	}
	k, lat, p := s.env.K, cfg.L2Latency, &s.pool
	sl.getS = coher.NewDeferred(k, lat, func(m *msgGetS) { sl.handleGetS(m); p.getS.Put(m) })
	sl.getX = coher.NewDeferred(k, lat, func(m *msgGetX) { sl.handleGetX(m); p.getX.Put(m) })
	sl.upgrade = coher.NewDeferred(k, lat, func(m *msgUpgrade) { sl.handleUpgrade(m); p.upgrade.Put(m) })
	sl.memData = coher.NewDeferred(k, lat, sl.handleMemData)
	sl.put = coher.NewDeferred(k, lat, func(m *msgPut) { sl.handlePut(m); p.put.Put(m) })
	sl.wayRetry = coher.NewDeferred(k, cfg.RetryBackoff, sl.ensureWay)
	return sl
}

func (sl *l2Slice) env() *memsys.Env { return sl.sys.env }

func (sl *l2Slice) entry(line uint32) *dirEntry {
	e := sl.dir.Get(line)
	if e == nil {
		e = sl.sys.pool.dir.New(dirEntry{line: line, owner: -1})
		sl.dir.Put(line, e)
	}
	return e
}

// dropEntry removes line's directory entry and recycles it.
func (sl *l2Slice) dropEntry(e *dirEntry) {
	sl.dir.Delete(e.line)
	sl.sys.pool.dir.Put(e)
}

func (sl *l2Slice) nack(line uint32, to int, isStore, isPut bool) {
	sl.env().Send(memsys.ClassOVH, memsys.BOvhNack, sl.tile, to, 0,
		sl.sys.pool.nack.New(msgNack{line: line, from: sl.tile, isStore: isStore, isPut: isPut}))
}

// --- request handlers ---

func (sl *l2Slice) handleGetS(m *msgGetS) {
	e := sl.dir.Get(m.line)
	if e != nil && e.busy != nil {
		sl.nack(m.line, m.from, false, false)
		return
	}
	ln := sl.c.Lookup(m.line)
	switch {
	case ln == nil:
		sl.startFetch(m.line, m.from, memsys.ClassLD, stE, false)
	case e.owner >= 0:
		e.begin(txn{kind: txFwd, requestor: m.from, class: memsys.ClassLD,
			needUnblock: true, needDowngrade: true})
		sl.env().Send(memsys.ClassLD, memsys.BReqCtl, sl.tile, int(e.owner), 0,
			sl.sys.pool.fwd.New(msgFwd{line: m.line, requestor: m.from}))
	default:
		grant := stS
		if e.sharers.empty() {
			grant = stE
			e.owner = int16(m.from)
		} else {
			e.sharers.add(m.from)
		}
		sl.serveFromL2(ln, e, m.from, memsys.ClassLD, grant, 0)
	}
}

func (sl *l2Slice) handleGetX(m *msgGetX) {
	e := sl.dir.Get(m.line)
	if e != nil && e.busy != nil {
		sl.nack(m.line, m.from, true, false)
		return
	}
	ln := sl.c.Lookup(m.line)
	switch {
	case ln == nil:
		sl.startFetch(m.line, m.from, memsys.ClassST, stM, true)
	case e.owner >= 0:
		e.begin(txn{kind: txFwd, requestor: m.from, class: memsys.ClassST,
			isStore: true, needUnblock: true})
		sl.env().Send(memsys.ClassST, memsys.BReqCtl, sl.tile, int(e.owner), 0,
			sl.sys.pool.fwd.New(msgFwd{line: m.line, requestor: m.from, excl: true}))
		e.owner = int16(m.from)
	default:
		others := e.sharers
		others.remove(m.from)
		acks := others.count()
		sl.sendInvs(m.line, others, m.from, false)
		e.sharers = sharerSet{}
		e.owner = int16(m.from)
		sl.serveFromL2(ln, e, m.from, memsys.ClassST, stM, acks)
	}
}

func (sl *l2Slice) handleUpgrade(m *msgUpgrade) {
	e := sl.dir.Get(m.line)
	if e == nil || e.busy != nil || e.owner >= 0 || !e.sharers.has(m.from) {
		// Raced with an invalidation (or the line left the L2): the
		// requestor will convert to a full GetX.
		sl.nack(m.line, m.from, true, false)
		return
	}
	others := e.sharers
	others.remove(m.from)
	acks := others.count()
	sl.sendInvs(m.line, others, m.from, false)
	e.sharers = sharerSet{}
	e.owner = int16(m.from)
	e.begin(txn{kind: txHit, requestor: m.from, class: memsys.ClassST,
		isStore: true, needUnblock: true})
	sl.env().Send(memsys.ClassST, memsys.BRespCtl, sl.tile, m.from, 0,
		sl.sys.pool.upgAck.New(msgUpgAck{line: m.line, acks: acks}))
	if ln := sl.c.Lookup(m.line); ln != nil {
		sl.c.Touch(ln)
	}
}

// serveFromL2 answers a request from the L2 data array: this is genuine L2
// reuse, so the served words classify as Used at the L2 (Figure 4.2).
func (sl *l2Slice) serveFromL2(ln *cache.Line, e *dirEntry, to int, class memsys.Class, grant uint8, acks int) {
	env := sl.env()
	e.begin(txn{kind: txHit, requestor: to, class: class, needUnblock: true})
	var data [lineWords]uint32
	var minst [lineWords]uint64
	for w := 0; w < lineWords; w++ {
		data[w] = ln.Data[w]
		minst[w] = ln.MInst[w]
		env.Prof.L2Served(&ln.Inst[w])
	}
	sl.c.Touch(ln)
	d := sl.sys.pool.data.New(msgData{
		line: ln.Tag, state: grant, acks: acks, data: data, minst: minst,
		class: class,
	})
	d.hops = env.Send(class, memsys.BRespCtl, sl.tile, to, lineWords, d)
}

func (sl *l2Slice) sendInvs(line uint32, sharers sharerSet, ackTo int, toL2 bool) {
	for t := range sharers.all() {
		sl.env().Send(memsys.ClassOVH, memsys.BOvhInval, sl.tile, t, 0,
			sl.sys.pool.inv.New(msgInv{line: line, ackTo: ackTo, toL2: toL2}))
	}
}

// startFetch begins an L2 miss: reserve a way (recalling an inclusive
// victim if needed), then read the line from memory.
func (sl *l2Slice) startFetch(line uint32, requestor int, class memsys.Class, grant uint8, isStore bool) {
	env := sl.env()
	e := sl.entry(line)
	e.begin(txn{kind: txFetch, requestor: requestor, class: class, grant: grant,
		isStore: isStore, needUnblock: true, tIssue: env.K.Now()})
	sl.ensureWay(e)
}

// sendMemRead sends a fetch's read to the memory controller once its set
// has a way for the line.
func (sl *l2Slice) sendMemRead(e *dirEntry) {
	t := e.busy
	mc := sl.env().Cfg.MCTile(e.line)
	sl.env().Send(t.class, memsys.BReqCtl, sl.tile, mc, 0, sl.sys.pool.memRead.New(msgMemRead{
		line: e.line, home: sl.tile, requestor: t.requestor, grant: t.grant,
		class: t.class, direct: sl.sys.opt.MemToL1, tIssue: t.tIssue,
	}))
}

// ensureWay guarantees the set of w's line has a free way, evicting an
// unbusied victim first if necessary, then runs w.
func (sl *l2Slice) ensureWay(w wayWaiter) {
	victim := sl.c.VictimWhere(w.wayLine(), func(l *cache.Line) bool {
		ve := sl.dir.Get(l.Tag)
		return ve == nil || ve.busy == nil
	})
	if victim == nil {
		// Every way is mid-transaction; retry shortly.
		sl.wayRetry.Add(w)
		return
	}
	if !victim.Valid {
		w.wayFree(sl)
		return
	}
	sl.evictLine(victim, w)
}

// evictLine removes a resident line to make room, recalling or
// invalidating L1 copies first (inclusive L2); then w tries for a way
// again.
func (sl *l2Slice) evictLine(ln *cache.Line, w wayWaiter) {
	line := ln.Tag
	e := sl.entry(line)
	e.begin(txn{kind: txEvict, then: w})
	switch {
	case e.owner >= 0:
		sl.env().Send(memsys.ClassOVH, memsys.BOvhInval, sl.tile, int(e.owner), 0,
			sl.sys.pool.recall.New(msgRecall{line: line}))
	case !e.sharers.empty():
		e.busy.pendingAcks = e.sharers.count()
		sl.sendInvs(line, e.sharers, sl.tile, true)
		e.sharers = sharerSet{}
	default:
		sl.finishEvict(ln, e)
	}
}

// handleRecallResp collects an owner's recall data or a sharer's
// L2-directed invalidation ack during an eviction.
func (sl *l2Slice) handleRecallResp(m *msgRecallResp) {
	e := sl.dir.Get(m.line)
	if e == nil || e.busy == nil || e.busy.kind != txEvict {
		panic(fmt.Sprintf("mesi: stray recall response for line %#x", m.line))
	}
	ln := sl.c.Lookup(m.line)
	if m.hasData {
		sl.mergeDirty(ln, m.data, m.wmask)
	}
	if e.owner >= 0 && m.from == int(e.owner) {
		e.owner = -1
		sl.finishEvict(ln, e)
		return
	}
	e.busy.pendingAcks--
	if e.busy.pendingAcks <= 0 {
		sl.finishEvict(ln, e)
	}
}

// finishEvict writes the (full) line back to memory if dirty, releases
// profiling state, and frees the way.
func (sl *l2Slice) finishEvict(ln *cache.Line, e *dirEntry) {
	env := sl.env()
	line := ln.Tag
	dirtyMask := coher.DirtyMask(ln, wDirty)
	data := [lineWords]uint32(ln.Data)
	env.Prof.Release(memsys.LineMask, waste.Evict, ln.Inst, ln.MInst, false)
	if dirtyMask != 0 {
		// MESI always writes the full 64B line back to memory; the clean
		// words are the Mem Waste of Figure 5.1d.
		mc := env.Cfg.MCTile(line)
		dirty := bits.OnesCount16(dirtyMask)
		env.SendWB(true, sl.tile, mc, dirty, lineWords-dirty, sl.sys.pool.memWB.New(msgMemWB{
			line: line, data: data, wmask: memsys.LineMask,
		}))
	}
	sl.c.Remove(ln)
	then := e.busy.then
	sl.dropEntry(e)
	if then != nil {
		sl.ensureWay(then)
	}
}

// --- fills and writebacks ---

// handleMemData fills the L2 from memory (baseline path) and forwards the
// line to the requestor. The fill-forward is the L1's copy; the L2 copy's
// usefulness is decided by later reuse, so no Used marking happens here.
func (sl *l2Slice) handleMemData(m *msgMemData) {
	e := sl.dir.Get(m.line)
	if e == nil || e.busy == nil || e.busy.kind != txFetch {
		panic(fmt.Sprintf("mesi: memory data without fetch txn for line %#x", m.line))
	}
	sl.ensureWay(m)
}

// fillFromMem installs memory data once its set has a way, forwards the
// line to the requestor, and recycles the message.
func (sl *l2Slice) fillFromMem(m *msgMemData) {
	e := sl.dir.Get(m.line)
	sl.install(m.line, &m.data, &m.minst, m.class, m.hops)
	e.hasData = true
	if m.grant == stE || m.grant == stM {
		e.owner = int16(m.req)
	} else {
		e.sharers.add(m.req)
	}
	d := sl.sys.pool.data.New(msgData{
		line: m.line, state: m.grant, data: m.data, minst: m.minst,
		fromMem: true, tIssue: m.tIssue, tAtMC: m.tAtMC, tDram: m.tDram,
		class: m.class,
	})
	d.hops = sl.env().Send(m.class, memsys.BRespCtl, sl.tile, m.req, lineWords, d)
	sl.sys.pool.memData.Put(m)
}

// install allocates line (its set has a free way) and fills it with a
// message's words and their memory instances, each word a new L2
// instance carrying its share of the message's class traffic.
func (sl *l2Slice) install(line uint32, data *[lineWords]uint32, minst *[lineWords]uint64, class memsys.Class, hops int) {
	ln := sl.c.Allocate(line)
	copy(ln.Data, data[:])
	copy(ln.MInst, minst[:])
	sl.env().Traffic.Fill(class, hops, waste.LevelL2, memsys.LineMask, 0, ln.Inst, ln.MInst, true)
}

// handleUnblock ends a transaction. Under MMemL1, load unblocks carry the
// memory data into the L2; store fills leave the L2 entry data-less.
func (sl *l2Slice) handleUnblock(m *msgUnblock) {
	e := sl.dir.Get(m.line)
	if e == nil || e.busy == nil {
		panic(fmt.Sprintf("mesi: unblock without txn for line %#x", m.line))
	}
	t := e.busy
	t.needUnblock = false
	if t.kind == txFetch && sl.sys.opt.MemToL1 {
		sl.ensureWay(m)
		return
	}
	sl.completeTxn(m.line, e)
	sl.sys.pool.unblock.Put(m)
}

// fillFromUnblock ends an MMemL1 fetch once its set has a way: a load's
// unblock installs the data it carries, a store's leaves the L2 entry
// data-less. The message is recycled.
func (sl *l2Slice) fillFromUnblock(m *msgUnblock) {
	e := sl.dir.Get(m.line)
	t := e.busy
	if m.withData {
		sl.install(m.line, &m.data, &m.minst, memsys.ClassLD, m.hops)
	} else {
		sl.c.Allocate(m.line)
	}
	e.hasData = m.withData
	if t.grant == stE || t.grant == stM {
		e.owner = int16(t.requestor)
	} else {
		e.sharers.add(t.requestor)
	}
	sl.completeTxn(m.line, e)
	sl.sys.pool.unblock.Put(m)
}

func (sl *l2Slice) handleDowngradeWB(m *msgDowngradeWB) {
	e := sl.dir.Get(m.line)
	if e == nil || e.busy == nil || !e.busy.needDowngrade {
		panic(fmt.Sprintf("mesi: stray downgrade WB for line %#x", m.line))
	}
	ln := sl.c.Lookup(m.line)
	sl.mergeDirty(ln, m.data, m.wmask)
	e.hasData = true
	// The former owner becomes a sharer alongside the requestor.
	e.sharers.add(m.from)
	e.sharers.add(e.busy.requestor)
	e.owner = -1
	e.busy.needDowngrade = false
	sl.completeTxn(m.line, e)
}

func (sl *l2Slice) completeTxn(line uint32, e *dirEntry) {
	if e.busy == nil || e.busy.needUnblock || e.busy.needDowngrade {
		return
	}
	e.busy = nil
	if sl.c.Lookup(line) == nil && e.owner < 0 && e.sharers.empty() {
		sl.dropEntry(e)
	}
}

// mergeDirty folds a full-line writeback from an L1 into the L2 line:
// MESI transfers whole lines, so every word is overwritten — open L2 word
// instances classify as Write waste (Figure 4.2, "overwritten by the data
// included in an L1 writeback") and their memory instances are released.
// Only the words the core actually wrote (wmask) become dirty for the
// L2->memory writeback accounting.
func (sl *l2Slice) mergeDirty(ln *cache.Line, data [lineWords]uint32, wmask uint16) {
	if ln == nil {
		return // transiently data-less entry: nothing cached to merge into
	}
	sl.env().Prof.Release(memsys.LineMask, waste.Write, ln.Inst, ln.MInst, false)
	copy(ln.Data, data[:])
	for w := 0; w < lineWords; w++ {
		if wmask&(1<<w) != 0 {
			ln.WState[w] |= wDirty
		}
	}
}

// handlePut processes writebacks and clean replacement notices.
func (sl *l2Slice) handlePut(m *msgPut) {
	e := sl.dir.Get(m.line)
	busy := e != nil && e.busy != nil
	fromOwner := e != nil && e.owner >= 0 && int(e.owner) == m.from
	// A put can also race with the sender's own in-flight fill: under
	// MMemL1 the directory records ownership only when the unblock is
	// processed, and ensureWay can defer that past the put's arrival
	// (the L1 already has the data straight from the MC, so it may have
	// evicted the line again by then). Acking such a put would destroy
	// the victim buffer and leave a stale owner behind, so the pending
	// requestor is treated exactly like the registered owner.
	fromPending := busy && e.busy.kind != txEvict && e.busy.requestor == m.from
	if busy && (fromOwner || fromPending) {
		// A forward may be racing to this L1; it must keep its victim
		// buffer alive and retry.
		sl.nack(m.line, m.from, false, true)
		return
	}
	if e != nil && !busy {
		ln := sl.c.Lookup(m.line)
		switch {
		case m.dirty && fromOwner:
			sl.mergeDirty(ln, m.data, m.wmask)
			e.hasData = true
			e.owner = -1
		case !m.dirty && fromOwner:
			e.owner = -1 // clean E replacement; L2 data stays valid
		default:
			e.sharers.remove(m.from)
		}
	} else if e != nil {
		// Busy, but from a mere sharer: safe to drop the sharer now.
		e.sharers.remove(m.from)
	}
	// Stale puts (line already evicted/transferred) are acked and
	// ignored.
	sl.env().Send(memsys.ClassWB, memsys.BWBCtl, sl.tile, m.from, 0, sl.sys.pool.wbAck.New(msgWBAck{line: m.line}))
}
