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
	"repro/internal/waste"
)

// l2Fetch tracks one in-flight memory fetch for a line. Requests that
// cannot be satisfied while the fetch is in flight are queued (as copies
// it owns) and re-dispatched once the fill lands.
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
	evictCont coher.LineTable[evictState] // lines whose eviction waits on owner recalls (each gated)
	gate      coher.LineTable[[]lineOp]
	blooms    *bloom.L2Bank // holds the lines with a registered or dirty word (dirtyMask)
	pred      *bypassPredictor

	// Arriving requests, and registrations, writebacks and fills (line
	// operations), wait out the L2 access latency here before their
	// handler runs.
	loadReqs coher.Deferred[*dvnLoadReq]
	ops      coher.Deferred[lineOp]
	wayRetry coher.Deferred[lineOp] // operations whose set has every way busy

	fetchFree *l2Fetch
}

// lineOp is a registration, writeback or fill: an L2 step on one line
// that can wait, first behind the line's gate for its turn, then for a
// free way in the line's set. The message itself is what waits, so no
// closure holds it; it is recycled when the step completes.
type lineOp interface {
	opLine() uint32
	// apply runs the step once the line has a way; allocated reports
	// that a way had to be found for it.
	apply(sl *l2Slice, allocated bool)
}

func (m *dvnRegister) opLine() uint32                    { return m.line }
func (m *dvnRegister) apply(sl *l2Slice, allocated bool) { sl.registerInstalled(m, allocated) }
func (m *dvnWB) opLine() uint32                          { return m.line }
func (m *dvnWB) apply(sl *l2Slice, _ bool)               { sl.writebackInstalled(m) }
func (m *dvnL2Fill) opLine() uint32                      { return m.line }
func (m *dvnL2Fill) apply(sl *l2Slice, _ bool)           { sl.fillInstalled(m) }

// ownerMask is the words of a line registered to one L1.
type ownerMask struct {
	owner uint8
	mask  uint16
}

// addOwner sets word w in owner's mask, keeping om in ascending owner
// order: the deterministic order messages to the owners go out in.
func addOwner(om []ownerMask, owner uint8, w int) []ownerMask {
	i := 0
	for i < len(om) && om[i].owner < owner {
		i++
	}
	if i < len(om) && om[i].owner == owner {
		om[i].mask |= 1 << w
		return om
	}
	om = append(om, ownerMask{})
	copy(om[i+1:], om[i:])
	om[i] = ownerMask{owner, 1 << w}
	return om
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

// evictState tracks an eviction waiting on owner recalls, and the line
// operation waiting for the way it frees.
type evictState struct {
	pending int
	then    lineOp
}

func newL2(s *System, tile int) *l2Slice {
	cfg := s.env.Cfg
	sl := &l2Slice{
		sys:  s,
		tile: tile,
		c:    s.env.NewCache(cfg.L2SliceBytes, cfg.L2Assoc),
	}
	if s.opt.BypassReq {
		sl.blooms = bloom.NewL2Bank(cfg.Bloom)
	}
	if s.opt.PredictBypass {
		sl.pred = newBypassPredictor()
	}
	k, lat := s.env.K, cfg.L2Latency
	sl.loadReqs = coher.NewDeferred(k, lat, func(m *dvnLoadReq) {
		sl.serve(m, nil)
		s.pool.loadReq.Put(m)
	})
	sl.ops = coher.NewDeferred(k, lat, sl.handleOp)
	sl.wayRetry = coher.NewDeferred(k, cfg.RetryBackoff, sl.ensureWay)
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

func (sl *l2Slice) env() *memsys.Env { return sl.sys.env }

// lockLine serializes state mutations per line in arrival order. Timed
// retries would let an old writeback overtake a newer registration from
// the same L1; the FIFO gate preserves per-source message order instead.
// lockLine takes a free gate and returns true: the caller runs its
// mutation at once. On a gated line it returns false. Either way the
// mutation must arrange for unlockLine to run when it completes.
func (sl *l2Slice) lockLine(line uint32) bool {
	if sl.gate.Has(line) {
		return false
	}
	sl.gate.Put(line, nil)
	return true
}

// handleOp runs L2Latency cycles after a registration, writeback or fill
// arrives (ops): at once on a free gate, else queued behind it.
func (sl *l2Slice) handleOp(op lineOp) {
	line := op.opLine()
	if sl.lockLine(line) {
		sl.start(op)
		return
	}
	sl.gate.Put(line, append(sl.gate.Get(line), op))
}

// start runs a line operation that holds its line's gate: at once when
// the line is cached, else once a way is free.
func (sl *l2Slice) start(op lineOp) {
	if sl.c.Lookup(op.opLine()) == nil {
		sl.ensureWay(op)
		return
	}
	op.apply(sl, false)
}

func (sl *l2Slice) unlockLine(line uint32) {
	if !sl.gate.Has(line) {
		panic("denovo: unlock of ungated line")
	}
	q := sl.gate.Get(line)
	if len(q) == 0 {
		sl.gate.Delete(line)
		return
	}
	next := q[0]
	sl.gate.Put(line, q[1:])
	sl.start(next)
}

// markDirty keeps the counting Bloom filters of §4.4: it runs before a
// clean word of line becomes registered or dirty, and inserts the line
// when it is the line's first such word. A word stays registered or
// dirty until the line is evicted, which removes the line again.
func (sl *l2Slice) markDirty(line uint32) {
	if sl.blooms != nil && sl.dirtyMask(line) == 0 {
		sl.blooms.Insert(line)
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
	// The word lists are copied into the messages that carry them.
	var directBuf, deniedBuf, memBuf [2 * lineWords]uint32
	var fwdBuf [2 * lineWords]fwdWord
	direct, denied, memWords, fwd := directBuf[:0], deniedBuf[:0], memBuf[:0], fwdBuf[:0]
	nacked := false

	critLine := memsys.LineOf(m.crit)
	bypass := m.bypass
	if sl.pred != nil && !bypass && sl.pred.shouldBypass(critLine) {
		bypass = true
	}
	// Most wanted words share a line, and nothing in the loop changes the
	// array or the eviction table, so a line is probed once while it
	// repeats (cur is the line probed last; no line is ^0).
	cur, evicting, ln := ^uint32(0), false, (*cache.Line)(nil)
	for _, addr := range m.wants.s {
		line, w := memsys.LineOf(addr), memsys.WordIndex(addr)
		if line != cur {
			cur, evicting, ln = line, sl.evictCont.Has(line), sl.c.Lookup(line)
		}
		if evicting {
			nacked = true
			continue
		}
		if ln != nil {
			switch ln.WState[w] & l2StateMask {
			case l2Valid:
				direct = append(direct, addr)
				continue
			case l2Registered:
				if int(ln.Owner[w]) != m.from {
					fwd = append(fwd, fwdWord{ln.Owner[w], addr})
					continue
				}
				// Registered to the requestor itself: nothing to send
				// (it already owns the word); drop from the want set.
				denied = append(denied, addr)
				continue
			}
		}
		// Invalid at the L2 (or line absent): memory.
		if line != critLine && !(bypass && sl.sys.opt.FlexL2) {
			// Cross-line Flex prefetch is only fetched from memory by the
			// bypass+FlexL2 path; otherwise only on-chip copies serve it.
			denied = append(denied, addr)
			continue
		}
		memWords = append(memWords, addr)
	}

	if len(direct) > 0 {
		sl.sendFromArray(m, direct, stamp)
	}
	for owner := 0; len(fwd) > 0 && owner < env.Cfg.Tiles(); owner++ { // deterministic order
		var fr *dvnFwdRead
		for _, f := range fwd {
			if int(f.owner) != owner {
				continue
			}
			if fr == nil {
				fr = sl.sys.pool.fwdRead.New(dvnFwdRead{key: m.key, requestor: m.from, tIssue: m.tIssue})
			}
			fr.words.add(f.addr)
		}
		if fr != nil {
			env.Send(memsys.ClassLD, memsys.BReqCtl, sl.tile, owner, 0, fr)
		}
	}
	if nacked {
		// NACK: the requestor retries the whole remainder (§5.2.4).
		env.Send(memsys.ClassOVH, memsys.BOvhNack, sl.tile, m.from, 0,
			sl.sys.pool.nack.New(dvnNack{key: m.key, from: sl.tile}))
	}
	if len(denied) > 0 {
		d := sl.sys.pool.deny.New(dvnDeny{key: m.key})
		d.words.set(denied)
		env.Send(memsys.ClassLD, memsys.BRespCtl, sl.tile, m.from, 0, d)
	}
	if len(memWords) == 0 {
		return
	}
	slices.Sort(memWords)

	if bypass {
		// L2 response bypass: fetch straight to the L1, no L2 fill.
		sl.sendMemRead(m, critLine, memWords, true, false)
		return
	}

	if f := sl.fetch.Get(critLine); f != nil {
		// A fetch is already in flight: re-dispatch the remainder after
		// the fill.
		f.retry = append(f.retry, sl.requeue(m, memWords))
		return
	}

	f := sl.newFetch(critLine)
	sl.fetch.Put(critLine, f)
	if sl.sys.opt.MemToL1 {
		// §3.1 Memory Controller to L1 Transfer: data goes to the L1 and
		// the L2 in parallel; the request carries the dirty-word vector.
		sl.sendMemRead(m, critLine, memWords, true, true)
		return
	}
	// Baseline: memory fills the L2; the requestor is re-dispatched after
	// the fill and served from the array.
	f.retry = append(f.retry, sl.requeue(m, memWords))
	sl.sendMemRead(m, critLine, nil, false, true)
}

// requeue copies m, wanting only wants, for a fetch's retry list, which
// owns the copy until fillInstalled serves and recycles it.
func (sl *l2Slice) requeue(m *dvnLoadReq, wants []uint32) *dvnLoadReq {
	r := sl.sys.pool.loadReq.New(dvnLoadReq{key: m.key, crit: m.crit, from: m.from,
		bypass: m.bypass, flex: m.flex, tIssue: m.tIssue})
	r.wants.set(wants)
	return r
}

func (sl *l2Slice) sendMemRead(m *dvnLoadReq, critLine uint32, wants []uint32, direct, fillL2 bool) {
	mc := sl.env().Cfg.MCTile(critLine)
	rd := sl.sys.pool.memRead.New(dvnMemRead{
		key: m.key, critLine: critLine,
		noReturn: sl.dirtyMask(critLine),
		home:     sl.tile, requestor: m.from,
		direct: direct, fillL2: fillL2,
		flex:  m.flex && sl.sys.opt.FlexL2,
		class: memsys.ClassLD, tIssue: m.tIssue,
	})
	rd.wants.set(wants)
	sl.env().Send(memsys.ClassLD, memsys.BReqCtl, sl.tile, mc, 0, rd)
}

// sendFromArray serves words from the L2 data array: genuine L2 reuse, so
// the words classify as Used at the L2 (Figure 4.2) — unless this is the
// immediate forward of a fill (stamp != nil), which is the L1's copy, not
// L2 reuse.
func (sl *l2Slice) sendFromArray(m *dvnLoadReq, words []uint32, stamp *memStamp) {
	env := sl.env()
	d := sl.sys.pool.data.New(dvnData{key: m.key})
	for _, addr := range words {
		ln := sl.c.Lookup(memsys.LineOf(addr))
		w := memsys.WordIndex(addr)
		d.words.add(dataWord{addr: addr, val: ln.Data[w], minst: ln.MInst[w]})
		if stamp == nil {
			env.Prof.L2Served(&ln.Inst[w])
			if ln.State < 255 {
				ln.State++ // reuse count for the bypass predictor
			}
		}
		sl.c.Touch(ln)
	}
	if stamp != nil {
		d.fromMem = true
		d.tAtMC, d.tDram = stamp.tAtMC, stamp.tDram
	}
	d.hops = env.Send(memsys.ClassLD, memsys.BRespCtl, sl.tile, m.from, len(words), d)
}

// --- registration (§2) ---

// registerInstalled applies a registration once the line has a way (fresh
// when one had to be found), then recycles it.
func (sl *l2Slice) registerInstalled(m *dvnRegister, fresh bool) {
	env := sl.env()
	ln := sl.c.Allocate(m.line)
	var buf [lineWords]ownerMask
	invals := buf[:0]
	for w := 0; w < lineWords; w++ {
		if m.mask&(1<<w) == 0 {
			continue
		}
		switch ln.WState[w] & l2StateMask {
		case l2Registered:
			old := ln.Owner[w]
			if int(old) != m.from {
				invals = addOwner(invals, old, w)
			}
		case l2Valid:
			// The L2's clean copy dies before use: Write waste (Fig 4.2).
			env.Prof.Release(1<<w, waste.Write, ln.Inst, ln.MInst, false)
			sl.markDirty(m.line)
		case l2Invalid:
			sl.markDirty(m.line)
		}
		ln.WState[w] = l2Registered | (ln.WState[w] &^ (l2StateMask | l2Dirty))
		ln.Owner[w] = uint8(m.from)
		ln.Inst[w] = 0
	}
	for _, o := range invals { // ascending owner: deterministic order
		env.Send(memsys.ClassST, memsys.BReqCtl, sl.tile, int(o.owner), 0,
			sl.sys.pool.inval.New(dvnInvalWord{line: m.line, mask: o.mask}))
	}
	// Baseline DeNovo keeps a fetch-on-write L2: a write miss fetches the
	// rest of the line from memory (§3.1).
	if fresh && !sl.sys.opt.ValidateL2 {
		sl.fetchForWrite(m.line)
	}
	env.Send(memsys.ClassST, memsys.BRespCtl, sl.tile, m.from, 0,
		sl.sys.pool.regAck.New(dvnRegAck{line: m.line, mask: m.mask}))
	line := m.line
	sl.sys.pool.register.Put(m)
	sl.unlockLine(line)
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
	sl.env().Send(memsys.ClassST, memsys.BReqCtl, sl.tile, mc, 0, sl.sys.pool.memRead.New(dvnMemRead{
		key: line, critLine: line,
		noReturn: sl.dirtyMask(line),
		home:     sl.tile, requestor: -1,
		fillL2: true, class: memsys.ClassST,
	}))
}

// --- writebacks ---

// writebackInstalled applies a writeback once the line has a way, then
// recycles it.
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
			env.Prof.Release(1<<w, waste.Write, ln.Inst, ln.MInst, false)
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
	env.Send(memsys.ClassWB, memsys.BWBCtl, sl.tile, m.from, 0, sl.sys.pool.wbAck.New(dvnWBAck{line: m.line}))
	line := m.line
	sl.sys.pool.wb.Put(m)
	sl.unlockLine(line)
}

// --- fills ---

// fillInstalled installs memory data once the line has a way, serves the
// requests that waited for it, then recycles the fill.
func (sl *l2Slice) fillInstalled(m *dvnL2Fill) {
	env := sl.env()
	ln := sl.c.Allocate(m.line)
	var present uint16 // words the L2 already has: the shipped copy is dropped
	for w := 0; w < lineWords; w++ {
		switch {
		case m.mask&(1<<w) == 0:
		case ln.WState[w]&l2StateMask != l2Invalid:
			present |= 1 << w
		default:
			ln.Data[w] = m.vals[w]
			ln.WState[w] = l2Valid
			ln.MInst[w] = m.minsts[w]
		}
	}
	env.Traffic.Fill(m.class, m.hops, waste.LevelL2, m.mask, present, ln.Inst, ln.MInst, true)
	for w := 0; w < lineWords; w++ {
		if present&(1<<w) != 0 {
			env.Prof.MemRelease(m.minsts[w], false)
		}
	}

	f := sl.fetch.Get(m.line)
	sl.fetch.Delete(m.line)
	line, stamp := m.line, memStamp{tAtMC: m.tAtMC, tDram: m.tDram}
	sl.sys.pool.fill.Put(m)
	sl.unlockLine(line)
	if f == nil {
		return
	}
	for _, req := range f.retry {
		sl.serve(req, &stamp)
		sl.sys.pool.loadReq.Put(req)
	}
	// The table no longer holds f and its retries are dispatched: recycle.
	clear(f.retry)
	f.next = sl.fetchFree
	sl.fetchFree = f
}

// --- eviction ---

// ensureWay guarantees a free way in op's set, then applies op.
func (sl *l2Slice) ensureWay(op lineOp) {
	victim := sl.c.VictimWhere(op.opLine(), func(l *cache.Line) bool {
		// An evicting line is gated too.
		return !sl.gate.Has(l.Tag) && !sl.fetch.Has(l.Tag)
	})
	if victim == nil {
		sl.wayRetry.Add(op)
		return
	}
	if !victim.Valid {
		op.apply(sl, true)
		return
	}
	// op runs synchronously when the eviction finishes and claims the
	// freed way immediately (every apply Allocates first thing), so
	// concurrent allocations cannot steal it and livelock the set.
	sl.evictLine(victim, op)
}

// evictLine recalls registered words from their owners, writes dirty words
// to memory, and frees the way for then.
func (sl *l2Slice) evictLine(ln *cache.Line, then lineOp) {
	line := ln.Tag
	// The victim is ungated (VictimWhere guarantees it); take its gate so
	// arriving registrations/writebacks queue behind the eviction.
	sl.lockLine(line)
	var buf [lineWords]ownerMask
	owners := buf[:0]
	for w := 0; w < lineWords; w++ {
		if ln.WState[w]&l2StateMask == l2Registered {
			owners = addOwner(owners, ln.Owner[w], w)
		}
	}
	if len(owners) == 0 {
		sl.finishEvict(ln, then)
		return
	}
	sl.evictCont.Put(line, evictState{pending: len(owners), then: then})
	for _, o := range owners { // ascending owner: deterministic order
		sl.env().Send(memsys.ClassWB, memsys.BWBCtl, sl.tile, int(o.owner), 0,
			sl.sys.pool.recall.New(dvnRecall{line: line, mask: o.mask}))
	}
}

func (sl *l2Slice) handleRecallResp(m *dvnRecallResp) {
	ln := sl.c.Lookup(m.line)
	st := sl.evictCont.Get(m.line) // an eviction waits on at least one owner
	if st.pending == 0 || ln == nil {
		panic(fmt.Sprintf("denovo: slice %d recall resp line %#x from %d mask %04x: evicting=%v ln=%v gated=%v",
			sl.tile, m.line, m.from, m.mask, st.pending > 0, ln != nil, sl.gate.Has(m.line)))
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
	if st.pending > 0 {
		sl.evictCont.Put(m.line, st)
		return
	}
	sl.evictCont.Delete(m.line)
	sl.finishEvict(ln, st.then)
}

// finishEvict writes dirty words back to memory (dirty-words-only with
// ValidateL2; the full line otherwise), removes the line and applies
// then in the freed way.
func (sl *l2Slice) finishEvict(ln *cache.Line, then lineOp) {
	env := sl.env()
	line := ln.Tag
	var dirty uint16
	var vals [lineWords]uint32
	for w := 0; w < lineWords; w++ {
		if ln.WState[w]&l2Dirty != 0 {
			dirty |= 1 << w
			vals[w] = ln.Data[w]
		}
	}
	env.Prof.Release(memsys.LineMask, waste.Evict, ln.Inst, ln.MInst, false)
	if dirty != 0 {
		msg := sl.sys.pool.memWB.New(msgMemWBPartial{line: line, mask: dirty, vals: vals})
		mc := env.Cfg.MCTile(line)
		nDirty := bits.OnesCount16(dirty)
		clean := 0
		if !sl.sys.opt.ValidateL2 {
			// Baseline: the full 64B line travels to memory.
			clean = lineWords - nDirty
		}
		env.SendWB(true, sl.tile, mc, nDirty, clean, msg)
	}
	if sl.blooms != nil && sl.dirtyMask(line) != 0 {
		sl.blooms.Remove(line)
	}
	if sl.pred != nil {
		sl.pred.train(line, ln.State > 0)
	}
	sl.c.Remove(ln)
	// The waiting allocation claims the freed way synchronously BEFORE the
	// gate releases queued operations, which could otherwise steal it and
	// force a silent eviction of a line that is mid-recall.
	then.apply(sl, true)
	sl.unlockLine(line)
}

// --- Bloom copies (§4.4) ---

func (sl *l2Slice) handleBloomReq(m *dvnBloomReq) {
	snap := sl.sys.snapshot(sl.blooms, m.idx)
	// The snapshot payload is entries/8 bytes (64B for the paper's 512
	// entries): one control flit plus the data flits it fills, all of it
	// overhead.
	sl.env().SendOverhead(memsys.BOvhBloom, sl.tile, m.from, (snap.SizeBytes()+3)/4, sl.sys.pool.bloomResp.New(dvnBloomResp{
		idx: m.idx, slice: sl.tile, snap: snap,
	}))
}
