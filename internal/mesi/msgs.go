package mesi

import (
	"repro/internal/coher"
	"repro/internal/memsys"
)

// L1 line states (cache.Line.State).
const (
	stI uint8 = iota // invalid (only via Line.Valid=false in practice)
	stS              // shared
	stE              // exclusive clean
	stM              // modified
)

// Per-word state bit: the word was written by the local core (dirty).
const wDirty uint8 = 1

// lineWords mirrors memsys geometry for fixed-size message payloads.
const lineWords = memsys.WordsPerLine

// --- L1 -> home L2 requests ---

type msgGetS struct {
	line uint32
	from int
}

type msgGetX struct {
	line uint32
	from int
}

type msgUpgrade struct {
	line uint32
	from int
}

// msgPut is a writeback (dirty=true: PutM with data) or a clean
// replacement notice (dirty=false: control only).
type msgPut struct {
	line  uint32
	from  int
	dirty bool
	data  [lineWords]uint32
	wmask uint16 // words actually written by the core
	minst [lineWords]uint64
}

// msgUnblock finishes a directory transaction. Under MMemL1, load fills
// carry the memory data to the L2 as a combined unblock+data message.
type msgUnblock struct {
	line     uint32
	from     int
	withData bool
	data     [lineWords]uint32
	minst    [lineWords]uint64
	hops     int
}

// --- home L2 -> L1 ---

// msgData is any data fill destined to an L1 (from L2, from an owner L1,
// or from a memory controller under MMemL1).
type msgData struct {
	line  uint32
	state uint8 // granted state: stS, stE or stM
	acks  int   // invalidation acks the requestor must collect
	data  [lineWords]uint32
	minst [lineWords]uint64
	// transfer marks an ownership move (FwdGetX): the words are the same
	// on-chip copies, so the receiver must not add memory references.
	transfer bool
	fromMem  bool
	tIssue   int64 // copied from the request, for Figure 5.2
	tAtMC    int64
	tDram    int64
	hops     int
	class    memsys.Class
	// needsUnblock is false for 3-hop data from an owner (the requestor
	// still unblocks once, tracked by the MSHR).
}

type msgUpgAck struct {
	line uint32
	acks int
}

type msgNack struct {
	line    uint32
	from    int // tile that NACKed (home)
	isPut   bool
	isStore bool
}

// msgInv invalidates a sharer's copy. ackTo is the tile to acknowledge
// (the requestor for GetX/Upgrade, the home for L2 evictions).
type msgInv struct {
	line  uint32
	ackTo int
	toL2  bool // ack goes to the home L2 (recall), not an L1
}

type msgInvAck struct {
	line uint32
	from int
}

// msgFwd forwards a request to the owning L1.
type msgFwd struct {
	line      uint32
	requestor int
	excl      bool // GetX (ownership transfer) vs GetS (downgrade)
	tIssue    int64
}

// msgRecall asks the owner to surrender a line for an L2 eviction.
type msgRecall struct {
	line uint32
}

type msgRecallResp struct {
	line    uint32
	from    int
	hasData bool // owner was M (or held dirty data in its victim buffer)
	data    [lineWords]uint32
	wmask   uint16
}

// msgDowngradeWB carries the owner's data to the home L2 on a FwdGetS.
type msgDowngradeWB struct {
	line  uint32
	from  int
	data  [lineWords]uint32
	wmask uint16
}

type msgWBAck struct {
	line uint32
}

// --- L2 <-> memory controller ---

type msgMemRead struct {
	line      uint32
	home      int // L2 slice tile
	requestor int // core tile
	grant     uint8
	class     memsys.Class
	direct    bool // MMemL1: respond straight to the requestor L1
	tIssue    int64
}

type msgMemData struct {
	line   uint32
	data   [lineWords]uint32
	minst  [lineWords]uint64
	class  memsys.Class
	grant  uint8
	req    int
	tIssue int64
	tAtMC  int64
	tDram  int64
	hops   int
}

type msgMemWB struct {
	line  uint32
	data  [lineWords]uint32
	wmask uint16
}

// --- dispatch (coher.Msg) ---
//
// Each message routes itself to the right component of the destination
// tile; the coher substrate invokes Dispatch on delivery. Requests, puts
// and memory data enter their slice's Deferred queue, which runs the
// handler after the L2 access latency.
//
// A message has one owner at a time (coher.Pool): its sender, the mesh,
// then the handler that consumes it. Most kinds go back to their pool
// here, right after their handler; requests and puts go back after their
// Deferred handler, memory data and MMemL1 data unblocks once installed
// in the L2 (they can wait for a way), and memory reads once the MC
// answered them.

func (m *msgData) Dispatch(s *System, tile int)    { s.l1s[tile].handleData(m); s.pool.data.Put(m) }
func (m *msgUpgAck) Dispatch(s *System, tile int)  { s.l1s[tile].handleUpgAck(m); s.pool.upgAck.Put(m) }
func (m *msgNack) Dispatch(s *System, tile int)    { s.l1s[tile].handleNack(m); s.pool.nack.Put(m) }
func (m *msgInv) Dispatch(s *System, tile int)     { s.l1s[tile].handleInv(m); s.pool.inv.Put(m) }
func (m *msgInvAck) Dispatch(s *System, tile int)  { s.l1s[tile].handleInvAck(m); s.pool.invAck.Put(m) }
func (m *msgFwd) Dispatch(s *System, tile int)     { s.l1s[tile].handleFwd(m); s.pool.fwd.Put(m) }
func (m *msgRecall) Dispatch(s *System, tile int)  { s.l1s[tile].handleRecall(m); s.pool.recall.Put(m) }
func (m *msgWBAck) Dispatch(s *System, tile int)   { s.l1s[tile].handleWBAck(m); s.pool.wbAck.Put(m) }
func (m *msgGetS) Dispatch(s *System, tile int)    { s.l2s[tile].getS.Add(m) }
func (m *msgGetX) Dispatch(s *System, tile int)    { s.l2s[tile].getX.Add(m) }
func (m *msgUpgrade) Dispatch(s *System, tile int) { s.l2s[tile].upgrade.Add(m) }
func (m *msgPut) Dispatch(s *System, tile int)     { s.l2s[tile].put.Add(m) }
func (m *msgUnblock) Dispatch(s *System, tile int) { s.l2s[tile].handleUnblock(m) }
func (m *msgMemData) Dispatch(s *System, tile int) { s.l2s[tile].memData.Add(m) }
func (m *msgMemRead) Dispatch(s *System, tile int) { s.mc.Read(tile, m, m.line) }
func (m *msgRecallResp) Dispatch(s *System, tile int) {
	s.l2s[tile].handleRecallResp(m)
	s.pool.recallResp.Put(m)
}
func (m *msgDowngradeWB) Dispatch(s *System, tile int) {
	s.l2s[tile].handleDowngradeWB(m)
	s.pool.downgradeWB.Put(m)
}
func (m *msgMemWB) Dispatch(s *System, tile int) {
	s.mc.Write(tile, m.line, m.wmask, &m.data)
	s.pool.memWB.Put(m)
}

// pools holds one free list per message kind and per transaction record.
type pools struct {
	getS        coher.Pool[msgGetS]
	getX        coher.Pool[msgGetX]
	upgrade     coher.Pool[msgUpgrade]
	put         coher.Pool[msgPut]
	unblock     coher.Pool[msgUnblock]
	data        coher.Pool[msgData]
	upgAck      coher.Pool[msgUpgAck]
	nack        coher.Pool[msgNack]
	inv         coher.Pool[msgInv]
	invAck      coher.Pool[msgInvAck]
	fwd         coher.Pool[msgFwd]
	recall      coher.Pool[msgRecall]
	recallResp  coher.Pool[msgRecallResp]
	downgradeWB coher.Pool[msgDowngradeWB]
	wbAck       coher.Pool[msgWBAck]
	memRead     coher.Pool[msgMemRead]
	memData     coher.Pool[msgMemData]
	memWB       coher.Pool[msgMemWB]

	mshr coher.Pool[mshr]
	wb   coher.Pool[wbEntry]
	dir  coher.Pool[dirEntry]
	gen  uint64 // last generation handed to an MSHR or victim-buffer entry
}

// Compile-time check that the whole vocabulary dispatches.
var _ = []coher.Msg[*System]{
	(*msgGetS)(nil), (*msgGetX)(nil), (*msgUpgrade)(nil), (*msgPut)(nil),
	(*msgUnblock)(nil), (*msgData)(nil), (*msgUpgAck)(nil), (*msgNack)(nil),
	(*msgInv)(nil), (*msgInvAck)(nil), (*msgFwd)(nil), (*msgRecall)(nil),
	(*msgRecallResp)(nil), (*msgDowngradeWB)(nil), (*msgWBAck)(nil),
	(*msgMemRead)(nil), (*msgMemData)(nil), (*msgMemWB)(nil),
}
