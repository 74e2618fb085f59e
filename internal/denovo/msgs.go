package denovo

import (
	"repro/internal/bloom"
	"repro/internal/coher"
	"repro/internal/memsys"
)

// L1 per-word states (cache.Line.WState).
const (
	wInvalid uint8 = iota
	wValid
	wRegistered // written and registered (or registration pending)
)

// L2 per-word states (low bits of WState); l2Dirty marks words newer than
// memory (written back from an L1).
const (
	l2Invalid uint8 = iota
	l2Valid
	l2Registered
	l2StateMask uint8 = 0x3
	l2Dirty     uint8 = 0x4
)

const lineWords = memsys.WordsPerLine

// wordList is a message's list of word addresses, carried inline up to
// twice a line's words: a request wants at most the Flex packet cap
// (MaxDataWords) plus the critical word, which the default four-flit
// packets keep inside that capacity; a longer list spills to the heap. A
// record is filled through set and add only, never copied as a whole, so
// its slice never points into another record.
type wordList = inline[uint32]

// inline is a list carried in its record up to 2*lineWords entries.
type inline[T any] struct {
	s   []T
	buf [2 * lineWords]T
}

func (l *inline[T]) add(v T) {
	if l.s == nil {
		l.s = l.buf[:0]
	}
	l.s = append(l.s, v)
}

func (l *inline[T]) set(vs []T) { l.s = append(l.buf[:0], vs...) }

// --- L1 -> home L2 ---

// dvnLoadReq asks the home slice for a set of words. key is the critical
// line, used to route responses back to the requestor's MSHR. Under Flex
// the want set may span lines (the region's communication region).
type dvnLoadReq struct {
	key    uint32 // critical line
	crit   uint32 // critical word address
	from   int
	wants  wordList // word addresses, critical word included
	bypass bool     // region is L2-response-bypassed
	flex   bool     // region has a communication region and Flex is on
	tIssue int64
}

// dvnRegister records ownership of written words at the registry (§2).
type dvnRegister struct {
	line uint32
	from int
	mask uint16
}

type dvnRegAck struct {
	line uint32
	mask uint16
}

// dvnWB is a writeback of registered words, possibly combined with a
// pending registration ("combined writeback and register message", §4.2).
type dvnWB struct {
	line uint32
	from int
	mask uint16 // words carried (registered or pending registration)
	vals [lineWords]uint32
}

type dvnWBAck struct {
	line uint32
}

// --- home L2 -> L1 ---

// dataWord is one word a dvnData delivers: its address, value and memory
// instance.
type dataWord struct {
	addr, val uint32
	minst     uint64
}

// dvnData delivers word values to a requesting L1 (from the L2 array, a
// remote owner, or the memory controller).
type dvnData struct {
	key     uint32
	words   inline[dataWord]
	fromMem bool
	tAtMC   int64
	tDram   int64
	hops    int
}

// dvnDeny tells the requestor that some flex-prefetch words will not be
// delivered (not on-chip and outside the memory fetch scope).
type dvnDeny struct {
	key   uint32
	words wordList
}

// dvnFwdRead asks a registered owner to send words to the requestor.
type dvnFwdRead struct {
	key       uint32
	requestor int
	words     wordList
	tIssue    int64
}

// dvnInvalWord invalidates superseded copies of a line's words at a
// previous registrant.
type dvnInvalWord struct {
	line uint32
	mask uint16
}

// dvnRecall asks an owner to surrender registered words for an L2
// eviction; the owner invalidates its copies.
type dvnRecall struct {
	line uint32
	mask uint16
}

type dvnRecallResp struct {
	line uint32
	from int
	mask uint16
	vals [lineWords]uint32
}

// dvnNack bounces a request for a line under eviction (§5.2.4: NACKs are
// DeNovo's only baseline overhead).
type dvnNack struct {
	key  uint32
	from int
}

// --- L2 / L1 <-> memory controller ---

// dvnMemRead fetches words from memory. wants lists the word addresses to
// return to the requestor (empty when only the L2 fill matters). noReturn
// masks critical-line words that are dirty on-chip and must be filtered
// (§3.1, "Memory Controller to L1 Transfer").
type dvnMemRead struct {
	key       uint32
	critLine  uint32
	wants     wordList
	noReturn  uint16
	home      int
	requestor int
	direct    bool // respond to the requestor L1
	fillL2    bool // send an L2 fill
	flex      bool // drop non-wanted words as Excess (L2 Flex, §3.1)
	class     memsys.Class
	tIssue    int64
}

// dvnL2Fill installs memory data at the home slice.
type dvnL2Fill struct {
	line   uint32
	mask   uint16
	vals   [lineWords]uint32
	minsts [lineWords]uint64
	class  memsys.Class
	hops   int
	tAtMC  int64
	tDram  int64
}

// --- Bloom filter copies (§4.4) ---

type dvnBloomReq struct {
	idx  int
	from int
}

// dvnBloomResp carries a filter snapshot, which the receiver merges into
// its copy and recycles with the message.
type dvnBloomResp struct {
	idx   int
	slice int
	snap  *bloom.Filter
}

// --- dispatch (coher.Msg) ---
//
// Each message routes itself to the right component of the destination
// tile; the coher substrate invokes Dispatch on delivery. Load requests,
// registrations, writebacks and fills enter their slice's Deferred queue,
// which runs the handler after the L2 access latency.
//
// A message has one owner at a time (coher.Pool): its sender, the mesh,
// then the handler that consumes it. Most kinds go back to their pool
// here, right after their handler; load requests go back after they were
// served, registrations, writebacks and fills once their step on the line
// completes (they can wait behind the line's gate and for a way), and
// memory reads once the MC answered them.

func (m *dvnData) Dispatch(s *System, tile int) { s.l1s[tile].handleData(m); s.pool.data.Put(m) }
func (m *dvnDeny) Dispatch(s *System, tile int) { s.l1s[tile].handleDeny(m); s.pool.deny.Put(m) }
func (m *dvnFwdRead) Dispatch(s *System, tile int) {
	s.l1s[tile].handleFwdRead(m)
	s.pool.fwdRead.Put(m)
}
func (m *dvnInvalWord) Dispatch(s *System, tile int) {
	s.l1s[tile].handleInvalWord(m)
	s.pool.inval.Put(m)
}
func (m *dvnRecall) Dispatch(s *System, tile int) { s.l1s[tile].handleRecall(m); s.pool.recall.Put(m) }
func (m *dvnRegAck) Dispatch(s *System, tile int) { s.l1s[tile].handleRegAck(m); s.pool.regAck.Put(m) }
func (m *dvnWBAck) Dispatch(s *System, tile int)  { s.l1s[tile].handleWBAck(m); s.pool.wbAck.Put(m) }
func (m *dvnNack) Dispatch(s *System, tile int)   { s.l1s[tile].handleNack(m); s.pool.nack.Put(m) }
func (m *dvnBloomResp) Dispatch(s *System, tile int) {
	s.l1s[tile].handleBloomResp(m)
	s.snaps = append(s.snaps, m.snap)
	s.pool.bloomResp.Put(m)
}
func (m *dvnLoadReq) Dispatch(s *System, tile int)  { s.l2s[tile].loadReqs.Add(m) }
func (m *dvnRegister) Dispatch(s *System, tile int) { s.l2s[tile].ops.Add(m) }
func (m *dvnWB) Dispatch(s *System, tile int)       { s.l2s[tile].ops.Add(m) }
func (m *dvnL2Fill) Dispatch(s *System, tile int)   { s.l2s[tile].ops.Add(m) }
func (m *dvnRecallResp) Dispatch(s *System, tile int) {
	s.l2s[tile].handleRecallResp(m)
	s.pool.recallResp.Put(m)
}
func (m *dvnBloomReq) Dispatch(s *System, tile int) {
	s.l2s[tile].handleBloomReq(m)
	s.pool.bloomReq.Put(m)
}
func (m *dvnMemRead) Dispatch(s *System, tile int) { s.handleMemRead(tile, m) }
func (m *msgMemWBPartial) Dispatch(s *System, tile int) {
	s.mc.Write(tile, m.line, m.mask, &m.vals)
	s.pool.memWB.Put(m)
}

// Compile-time check that the whole vocabulary dispatches.
var _ = []coher.Msg[*System]{
	(*dvnLoadReq)(nil), (*dvnRegister)(nil), (*dvnWB)(nil), (*dvnData)(nil),
	(*dvnDeny)(nil), (*dvnFwdRead)(nil), (*dvnInvalWord)(nil), (*dvnRecall)(nil),
	(*dvnRecallResp)(nil), (*dvnRegAck)(nil), (*dvnWBAck)(nil), (*dvnNack)(nil),
	(*dvnL2Fill)(nil), (*dvnBloomReq)(nil), (*dvnBloomResp)(nil),
	(*dvnMemRead)(nil), (*msgMemWBPartial)(nil),
}

// pools holds one free list per message kind and per transaction record.
type pools struct {
	loadReq    coher.Pool[dvnLoadReq]
	register   coher.Pool[dvnRegister]
	regAck     coher.Pool[dvnRegAck]
	wb         coher.Pool[dvnWB]
	wbAck      coher.Pool[dvnWBAck]
	data       coher.Pool[dvnData]
	deny       coher.Pool[dvnDeny]
	fwdRead    coher.Pool[dvnFwdRead]
	inval      coher.Pool[dvnInvalWord]
	recall     coher.Pool[dvnRecall]
	recallResp coher.Pool[dvnRecallResp]
	nack       coher.Pool[dvnNack]
	memRead    coher.Pool[dvnMemRead]
	fill       coher.Pool[dvnL2Fill]
	bloomReq   coher.Pool[dvnBloomReq]
	bloomResp  coher.Pool[dvnBloomResp]
	memWB      coher.Pool[msgMemWBPartial]

	mshr   coher.Pool[mshr]
	victim coher.Pool[wbEntry]
	gen    uint64 // last generation handed to an MSHR
}
