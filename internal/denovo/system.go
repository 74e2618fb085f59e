// Package denovo implements the DeNovo hardware-software coherence
// protocol of Choi et al. and the thesis' optimization stack (§2, §3):
//
//   - word-level coherence: L1 words are Invalid, Valid or Registered;
//     the shared L2 doubles as the registry, tracking per-word ownership;
//   - no sharer lists, no invalidation broadcasts, no transient states:
//     data-race-free software plus self-invalidation at barriers replace
//     them (the written regions of the finished phase are invalidated in
//     every L1, sparing registered words);
//   - write-validate L1: stores complete locally and register
//     asynchronously through a 32-entry write-combining table with a
//     10,000-cycle timeout (§4.2);
//   - optional L2 write-validate + dirty-words-only writebacks
//     (DValidateL2), memory-controller-to-L1 transfer (DMemL1), Flex
//     communication-granularity responses on-chip (DFlexL1) and at the MC
//     (DFlexL2, with conventional line-granularity DRAM: dropped words
//     are the Excess waste of Figure 5.3c), L2 response bypass (DBypL2)
//     and Bloom-filter-guarded L2 request bypass (DBypFull, §4.4).
//
// Like internal/mesi, the package is a state machine plus a message
// vocabulary over the internal/coher substrate, which owns dispatch, the
// line tables, the drain gates and the memory-controller front end;
// messages travel through memsys.Env's sends, which charge the flit-hop
// ledger.
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

// Options compose the protocol variants of §3.2. The fields are the
// orthogonal optimization knobs the registry in internal/core exposes as
// composable option tokens.
type Options struct {
	// Name is the configuration name the engine reports: the registry
	// spec it was resolved from.
	Name string

	FlexL1     bool // Flex for on-chip responses
	ValidateL2 bool // L2 write-validate + dirty-words-only L2->Mem WB
	MemToL1    bool // MC sends data to L1 and L2 in parallel
	FlexL2     bool // Flex applied at the memory controller
	BypassResp bool // L2 response bypass for annotated regions
	BypassReq  bool // L2 request bypass (Bloom filters)

	// PredictBypass replaces the software bypass annotations with a
	// hardware counter-based reuse predictor at each L2 slice — the
	// hardware-only alternative the paper's related-work section names as
	// follow-up study (see predictor.go). Extension beyond the paper's
	// nine configurations.
	PredictBypass bool
}

// System is a complete DeNovo memory system over the coher substrate. It
// sends every message through its environment's sends (memsys.Env), which
// charge the packet to the flit-hop ledger.
type System struct {
	env  *memsys.Env
	opt  Options
	l1s  []*l1Cache
	l2s  []*l2Slice
	mc   coher.MemCtl[*dvnMemRead]
	pool pools

	memLines []uint32        // handleMemRead's line list, copied by mc.Read
	snaps    []*bloom.Filter // Bloom snapshots free for the next copy response
}

// snapshot returns a copy of filter idx of bank for a Bloom-copy
// response, in a recycled filter when one is free. The receiving L1
// merges it and hands it back (dvnBloomResp.Dispatch).
func (s *System) snapshot(bank *bloom.L2Bank, idx int) *bloom.Filter {
	n := len(s.snaps)
	if n == 0 {
		return bank.Snapshot(idx)
	}
	f := s.snaps[n-1]
	s.snaps = s.snaps[:n-1]
	bank.SnapshotInto(idx, f)
	return f
}

// New builds the protocol engine and registers its tiles on the mesh.
func New(env *memsys.Env, opt Options) *System {
	s := &System{env: env, opt: opt}
	s.mc = coher.NewMemCtl(env, s.memReadDone)
	n := env.Cfg.Tiles()
	s.l1s = make([]*l1Cache, n)
	s.l2s = make([]*l2Slice, n)
	for t := 0; t < n; t++ {
		s.l1s[t] = newL1(s, t)
		s.l2s[t] = newL2(s, t)
	}
	coher.RegisterTiles(env, s.deliver)
	return s
}

// deliver dispatches a payload the mesh delivered to tile.
func (s *System) deliver(p any, tile int) {
	m, ok := p.(coher.Msg[*System])
	if !ok {
		coher.Foreign(p, s, tile)
	}
	m.Dispatch(s, tile)
}

// Name implements memsys.Protocol.
func (s *System) Name() string { return s.opt.Name }

// Load implements memsys.Protocol.
func (s *System) Load(core int, addr uint32, done func(uint32, memsys.Sample)) {
	s.l1s[core].loads.Add(coher.Load{Addr: addr, Done: done})
}

// Store implements memsys.Protocol. DeNovo stores are write-validate:
// they complete locally and never stall the core (§3.1).
func (s *System) Store(core int, addr uint32, val uint32) bool {
	s.l1s[core].store(addr, val)
	return true
}

// SetStoreUnstall implements memsys.Protocol (unused: stores never stall).
func (s *System) SetStoreUnstall(core int, fn func()) {}

// Drain implements memsys.Protocol: flush the write-combining table and
// wait for all registrations and writebacks to be acknowledged.
func (s *System) Drain(core int, done func()) { s.l1s[core].drain(done) }

// AtBarrier implements memsys.Protocol: self-invalidate the regions
// written during the finished phase in every L1 and clear the L1 Bloom
// filter copies (§2, §4.4).
func (s *System) AtBarrier(written []uint8) {
	for _, l1 := range s.l1s {
		l1.selfInvalidate(written)
		if s.opt.BypassReq {
			l1.blooms.ClearAll()
		}
	}
}

// Recycle implements memsys.Protocol.
func (s *System) Recycle() {
	for t, l1 := range s.l1s {
		l2 := s.l2s[t]
		l1.c.Recycle()
		l2.c.Recycle()
		if s.opt.BypassReq {
			l1.blooms.Recycle()
			l2.blooms.Recycle()
		}
	}
}

// l2Words returns the words of line valid at its home L2: the Figure 4.3
// "address present in L2?" check.
func (s *System) l2Words(line uint32) uint16 {
	ln := s.l2s[s.env.Cfg.HomeTile(line)].c.Lookup(line)
	if ln == nil {
		return 0
	}
	var m uint16
	for w, st := range ln.WState {
		if st&l2StateMask == l2Valid {
			m |= 1 << w
		}
	}
	return m
}

// msgMemWBPartial writes a set of dirty words back to DRAM. With
// ValidateL2 only the dirty words travel (partial DRAM writes, §3.1);
// the baseline writes the full line.
type msgMemWBPartial struct {
	line uint32
	mask uint16
	vals [lineWords]uint32
}

// rowOf returns the DRAM row identifier of a line (for the L2 Flex
// same-row constraint, §3.1).
func (s *System) rowOf(line uint32) uint32 {
	return (line << memsys.LineShift) / s.env.Cfg.DRAM.RowBytes
}

// handleMemRead picks the lines a fetch reads at an MC tile: always the
// critical line; with Flex at the MC, also other lines holding wanted
// words if they share the critical line's DRAM row (row activation is
// expensive, §3.1).
func (s *System) handleMemRead(tile int, m *dvnMemRead) {
	lines := append(s.memLines[:0], m.critLine)
	if m.flex {
		critRow := s.rowOf(m.critLine)
		for _, w := range m.wants.s {
			ln := memsys.LineOf(w)
			if !slices.Contains(lines, ln) && s.rowOf(ln) == critRow {
				lines = append(lines, ln)
			}
		}
	}
	s.memLines = lines
	s.mc.Read(tile, m, lines...)
}

// memReadDone assembles and sends the responses once DRAM delivers: it
// filters words dirty on chip, applies the Flex communication region
// (dropping unsent words as Excess), and responds to the L1 and/or the
// home L2. The read is recycled here: the MC held it until now.
func (s *System) memReadDone(tile int, m *dvnMemRead, lines []uint32, tAtMC, tDram int64) {
	env := s.env
	var resp *dvnData // the requestor's words
	var deniedBuf [2 * lineWords]uint32
	denied := deniedBuf[:0] // wanted words memory cannot supply
	if m.direct {
		resp = s.pool.data.New(dvnData{key: m.key, fromMem: true, tAtMC: tAtMC, tDram: tDram})
	}
	var fillBuf [4]*dvnL2Fill
	fillOrder := fillBuf[:0]

	for _, ln := range lines {
		var fill *dvnL2Fill
		if m.fillL2 {
			fill = s.pool.fill.New(dvnL2Fill{line: ln, class: m.class, tAtMC: tAtMC, tDram: tDram})
			fillOrder = append(fillOrder, fill)
		}
		inL2 := s.l2Words(ln)
		// noReturn names the critical line's words dirty on chip; another
		// line's are read from its home slice now.
		stale := m.noReturn
		if ln != m.critLine {
			stale = s.l2s[env.Cfg.HomeTile(ln)].dirtyMask(ln)
		}
		for w := 0; w < lineWords; w++ {
			a := memsys.AddrOf(ln, w)
			wanted := slices.Contains(m.wants.s, a)
			if stale&(1<<w) != 0 { // memory's copy is stale
				if wanted {
					denied = append(denied, a)
				}
				continue
			}
			sendL1 := wanted && m.direct
			sendL2 := fill != nil && (!m.flex || wanted)
			if !sendL1 && !sendL2 {
				if m.flex {
					env.Prof.MemExcess(a) // fetched from DRAM, dropped here
				}
				continue
			}
			mi := env.Prof.MemFetch(a, inL2&(1<<w) != 0)
			if sendL1 {
				resp.words.add(dataWord{addr: a, val: env.MemRead(a), minst: mi})
			}
			if sendL2 {
				fill.mask |= 1 << w
				fill.vals[w] = env.MemRead(a)
				fill.minsts[w] = mi
			}
		}
	}

	if m.direct {
		resp.hops = env.Send(m.class, memsys.BRespCtl, tile, m.requestor, len(resp.words.s), resp)
		// Deny wanted words on lines that were not fetched, too.
		for _, w := range m.wants.s {
			if !slices.Contains(lines, memsys.LineOf(w)) {
				denied = append(denied, w)
			}
		}
		if len(denied) > 0 {
			d := s.pool.deny.New(dvnDeny{key: m.key})
			d.words.set(denied)
			env.Send(m.class, memsys.BRespCtl, tile, m.requestor, 0, d)
		}
	}
	for _, fill := range fillOrder {
		// Even an empty fill must be delivered: the home slice's fetch
		// entry pins the line until the fill lands.
		fill.hops = env.Send(m.class, memsys.BRespCtl, tile, m.home, bits.OnesCount16(fill.mask), fill)
	}
	s.pool.memRead.Put(m)
}

// CheckInvariants verifies protocol sanity at quiescence: every word
// registered at an L2 is registered at exactly the recorded owner, no
// in-flight transactions remain, and write-combining tables are empty.
func (s *System) CheckInvariants() error {
	for t, l1 := range s.l1s {
		if l1.mshrs.Len() != 0 {
			return fmt.Errorf("denovo: tile %d has %d leftover MSHRs", t, l1.mshrs.Len())
		}
		if l1.wc.Len() != 0 {
			return fmt.Errorf("denovo: tile %d has %d leftover WC entries", t, l1.wc.Len())
		}
		if l1.pendingRegs != 0 {
			return fmt.Errorf("denovo: tile %d has %d unacked registrations", t, l1.pendingRegs)
		}
		if l1.wbBuf.Len() != 0 {
			return fmt.Errorf("denovo: tile %d has %d leftover victim buffers", t, l1.wbBuf.Len())
		}
	}
	var err error
	for t, sl := range s.l2s {
		if sl.evictCont.Len() != 0 {
			return fmt.Errorf("denovo: slice %d has %d leftover evictions", t, sl.evictCont.Len())
		}
	}
	// Registration consistency.
	for _, sl := range s.l2s {
		sl.c.ForEach(func(ln *cache.Line) {
			if err != nil {
				return
			}
			for w := 0; w < lineWords; w++ {
				if ln.WState[w]&l2StateMask != l2Registered {
					continue
				}
				owner := int(ln.Owner[w])
				ol := s.l1s[owner].c.Lookup(ln.Tag)
				if ol == nil || ol.WState[w] != wRegistered {
					err = fmt.Errorf("denovo: word %#x registered to %d who does not hold it",
						memsys.AddrOf(ln.Tag, w), owner)
					return
				}
			}
		})
	}
	return err
}
