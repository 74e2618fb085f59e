// Package mesi implements the paper's baseline: a blocking directory-based
// MESI protocol with an inclusive shared L2, as shipped with the Wisconsin
// GEMS simulator and modified for non-blocking writes (§3.3, §4.2), plus
// the MMemL1 variant ("Memory Controller to L1 Transfer" for MESI).
//
// The package is a state machine plus a message vocabulary over the
// internal/coher substrate: coher owns tile registration and dispatch,
// the store buffer, the line tables, the drain gates and the
// memory-controller front end, and memsys.Env's sends carry every
// message and charge it to the flit-hop ledger; this package owns the
// MESI states, the directory, and the handlers.
//
// Protocol shape reproduced here:
//   - line-granularity coherence, fetch-on-write everywhere;
//   - a blocking directory at the home L2 slice: requests to a line with a
//     transaction in flight are NACKed and retried;
//   - every transaction ends with a "directory unblock" control message
//     from the requesting L1 (the 65.3% of MESI overhead in §5.2.4);
//   - E state with silent E->M upgrade; S->M Upgrade requests;
//   - clean replacement notices (overhead traffic) and PutM writebacks;
//   - inclusive L2: evicting an L2 line recalls/invalidates L1 copies;
//   - L2->memory writebacks always move the full 64-byte line.
//
// MMemL1 exploits the blocking directory: on an L2 miss the memory
// controller sends data straight to the requesting L1; loads forward it to
// the L2 as a combined unblock+data message (profiled as load traffic),
// and stores never forward it at all, since the pending writeback would
// overwrite it (§3.3).
package mesi

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/coher"
	"repro/internal/memsys"
)

// Options selects the MESI variant. Name is the configuration name the
// engine reports (the registry spec it was resolved from).
type Options struct {
	Name    string
	MemToL1 bool // MMemL1
}

// System is a complete MESI memory system over the coher substrate. It
// sends every message through its environment's sends (memsys.Env), which
// charge the packet to the flit-hop ledger.
type System struct {
	env  *memsys.Env
	opt  Options
	l1s  []*l1Cache
	l2s  []*l2Slice
	mc   coher.MemCtl[*msgMemRead]
	pool pools
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

// Store implements memsys.Protocol.
func (s *System) Store(core int, addr uint32, val uint32) bool {
	return s.l1s[core].storePush(addr, val)
}

// SetStoreUnstall implements memsys.Protocol.
func (s *System) SetStoreUnstall(core int, fn func()) { s.l1s[core].storeUnstall = fn }

// Drain implements memsys.Protocol.
func (s *System) Drain(core int, done func()) { s.l1s[core].drain(done) }

// AtBarrier implements memsys.Protocol. MESI needs no global barrier
// action: invalidations keep caches coherent eagerly.
func (s *System) AtBarrier(written []uint8) {}

// Recycle implements memsys.Protocol.
func (s *System) Recycle() {
	for t := range s.l1s {
		s.l1s[t].c.Recycle()
		s.l2s[t].c.Recycle()
	}
}

// CheckInvariants verifies, at quiescence, that the system is coherent
// (CheckCoherence) and that no transaction is left over. Tests call it
// after Run.
func (s *System) CheckInvariants() error {
	for t, sl := range s.l2s {
		for _, line := range sl.dir.SortedLines() {
			if sl.dir.Get(line).busy != nil {
				return fmt.Errorf("mesi: tile %d line %#x still busy", t, line)
			}
		}
	}
	for t, l1 := range s.l1s {
		if l1.mshrs.Len() != 0 {
			return fmt.Errorf("mesi: tile %d has %d leftover MSHRs", t, l1.mshrs.Len())
		}
		if l1.wbBuf.Len() != 0 {
			return fmt.Errorf("mesi: tile %d has %d leftover victim-buffer entries", t, l1.wbBuf.Len())
		}
	}
	return s.CheckCoherence()
}

// CheckCoherence verifies every L1 line against its directory entry:
// inclusive L2 residency, an E or M copy only at the recorded owner, and
// an S copy only at a recorded sharer. Lines whose entry has a
// transaction in flight are skipped, so the check holds between any two
// events, not only at quiescence. Checked while a run is going, it
// catches a sharer the directory lost as long as the stale copy stays
// cached; by the end of the run such a copy is usually gone.
func (s *System) CheckCoherence() error {
	var err error
	for t, l1 := range s.l1s {
		tile := t
		l1.c.ForEach(func(ln *cache.Line) {
			if err != nil {
				return
			}
			home := s.l2s[s.env.Cfg.HomeTile(ln.Tag)]
			e := home.dir.Get(ln.Tag)
			if e != nil && e.busy != nil {
				return
			}
			if home.c.Lookup(ln.Tag) == nil || e == nil {
				err = fmt.Errorf("mesi: inclusivity violation: tile %d holds line %#x absent from L2", tile, ln.Tag)
				return
			}
			switch ln.State {
			case stE, stM:
				if int(e.owner) != tile {
					err = fmt.Errorf("mesi: line %#x held %d-state at tile %d but directory owner is %d",
						ln.Tag, ln.State, tile, e.owner)
				}
			case stS:
				if !e.sharers.has(tile) && int(e.owner) != tile {
					err = fmt.Errorf("mesi: line %#x shared at tile %d but not in sharer list", ln.Tag, tile)
				}
			}
		})
	}
	return err
}

// l2Words returns the words of line the home L2 currently holds valid
// data for (Figure 4.3's "address present in L2?" check at the MC): the
// whole line or none of it.
func (s *System) l2Words(line uint32) uint16 {
	sl := s.l2s[s.env.Cfg.HomeTile(line)]
	if sl.c.Lookup(line) == nil {
		return 0
	}
	if e := sl.dir.Get(line); e == nil || !e.hasData {
		return 0
	}
	return memsys.LineMask
}

// memReadDone ships a line read from DRAM to the requesting L1 (MMemL1)
// or the home slice, with values from the backing store and fresh
// memory-level waste instances for every word.
// The read is recycled here: the MC held it until now.
func (s *System) memReadDone(tile int, m *msgMemRead, _ []uint32, tAtMC, finish int64) {
	env := s.env
	var data [lineWords]uint32
	var minst [lineWords]uint64
	inL2 := s.l2Words(m.line)
	for w := 0; w < lineWords; w++ {
		a := memsys.AddrOf(m.line, w)
		data[w] = env.MemRead(a)
		minst[w] = env.Prof.MemFetch(a, inL2&(1<<w) != 0)
	}
	if m.direct {
		// MMemL1: straight to the requesting L1.
		d := s.pool.data.New(msgData{
			line: m.line, state: m.grant, data: data, minst: minst,
			fromMem: true, tIssue: m.tIssue, tAtMC: tAtMC, tDram: finish,
			class: m.class,
		})
		d.hops = env.Send(m.class, memsys.BRespCtl, tile, m.requestor, lineWords, d)
	} else {
		d := s.pool.memData.New(msgMemData{
			line: m.line, data: data, minst: minst, class: m.class,
			grant: m.grant, req: m.requestor,
			tIssue: m.tIssue, tAtMC: tAtMC, tDram: finish,
		})
		d.hops = env.Send(m.class, memsys.BRespCtl, tile, m.home, lineWords, d)
	}
	s.pool.memRead.Put(m)
}
