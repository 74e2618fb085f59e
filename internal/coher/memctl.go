package coher

import (
	"slices"

	"repro/internal/dram"
	"repro/internal/memsys"
)

// MemCtl is the memory-controller front end both protocol families share.
// An access waits Config.MCLatency at the MC tile, where a writeback's
// words reach the backing store; then each of its lines bursts on the
// first (critical) line's DRAM channel, in line order. A read completes at
// its last burst, and the family's done callback decides which words ship
// where. R is the family's read message. Records are free-listed, and
// each access is one Kernel.AtArg event.
type MemCtl[R any] struct {
	env  *memsys.Env
	done func(tile int, rd R, lines []uint32, tAtMC, tDram int64)
	fire func(any) // runMemOp[R]; built once, since a generic function value made per call would allocate
	free *memOp[R]
}

// memOp is one access in flight at a memory controller.
type memOp[R any] struct {
	mc        *MemCtl[R]
	tile      int
	rd        R                           // the read being served
	write     bool                        // a writeback, not a read
	mask      uint16                      // a writeback's words
	vals      [memsys.WordsPerLine]uint32 // a writeback's values
	tAtMC     int64
	lines     []uint32       // lines[0] is the critical line; backing reused across accesses
	reqs      []dram.Request // one per line; never resized while submitted
	remaining int            // bursts still outstanding
	finish    int64          // latest burst completion so far
	burst     func(int64)    // op.burstDone, bound once per record
	next      *memOp[R]
}

// NewMemCtl returns a memory controller that calls done(tile, rd, lines,
// tAtMC, tDram) when a read's last burst finishes: tAtMC is the cycle the
// read reached the MC tile, tDram the cycle its last burst finished, and
// lines the lines it read, valid only until done returns.
func NewMemCtl[R any](env *memsys.Env, done func(tile int, rd R, lines []uint32, tAtMC, tDram int64)) MemCtl[R] {
	return MemCtl[R]{env: env, done: done, fire: runMemOp[R]}
}

// newOp takes a record for an access arriving at the MC on tile now.
func (mc *MemCtl[R]) newOp(tile int) *memOp[R] {
	op := mc.free
	if op == nil {
		op = &memOp[R]{mc: mc}
		op.burst = op.burstDone
	} else {
		mc.free = op.next
	}
	op.tile, op.tAtMC, op.finish = tile, mc.env.K.Now(), 0
	return op
}

// Read serves rd at MC tile: it reads lines from DRAM, lines[0] being the
// critical line whose channel serves every burst.
func (mc *MemCtl[R]) Read(tile int, rd R, lines ...uint32) {
	op := mc.newOp(tile)
	op.rd = rd
	op.lines = append(op.lines[:0], lines...)
	mc.env.K.AtArg(op.tAtMC+mc.env.Cfg.MCLatency, mc.fire, op)
}

// Write commits the words of line set in mask, from vals, to DRAM once
// the MC latency has elapsed. The values are copied, so the writeback
// message can be recycled as soon as Write returns.
func (mc *MemCtl[R]) Write(tile int, line uint32, mask uint16, vals *[memsys.WordsPerLine]uint32) {
	op := mc.newOp(tile)
	op.write, op.mask, op.vals = true, mask, *vals
	op.lines = append(op.lines[:0], line)
	mc.env.K.AtArg(op.tAtMC+mc.env.Cfg.MCLatency, mc.fire, op)
}

// runMemOp runs once the MC latency has elapsed: it commits a
// writeback's words, then submits the access's bursts.
func runMemOp[R any](a any) {
	op := a.(*memOp[R])
	env := op.mc.env
	write := op.write
	if write {
		for w := 0; w < memsys.WordsPerLine; w++ {
			if op.mask&(1<<w) != 0 {
				env.MemWrite(memsys.AddrOf(op.lines[0], w), op.vals[w])
			}
		}
	}
	ch := env.Chans[env.Cfg.Channel(op.lines[0])]
	op.reqs = slices.Grow(op.reqs[:0], len(op.lines))[:len(op.lines)]
	op.remaining = len(op.lines)
	for i, ln := range op.lines {
		op.reqs[i] = dram.Request{Addr: ln << memsys.LineShift, Write: write, Done: op.burst}
		ch.Submit(&op.reqs[i])
	}
}

// burstDone counts a completed burst; after the last one it answers a
// read, then recycles the record.
func (op *memOp[R]) burstDone(f int64) {
	op.finish = max(op.finish, f)
	op.remaining--
	if op.remaining > 0 {
		return
	}
	mc := op.mc
	if !op.write {
		mc.done(op.tile, op.rd, op.lines, op.tAtMC, op.finish)
	}
	var zero R
	op.rd, op.write = zero, false
	op.next = mc.free
	mc.free = op
}
