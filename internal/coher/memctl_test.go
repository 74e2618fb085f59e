package coher

import (
	"slices"
	"testing"

	"repro/internal/dram"
	"repro/internal/memsys"
	"repro/internal/sim"
)

// memRead stands in for a protocol family's read message.
type memRead struct{ id int }

// memDone records one completed read.
type memDone struct {
	tile         int
	rd           *memRead
	lines        []uint32
	tAtMC, tDram int64
}

func newTestEnv(t *testing.T) *memsys.Env {
	t.Helper()
	env, err := memsys.NewEnv(memsys.Default(), 1<<20, nil)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// newRecordingMemCtl returns a MemCtl that records every completed read.
func newRecordingMemCtl(t *testing.T) (*memsys.Env, *MemCtl[*memRead], *[]memDone) {
	env := newTestEnv(t)
	var got []memDone
	mc := NewMemCtl(env, func(tile int, rd *memRead, lines []uint32, tAtMC, tDram int64) {
		if now := env.K.Now(); now != tDram {
			t.Errorf("read %d answered at cycle %d, its last burst finished at %d", rd.id, now, tDram)
		}
		got = append(got, memDone{tile, rd, slices.Clone(lines), tAtMC, tDram})
	})
	return env, &mc, &got
}

// TestMemCtlWriteCommitsAtArrival pins that a writeback's masked words
// reach the backing store in the MC-latency event, not before, and that
// the unmasked words stay untouched.
func TestMemCtlWriteCommitsAtArrival(t *testing.T) {
	env, mc, got := newRecordingMemCtl(t)
	const line, arrive = 0x21, 100
	var vals [memsys.WordsPerLine]uint32
	for w := range vals {
		vals[w] = uint32(1000 + w)
	}
	word := func(w int) uint32 { return env.MemRead(memsys.AddrOf(line, w)) }
	env.K.At(arrive, func() {
		mc.Write(3, line, 0b101, &vals)
		// Scheduled after the Write, so each check runs after any MC event
		// of its cycle.
		env.K.At(arrive+env.Cfg.MCLatency-1, func() {
			if word(0) != 0 {
				t.Error("writeback committed before the MC latency elapsed")
			}
		})
		env.K.At(arrive+env.Cfg.MCLatency, func() {
			if word(0) != 1000 || word(2) != 1002 {
				t.Errorf("at MC arrival words 0 and 2 = %d, %d; want 1000, 1002", word(0), word(2))
			}
			if word(1) != 0 {
				t.Errorf("unmasked word 1 = %d, want 0", word(1))
			}
		})
	})
	env.K.Run()
	ch := env.Chans[env.Cfg.Channel(line)]
	if ch.Writes != 1 || ch.Reads != 0 {
		t.Errorf("channel saw %d writes, %d reads; want 1, 0", ch.Writes, ch.Reads)
	}
	if len(*got) != 0 {
		t.Errorf("a writeback called the read callback: %+v", *got)
	}
}

// TestMemCtlMultiLineRead pins that a read of several lines bursts every
// line on the critical line's channel, in line order, and completes once,
// at its last burst, with the arrival cycle and the lines it read.
func TestMemCtlMultiLineRead(t *testing.T) {
	env, mc, got := newRecordingMemCtl(t)
	crit, other := uint32(0x10), uint32(0x02) // different home channels
	if env.Cfg.Channel(crit) == env.Cfg.Channel(other) {
		t.Fatal("test lines share a channel; pick lines on different channels")
	}
	const arrive = 50
	rd := &memRead{id: 7}
	env.K.At(arrive, func() { mc.Read(5, rd, crit, other) })
	env.K.Run()

	// The same two bursts on a bare channel give the expected finish.
	var k sim.Kernel
	ref := dram.NewChannel(&k, env.Cfg.DRAM)
	var want int64
	done := func(f int64) { want = max(want, f) }
	reqs := []dram.Request{
		{Addr: crit << memsys.LineShift, Done: done},
		{Addr: other << memsys.LineShift, Done: done},
	}
	k.At(arrive+env.Cfg.MCLatency, func() {
		for i := range reqs {
			ref.Submit(&reqs[i])
		}
	})
	k.Run()

	if len(*got) != 1 {
		t.Fatalf("read completed %d times, want once", len(*got))
	}
	d := (*got)[0]
	if d.tile != 5 || d.rd != rd || d.tAtMC != arrive || !slices.Equal(d.lines, []uint32{crit, other}) {
		t.Errorf("done(tile %d, read %d, lines %#x, tAtMC %d); want tile 5, read 7, lines [0x10 0x2], tAtMC %d",
			d.tile, d.rd.id, d.lines, d.tAtMC, arrive)
	}
	if d.tDram != want {
		t.Errorf("read completed at %d, want the last burst's finish %d", d.tDram, want)
	}
	if c := env.Chans[env.Cfg.Channel(crit)]; c.Reads != 2 {
		t.Errorf("critical channel served %d reads, want 2", c.Reads)
	}
	if c := env.Chans[env.Cfg.Channel(other)]; c.Reads != 0 {
		t.Errorf("the second line's own channel served %d reads, want 0", c.Reads)
	}
}

// TestMemCtlZeroAlloc pins that recycled records serve reads and writes
// without heap allocation once warm.
func TestMemCtlZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts are checked by the full (non-short, non-race) run")
	}
	env := newTestEnv(t)
	reads := 0
	mc := NewMemCtl(env, func(int, *memRead, []uint32, int64, int64) { reads++ })
	rd := &memRead{}
	var vals [memsys.WordsPerLine]uint32
	access := func() {
		mc.Read(0, rd, 0x10, 0x11, 0x12)
		mc.Read(1, rd, 0x40)
		mc.Write(2, 0x80, 0xffff, &vals)
		env.K.Run()
	}
	access() // warm the free list, the record slices and the channel queue
	if n := testing.AllocsPerRun(100, access); n != 0 {
		t.Errorf("%.1f allocations per round of accesses, want 0", n)
	}
	if want := 2 * (1 + 1 + 100); reads != want { // warm-up, AllocsPerRun's own warm-up, 100 runs
		t.Errorf("%d reads completed, want %d", reads, want)
	}
}
