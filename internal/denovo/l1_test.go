package denovo

import (
	"testing"

	"repro/internal/memsys"
)

// TestResponseFillerChargedOnce delivers one L1 response whose words
// span two lines. The unfilled remainder of its last data flit is charged
// once for all its words: 5 + 3 words fill two data flits exactly, so
// the filler is 0, where charging it per line would add 0.75 + 0.25
// flits per hop. Every word's instance carries a quarter flit per hop,
// so shares and filler together are the response's data flit-hops.
func TestResponseFillerChargedOnce(t *testing.T) {
	const hops = 3
	for _, tc := range []struct {
		name   string
		lines  []int // words per line, on consecutive lines
		filler float64
	}{
		{"one line", []int{5}, 0.75 * hops},
		{"two lines", []int{5, 3}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env, err := memsys.NewEnv(memsys.Default().Scaled(64), 4*memsys.LineBytes, nil)
			if err != nil {
				t.Fatal(err)
			}
			sys := New(env, Options{Name: "DFlexL1", FlexL1: true})
			env.StartMeasurement()
			m := &dvnData{hops: hops}
			words := 0
			for line, n := range tc.lines {
				for w := lineWords - n; w < lineWords; w++ {
					m.words.add(dataWord{addr: memsys.AddrOf(uint32(line), w)})
					words++
				}
			}
			sys.l1s[0].handleData(m)
			if got := env.Traffic.Get(memsys.ClassLD, memsys.BRespCtl); got != tc.filler {
				t.Fatalf("filler %v flit-hops, want %v", got, tc.filler)
			}
			if got := env.Prof.Instances(); got != words {
				t.Fatalf("%d instances for %d words", got, words)
			}
			env.Prof.Finish() // every word classifies Unevicted: Resp L1 Waste
			shares := env.Traffic.Get(memsys.ClassLD, memsys.BRespL1Waste)
			if got, want := shares+tc.filler, float64(memsys.DataFlits(words)*hops); got != want {
				t.Fatalf("shares %v + filler %v = %v flit-hops, want the %v the data flits cost", shares, tc.filler, got, want)
			}
		})
	}
}

// TestWriteCombinerOldestDeterministic pins the L1's write-combining
// flush order: a new line in a full table flushes the entry born first,
// ties broken by line address, whatever slots the table keeps them in.
func TestWriteCombinerOldestDeterministic(t *testing.T) {
	cfg := memsys.Default().Scaled(64)
	cfg.WriteCombineEntries = 3
	env, err := memsys.NewEnv(cfg, 64*memsys.LineBytes, nil)
	if err != nil {
		t.Fatal(err)
	}
	l := New(env, Options{Name: "DeNovo"}).l1s[0]
	for _, e := range []struct {
		line uint32
		born int64
	}{{0x30, 100}, {0x10, 50}, {0x20, 50}} {
		l.wcID++
		l.wc.Put(e.line, wcEntry{mask: 1, born: e.born, id: l.wcID})
	}
	flushed := func(line uint32, regs int) {
		t.Helper()
		if l.wc.Has(line) || l.pendingRegs != regs {
			t.Fatalf("line %#x still pending or %d registrations sent, want %d", line, l.pendingRegs, regs)
		}
	}
	l.wcAdd(0x08, 0) // born now, at cycle 0
	flushed(0x10, 1) // born 50 like 0x20: the line address breaks the tie
	l.flushOldestWC()
	flushed(0x08, 2)
	l.flushOldestWC()
	flushed(0x20, 3)
	if !l.wc.Has(0x30) || l.wc.Len() != 1 {
		t.Fatalf("table holds %d entries, want line 0x30 alone", l.wc.Len())
	}
}

// TestForeignPayloadPanics delivers a payload that is no DeNovo message:
// the tile's handler fails loudly, naming the payload and the tile.
func TestForeignPayloadPanics(t *testing.T) {
	env, err := memsys.NewEnv(memsys.Default().Scaled(64), memsys.LineBytes, nil)
	if err != nil {
		t.Fatal(err)
	}
	sys := New(env, Options{Name: "DeNovo"})
	defer func() {
		want := "coher: message struct {} does not dispatch to *denovo.System (tile 3)"
		if r := recover(); r != want {
			t.Fatalf("panic %v, want %q", r, want)
		}
	}()
	sys.deliver(struct{}{}, 3)
}
