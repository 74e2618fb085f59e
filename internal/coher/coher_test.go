package coher

import (
	"reflect"
	"testing"
)

func TestStoreBufferForwardNewestWins(t *testing.T) {
	b := NewStoreBuffer(4)
	if !b.Push(0x100, 1) || !b.Push(0x104, 2) || !b.Push(0x100, 3) {
		t.Fatal("pushes rejected below capacity")
	}
	if v, ok := b.Forward(0x100); !ok || v != 3 {
		t.Fatalf("Forward(0x100) = %d,%v; want 3,true (newest wins)", v, ok)
	}
	if v, ok := b.Forward(0x104); !ok || v != 2 {
		t.Fatalf("Forward(0x104) = %d,%v; want 2,true", v, ok)
	}
	if _, ok := b.Forward(0x108); ok {
		t.Fatal("Forward hit for an address never written")
	}
	if !b.Push(0x10c, 4) {
		t.Fatal("push rejected at capacity-1")
	}
	if b.Push(0x110, 5) {
		t.Fatal("push accepted beyond capacity")
	}
}

func TestStoreBufferRetireLinePreservesOrder(t *testing.T) {
	b := NewStoreBuffer(8)
	lineOf := func(a uint32) uint32 { return a >> 6 }
	b.Push(0x40, 1) // line 1
	b.Push(0x00, 2) // line 0
	b.Push(0x44, 3) // line 1
	b.Push(0x04, 4) // line 0
	var got []uint32
	b.RetireLine(1, lineOf, func(addr, val uint32) { got = append(got, val) })
	if !reflect.DeepEqual(got, []uint32{1, 3}) {
		t.Fatalf("retired %v, want [1 3] in insertion order", got)
	}
	if b.Len() != 2 {
		t.Fatalf("%d entries left, want 2", b.Len())
	}
	if v, ok := b.Forward(0x04); !ok || v != 4 {
		t.Fatal("unrelated line disturbed by RetireLine")
	}
	if _, ok := b.Forward(0x44); ok {
		t.Fatal("retired entry still forwards")
	}
}

func TestTableSortedLines(t *testing.T) {
	var tab Table[int]
	for _, line := range []uint32{9, 2, 7, 4} {
		v := int(line)
		tab.Put(line, &v)
	}
	want := []uint32{2, 4, 7, 9}
	if got := tab.SortedLines(); !reflect.DeepEqual(got, want) {
		t.Fatalf("SortedLines = %v, want %v", got, want)
	}
	tab.Delete(7)
	if tab.Has(7) || tab.Len() != 3 {
		t.Fatal("Delete did not remove the entry")
	}
	if tab.Get(2) == nil || *tab.Get(2) != 2 {
		t.Fatal("Get lost an entry")
	}
}

func TestDrainGate(t *testing.T) {
	var g DrainGate
	fired := 0
	g.TryFire(true) // unarmed: no-op
	g.Arm(func() { fired++ })
	if !g.Armed() {
		t.Fatal("gate not armed")
	}
	g.TryFire(false)
	if fired != 0 {
		t.Fatal("fired while not quiescent")
	}
	g.TryFire(true)
	g.TryFire(true) // continuation must fire exactly once
	if fired != 1 {
		t.Fatalf("fired %d times, want 1", fired)
	}
	if g.Armed() {
		t.Fatal("gate still armed after firing")
	}
}
