package coher

import "slices"

// LineTable is an open-addressed hash table keyed by line address, the
// index behind every per-line protocol structure: pending transactions,
// the MESI directory, DeNovo's line gates and evictions. Values are stored
// inline in the slot array, probing is linear from a multiplicative hash,
// and a delete shifts the rest of its run back, so a table never holds
// tombstones. Methods take a pointer receiver: a table is never copied.
//
// Any iteration whose side effects reach the event kernel must use
// SortedLines; Range visits slots in table order.
//
// The zero value is an empty table. A key must not be ^uint32(0), which
// is no line address (line addresses are byte addresses shifted right by
// the line size).
type LineTable[V any] struct {
	slots []lineSlot[V] // a power of two in length, or nil
	n     int
	shift uint // 32 - log2(len(slots)): home takes the hash's top bits
}

// lineSlot holds one entry. key is the line plus one, so an all-zero slot
// is empty.
type lineSlot[V any] struct {
	key uint32
	val V
}

// minLineSlots is a new table's size.
const minLineSlots = 8

// home returns line's preferred slot: Fibonacci hashing, the top bits of
// the line times 2^32 divided by the golden ratio.
func (t *LineTable[V]) home(line uint32) int { return int((line * 0x9e3779b9) >> t.shift) }

// find returns line's slot, or -1.
func (t *LineTable[V]) find(line uint32) int {
	if t.n == 0 {
		return -1
	}
	key, mask := line+1, len(t.slots)-1
	for i := t.home(line); ; i = (i + 1) & mask {
		switch t.slots[i].key {
		case key:
			return i
		case 0:
			return -1
		}
	}
}

// Get returns line's value, or the zero value when line has no entry.
func (t *LineTable[V]) Get(line uint32) V {
	if i := t.find(line); i >= 0 {
		return t.slots[i].val
	}
	var zero V
	return zero
}

// Has reports whether line has an entry.
func (t *LineTable[V]) Has(line uint32) bool { return t.find(line) >= 0 }

// Put sets line's value, adding an entry if it has none.
func (t *LineTable[V]) Put(line uint32, v V) {
	if line == ^uint32(0) {
		panic("coher: LineTable key ^uint32(0) is not a line")
	}
	if i := t.find(line); i >= 0 {
		t.slots[i].val = v
		return
	}
	if (t.n+1)*4 > len(t.slots)*3 {
		t.grow()
	}
	t.insert(line, v)
	t.n++
}

// insert places a new entry in the first empty slot of line's run.
func (t *LineTable[V]) insert(line uint32, v V) {
	mask := len(t.slots) - 1
	i := t.home(line)
	for t.slots[i].key != 0 {
		i = (i + 1) & mask
	}
	t.slots[i] = lineSlot[V]{line + 1, v}
}

// grow doubles the slot array (or makes the first one) and reinserts
// every entry.
func (t *LineTable[V]) grow() {
	old := t.slots
	size := max(2*len(old), minLineSlots)
	t.slots = make([]lineSlot[V], size)
	t.shift = 32
	for s := size; s > 1; s >>= 1 {
		t.shift--
	}
	for _, s := range old {
		if s.key != 0 {
			t.insert(s.key-1, s.val)
		}
	}
}

// Delete removes line's entry, if any. Each later entry of the run that
// may live in the freed slot (its home lies cyclically at or before it)
// moves back into it, and the slot it left is the next one to fill.
func (t *LineTable[V]) Delete(line uint32) {
	i := t.find(line)
	if i < 0 {
		return
	}
	mask := len(t.slots) - 1
	for j := (i + 1) & mask; t.slots[j].key != 0; j = (j + 1) & mask {
		h := t.home(t.slots[j].key - 1)
		if (j-h)&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = lineSlot[V]{}
	t.n--
}

// Len returns the number of entries.
func (t *LineTable[V]) Len() int { return t.n }

// SortedLines returns the keys in ascending order: the deterministic
// iteration for flushes and drains.
func (t *LineTable[V]) SortedLines() []uint32 {
	lines := make([]uint32, 0, t.n)
	for _, s := range t.slots {
		if s.key != 0 {
			lines = append(lines, s.key-1)
		}
	}
	slices.Sort(lines)
	return lines
}

// Range visits entries in table order. Only for side-effect-free uses
// whose result does not depend on that order (diagnostics, invariant
// checks, a minimum under a strict order); simulation-visible iteration
// must use SortedLines.
func (t *LineTable[V]) Range(f func(line uint32, v V)) {
	for _, s := range t.slots {
		if s.key != 0 {
			f(s.key-1, s.val)
		}
	}
}

// Table is a pending-transaction table keyed by line address: MSHRs,
// victim (writeback) buffers, L2 fetch tables, the MESI directory. It
// holds a pointer to one record per line, so a record survives the
// table's growth and deletes, and Get returns nil for a line without one.
type Table[V any] = LineTable[*V]
