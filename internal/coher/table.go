package coher

import "sort"

// Table is a pending-transaction table keyed by line address: MSHRs,
// victim (writeback) buffers, write-combining entries, L2 fetch tables.
// It wraps the map with the deterministic helpers a reproducible
// simulation needs — any iteration whose side effects reach the event
// kernel must happen in sorted line order.
type Table[V any] struct {
	m map[uint32]*V
}

// NewTable returns an empty table.
func NewTable[V any]() Table[V] { return Table[V]{m: make(map[uint32]*V)} }

// Get returns the entry for line, or nil.
func (t Table[V]) Get(line uint32) *V { return t.m[line] }

// Has reports whether line has an entry.
func (t Table[V]) Has(line uint32) bool { _, ok := t.m[line]; return ok }

// Put installs an entry for line.
func (t Table[V]) Put(line uint32, v *V) { t.m[line] = v }

// Delete removes line's entry.
func (t Table[V]) Delete(line uint32) { delete(t.m, line) }

// Len returns the number of entries.
func (t Table[V]) Len() int { return len(t.m) }

// SortedLines returns the keys in ascending order (deterministic
// iteration for flushes and drains).
func (t Table[V]) SortedLines() []uint32 {
	lines := make([]uint32, 0, len(t.m))
	for line := range t.m {
		lines = append(lines, line)
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	return lines
}

// Range visits entries in map order. Only for side-effect-free uses
// (diagnostics, invariant checks); simulation-visible iteration must use
// SortedLines.
func (t Table[V]) Range(f func(line uint32, v *V)) {
	for line, v := range t.m {
		f(line, v)
	}
}
