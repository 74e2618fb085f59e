package coher

import "slices"

// WCEntry is one write-combining table entry (§4.2): registrations for a
// line batched until the line fills, a timeout expires, the line is
// evicted, or a barrier drains the table.
type WCEntry struct {
	Line uint32
	Mask uint16
	Born int64
	// ID names this occupancy of the table: a line flushed and added
	// again gets a new ID, so a timeout armed for the old entry can tell
	// it no longer applies.
	ID uint64
}

// WriteCombiner is the bounded write-combining table. The flush policy
// (what message a flush sends) belongs to the protocol; the table only
// manages entries deterministically. Entries live by value in a short
// slice (the protocol bounds it at WriteCombineEntries lines), so adding
// and removing allocate nothing once the slice has grown, and lookups are a
// linear scan. A returned *WCEntry is valid until the next Add or Remove.
type WriteCombiner struct {
	entries []WCEntry
	lastID  uint64
}

// NewWriteCombiner returns an empty table.
func NewWriteCombiner() WriteCombiner { return WriteCombiner{} }

// Get returns line's entry, or nil.
func (c *WriteCombiner) Get(line uint32) *WCEntry {
	for i := range c.entries {
		if c.entries[i].Line == line {
			return &c.entries[i]
		}
	}
	return nil
}

// Add installs a fresh entry for line, stamped with the current time and a
// new ID.
func (c *WriteCombiner) Add(line uint32, now int64) *WCEntry {
	c.lastID++
	c.entries = append(c.entries, WCEntry{Line: line, Born: now, ID: c.lastID})
	return &c.entries[len(c.entries)-1]
}

// Remove drops line's entry (flushed or evicted), if any.
func (c *WriteCombiner) Remove(line uint32) {
	for i := range c.entries {
		if c.entries[i].Line == line {
			last := len(c.entries) - 1
			c.entries[i] = c.entries[last]
			c.entries = c.entries[:last]
			return
		}
	}
}

// Len returns the number of pending entries.
func (c *WriteCombiner) Len() int { return len(c.entries) }

// Oldest returns the entry to flush when the table is full: lowest birth
// time, ties broken by line address (independent of storage order).
func (c *WriteCombiner) Oldest() *WCEntry {
	var oldest *WCEntry
	for i := range c.entries {
		e := &c.entries[i]
		if oldest == nil || e.Born < oldest.Born ||
			(e.Born == oldest.Born && e.Line < oldest.Line) {
			oldest = e
		}
	}
	return oldest
}

// SortedLines returns pending lines in ascending order (barrier drains
// flush in deterministic line order).
func (c *WriteCombiner) SortedLines() []uint32 {
	lines := make([]uint32, len(c.entries))
	for i, e := range c.entries {
		lines[i] = e.Line
	}
	slices.Sort(lines)
	return lines
}
