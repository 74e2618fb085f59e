package coher

import (
	"repro/internal/cache"
	"repro/internal/memsys"
)

// SnapshotData copies a line's word values into a fixed-size message
// payload.
func SnapshotData(ln *cache.Line) (data [memsys.WordsPerLine]uint32) {
	for w := 0; w < memsys.WordsPerLine; w++ {
		data[w] = ln.Data[w]
	}
	return
}

// SnapshotMInst copies a line's memory-instance ids.
func SnapshotMInst(ln *cache.Line) (minst [memsys.WordsPerLine]uint64) {
	for w := 0; w < memsys.WordsPerLine; w++ {
		minst[w] = ln.MInst[w]
	}
	return
}

// DirtyMask collects the words whose per-word state has any of dirtyBits
// set.
func DirtyMask(ln *cache.Line, dirtyBits uint8) uint16 {
	var m uint16
	for w := 0; w < memsys.WordsPerLine; w++ {
		if ln.WState[w]&dirtyBits != 0 {
			m |= 1 << w
		}
	}
	return m
}
