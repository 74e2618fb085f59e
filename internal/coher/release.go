package coher

import (
	"repro/internal/cache"
	"repro/internal/memsys"
)

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
