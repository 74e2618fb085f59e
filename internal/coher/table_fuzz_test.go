package coher

import (
	"maps"
	"slices"
	"testing"
)

// FuzzLineTable runs random Put, Get, Has, Delete, Len and SortedLines
// calls against a map. Each op is two bytes: the call (mod 6) and the key.
// Keys come from a range of 24 lines, so a table of 8 to 32 slots holds
// runs that collide, wrap past the end of the array and lose entries from
// their middle.
func FuzzLineTable(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 0, 3, 3, 1, 1, 2, 1, 3})
	f.Add([]byte{0, 5, 0, 13, 0, 21, 0, 7, 0, 15, 0, 23, 0, 0, 0, 8, 3, 5, 3, 13, 4, 0, 5, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var tab LineTable[int]
		ref := map[uint32]int{}
		for i := 0; i+1 < len(ops); i += 2 {
			line := uint32(ops[i+1] % 24)
			switch ops[i] % 6 {
			case 0:
				tab.Put(line, i+1) // never 0, the value Get returns for no entry
				ref[line] = i + 1
			case 1:
				if v, w := tab.Get(line), ref[line]; v != w {
					t.Fatalf("op %d: Get(%d) = %d, want %d", i/2, line, v, w)
				}
			case 2:
				if _, want := ref[line]; tab.Has(line) != want {
					t.Fatalf("op %d: Has(%d) = %v", i/2, line, !want)
				}
			case 3:
				tab.Delete(line)
				delete(ref, line)
			case 4:
				if tab.Len() != len(ref) {
					t.Fatalf("op %d: Len = %d, want %d", i/2, tab.Len(), len(ref))
				}
			case 5:
				if got, want := tab.SortedLines(), slices.Sorted(maps.Keys(ref)); !slices.Equal(got, want) {
					t.Fatalf("op %d: SortedLines = %v, want %v", i/2, got, want)
				}
			}
			// Every entry stays reachable from its home slot.
			for l, w := range ref {
				if v := tab.Get(l); v != w || !tab.Has(l) {
					t.Fatalf("op %d: entry %d = %d, want %d", i/2, l, v, w)
				}
			}
		}
		if tab.Len() != len(ref) {
			t.Fatalf("Len = %d, want %d", tab.Len(), len(ref))
		}
		seen := map[uint32]int{}
		tab.Range(func(l uint32, v int) { seen[l] = v })
		if !maps.Equal(seen, ref) {
			t.Fatalf("Range visited %v, want %v", seen, ref)
		}
	})
}
