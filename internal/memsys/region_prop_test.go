package memsys

import (
	"math/rand"
	"testing"
)

// randomRegion builds a structurally valid region: a positive stride and
// communication offsets inside one element (offsets name fields of the
// element, so o < StrideWords — the shape every workload region uses).
func randomRegion(rng *rand.Rand, id uint8, base uint32) Region {
	stride := uint16(rng.Intn(16) + 1)
	nOff := rng.Intn(int(stride)) + 1
	perm := rng.Perm(int(stride))
	offs := make([]uint16, 0, nOff)
	for _, o := range perm[:nOff] {
		offs = append(offs, uint16(o))
	}
	// A size that is deliberately NOT a multiple of the stride sometimes,
	// to exercise CommWords' clip at the region end.
	elems := rng.Intn(8) + 1
	size := uint32(elems)*uint32(stride)*WordBytes + uint32(rng.Intn(int(stride)))*WordBytes
	return Region{
		ID: id, Name: "r", Base: base, Size: size,
		StrideWords: stride, CommOffsets: offs,
	}
}

// TestCommWordsInCommAgree is the agreement property the Flex machinery
// relies on: for every word address a in a structured region,
// InComm(a) is true exactly when a's own word appears in CommWords(a).
// The property also proves the "|| o == off" disjunct the check used to
// carry was redundant: off is reduced mod StrideWords, so o == off
// implies o%StrideWords == off.
func TestCommWordsInCommAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(0xC0FFEE))
	var buf []uint32 // one buffer for every lookup, as the Flex request path uses it
	for trial := 0; trial < 500; trial++ {
		r := randomRegion(rng, 1, uint32(rng.Intn(64))*LineBytes)
		for a := r.Base; a < r.Base+r.Size; a += WordBytes {
			inComm := r.InComm(a)
			buf = r.CommWords(buf[:0], a)
			words := buf
			listed := false
			for _, w := range words {
				if w == WordAddr(a) {
					listed = true
				}
				// Every listed word must itself be in the communication
				// region and inside the region bounds (the clip).
				if !r.Contains(w) {
					t.Fatalf("region %+v: CommWords(%#x) lists %#x outside the region", r, a, w)
				}
				if !r.InComm(w) {
					t.Fatalf("region %+v: CommWords(%#x) lists %#x but InComm is false", r, a, w)
				}
			}
			if inComm != listed {
				t.Fatalf("region %+v: addr %#x InComm=%v but CommWords listing=%v (%v)",
					r, a, inComm, listed, words)
			}
		}
	}
}

// TestInCommUnstructuredRegions pins the degenerate cases: regions with
// no element structure have no communication region, and CommWords falls
// back to the single requested word.
func TestInCommUnstructuredRegions(t *testing.T) {
	for _, r := range []Region{
		{ID: 1, Base: 0, Size: 256},                              // no stride
		{ID: 2, Base: 0, Size: 256, StrideWords: 4},              // stride, no offsets
		{ID: 3, Base: 0, Size: 256, CommOffsets: []uint16{0, 1}}, // offsets, no stride
	} {
		for a := r.Base; a < r.Base+r.Size; a += WordBytes {
			if r.InComm(a) {
				t.Fatalf("region %+v: InComm(%#x) true without structure", r, a)
			}
			if w := r.CommWords(nil, a); len(w) != 1 || w[0] != WordAddr(a) {
				t.Fatalf("region %+v: CommWords(%#x) = %v, want the word itself", r, a, w)
			}
		}
	}
}
