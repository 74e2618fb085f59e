package mesi

import (
	"slices"
	"testing"

	"repro/internal/memsys"
)

// TestDirectoryTileRoundTrip stores tiles on both sides of every narrow
// width (8, 16 and 64 bits) as sharers and as the owner, up to the last
// tile of the largest grid.
func TestDirectoryTileRoundTrip(t *testing.T) {
	tiles := []int{0, 15, 16, 63, 127, 128, 255}
	var e dirEntry
	for i, tile := range tiles {
		e.sharers.add(tile)
		if !e.sharers.has(tile) {
			t.Fatalf("sharer %d lost", tile)
		}
		if got := slices.Collect(e.sharers.all()); !slices.Equal(got, tiles[:i+1]) {
			t.Fatalf("sharers = %v, want %v", got, tiles[:i+1])
		}
		if n := e.sharers.count(); n != i+1 {
			t.Fatalf("count = %d, want %d", n, i+1)
		}
		e.owner = int16(tile)
		if int(e.owner) != tile || e.owner < 0 {
			t.Fatalf("owner %d stored as %d", tile, e.owner)
		}
	}
	if e.sharers.has(1) || e.sharers.has(254) {
		t.Fatal("a tile never added is a sharer")
	}
	for _, tile := range tiles {
		e.sharers.remove(tile)
		if e.sharers.has(tile) {
			t.Fatalf("sharer %d still present after remove", tile)
		}
	}
	if !e.sharers.empty() {
		t.Fatalf("sharers %v left after removing every tile", slices.Collect(e.sharers.all()))
	}
}

// TestForeignPayloadPanics delivers a payload that is no MESI message:
// the tile's handler fails loudly, naming the payload and the tile.
func TestForeignPayloadPanics(t *testing.T) {
	env, err := memsys.NewEnv(memsys.Default().Scaled(64), memsys.LineBytes, nil)
	if err != nil {
		t.Fatal(err)
	}
	sys := New(env, Options{Name: "MESI"})
	defer func() {
		want := "coher: message struct {} does not dispatch to *mesi.System (tile 3)"
		if r := recover(); r != want {
			t.Fatalf("panic %v, want %q", r, want)
		}
	}()
	sys.deliver(struct{}{}, 3)
}
