package memsys

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/mesh"
)

// TestCornerTiles pins the memory-controller placement on each grid
// shape, and that MCTile, which computes a line's controller without
// building the list, agrees with it.
func TestCornerTiles(t *testing.T) {
	cases := []struct {
		w, h int
		want []int
	}{
		{4, 4, []int{0, 3, 12, 15}}, // the paper's MC placement
		{8, 8, []int{0, 7, 56, 63}},
		{16, 16, []int{0, 15, 240, 255}},
		{2, 8, []int{0, 1, 14, 15}},
		{1, 4, []int{0, 3}}, // 1-wide: left and right corners coincide
		{4, 1, []int{0, 3}}, // 1-tall: top and bottom coincide
		{1, 1, []int{0}},    // degenerate, rejected elsewhere
	}
	for _, c := range cases {
		cfg := Default().WithMesh(c.w, c.h)
		got := cfg.MCTiles()
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%dx%d: MCTiles() = %v, want %v", c.w, c.h, got, c.want)
			continue
		}
		for line := uint32(0); line < 256; line++ {
			if mc := cfg.MCTile(line); mc != got[cfg.Channel(line)] {
				t.Fatalf("%dx%d: MCTile(%d) = %d, want %d", c.w, c.h, line, mc, got[cfg.Channel(line)])
			}
		}
	}
}

func TestParseMeshDims(t *testing.T) {
	for _, s := range []string{"4x4", " 8x8 ", "16x16", "2x3", "1x2"} {
		w, h, err := ParseMeshDims(s)
		if err != nil {
			t.Errorf("ParseMeshDims(%q): %v", s, err)
			continue
		}
		if FormatMeshDims(w, h) != strings.ReplaceAll(strings.TrimSpace(s), " ", "") {
			t.Errorf("ParseMeshDims(%q) = %dx%d", s, w, h)
		}
	}
	for _, s := range []string{"", "4", "3x", "x4", "0x4", "4x0", "-1x4", "1x1", "4x4x4", "axb", "4.5x4"} {
		if _, _, err := ParseMeshDims(s); err == nil {
			t.Errorf("ParseMeshDims(%q) accepted a degenerate shape", s)
		}
	}
	// Each side is bounded, checked before the sides are multiplied (the
	// last row's product overflows int64). These used to be accepted and
	// then run the process out of memory.
	for _, s := range []string{"17x4", "4x17", "17x17", "2000x2000", "4294967297x4294967297"} {
		w, h, _ := strings.Cut(s, "x")
		want := fmt.Sprintf("memsys: mesh dimensions %sx%s: each side must be at most %d", w, h, mesh.MaxSide)
		if _, _, err := ParseMeshDims(s); err == nil || err.Error() != want {
			t.Errorf("ParseMeshDims(%q): err %v, want %q", s, err, want)
		}
	}
	for _, s := range []string{"16x16", "1x16", "16x1"} {
		if _, _, err := ParseMeshDims(s); err != nil {
			t.Errorf("ParseMeshDims(%q) at the bound: %v", s, err)
		}
	}
}

// Validate applies the same side bound to a config built without the
// parser.
func TestValidateMeshSide(t *testing.T) {
	if err := Default().WithMesh(mesh.MaxSide, mesh.MaxSide).Validate(); err != nil {
		t.Errorf("%dx%d rejected: %v", mesh.MaxSide, mesh.MaxSide, err)
	}
	for _, d := range [][2]int{{mesh.MaxSide + 1, 4}, {4, mesh.MaxSide + 1}, {2000, 2000}} {
		want := fmt.Sprintf("memsys: mesh dimensions %dx%d: each side must be at most %d", d[0], d[1], mesh.MaxSide)
		if err := Default().WithMesh(d[0], d[1]).Validate(); err == nil || err.Error() != want {
			t.Errorf("%dx%d: err %v, want %q", d[0], d[1], err, want)
		}
	}
}

func TestWithMesh(t *testing.T) {
	cfg := Default().WithMesh(8, 8)
	if cfg.Tiles() != 64 || cfg.Width != 8 || cfg.Height != 8 {
		t.Fatalf("WithMesh(8,8): tiles %d, dims %dx%d", cfg.Tiles(), cfg.Width, cfg.Height)
	}
	if want := []int{0, 7, 56, 63}; !reflect.DeepEqual(cfg.MCTiles(), want) {
		t.Errorf("MC tiles %v, want corners %v", cfg.MCTiles(), want)
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("WithMesh(8,8) config invalid: %v", err)
	}
	// Interleaving scales with the dims: home tiles cover all 64 slices
	// and channels cover all four controllers.
	homes := map[int]bool{}
	chans := map[int]bool{}
	for line := uint32(0); line < 1024; line++ {
		homes[cfg.HomeTile(line)] = true
		chans[cfg.Channel(line)] = true
	}
	if len(homes) != 64 {
		t.Errorf("home-tile interleaving reached %d of 64 slices", len(homes))
	}
	if len(chans) != len(cfg.MCTiles()) {
		t.Errorf("channel interleaving reached %d of %d controllers", len(chans), len(cfg.MCTiles()))
	}
}
