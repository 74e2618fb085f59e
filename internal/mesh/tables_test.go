package mesh

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var updateTables = flag.Bool("update", false,
	"rewrite internal/mesh/testdata/topology_tables.txt from the current topology code")

const tablesPath = "testdata/topology_tables.txt"

// tableShapes are the grids TestTopologyTables pins: every degenerate
// 1-row and 1-column case, odd and even sides (the wraparound tie-breaks
// differ), the paper's 4x4, and the two larger presets. hashed shapes
// are pinned by a SHA-256 of their table instead of the table itself.
var tableShapes = []struct {
	w, h   int
	hashed bool
}{
	{1, 2, false}, {2, 1, false}, {2, 2, false}, {1, 5, false}, {5, 1, false},
	{2, 7, false}, {3, 5, false}, {4, 4, false}, {8, 8, true}, {16, 16, true},
}

// topologyTable renders everything the fabric and the routers read from
// a topology: the link list in Links order, then per tile the axis and
// dateline flag of every port, and the hop count and first routing step
// toward every destination.
func topologyTable(t *Topology) string {
	var b strings.Builder
	n, ports := t.Tiles(), t.Ports()
	fmt.Fprintf(&b, "tiles %d ports %d\n", n, ports)
	from := -1
	for _, l := range t.Links() {
		if l.From != from {
			if from >= 0 {
				b.WriteByte('\n')
			}
			fmt.Fprintf(&b, "links %d:", l.From)
			from = l.From
		}
		fmt.Fprintf(&b, " %d>%d", l.Port, l.To)
	}
	b.WriteByte('\n')
	for tile := 0; tile < n; tile++ {
		fmt.Fprintf(&b, "tile %d: axis", tile)
		for p := 0; p < ports; p++ {
			fmt.Fprintf(&b, " %d", t.PortAxis(p))
		}
		b.WriteString(" wrap ")
		for p := 0; p < ports; p++ {
			if t.Wraparound(tile, p) {
				b.WriteByte('1')
			} else {
				b.WriteByte('0')
			}
		}
		fmt.Fprintf(&b, "\nhops %d:", tile)
		for dst := 0; dst < n; dst++ {
			fmt.Fprintf(&b, " %d", t.Hops(tile, dst))
		}
		fmt.Fprintf(&b, "\nnext %d:", tile)
		for dst := 0; dst < n; dst++ {
			if dst == tile {
				b.WriteString(" -")
				continue
			}
			port, next := t.NextPort(tile, dst)
			fmt.Fprintf(&b, " %d>%d", port, next)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestTopologyTables pins the routing of every kind on every tableShape
// against testdata/topology_tables.txt: the port numbers, the tie-breaks
// (+X/+Y on the torus, clockwise on the ring), the link order the cycle
// routers wire their ports in, the dateline flags and every hop count.
// Every figure follows from these tables, so a change to them is a model
// change; regenerate the file only for one, with
//
//	go test ./internal/mesh -run TestTopologyTables -update
func TestTopologyTables(t *testing.T) {
	var b strings.Builder
	for _, kind := range TopologyKinds() {
		for _, s := range tableShapes {
			topo, err := NewTopology(kind, s.w, s.h)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "== %s %dx%d\n", kind, s.w, s.h)
			table := topologyTable(topo)
			if s.hashed {
				fmt.Fprintf(&b, "sha256 %x\n", sha256.Sum256([]byte(table)))
			} else {
				b.WriteString(table)
			}
		}
	}
	got := b.String()
	if *updateTables {
		if err := os.WriteFile(tablesPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(tablesPath)
	if err != nil {
		t.Fatal(err)
	}
	want := string(raw)
	if got == want {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	section := ""
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if strings.HasPrefix(wl[i], "== ") {
			section = wl[i]
		}
		if gl[i] != wl[i] {
			t.Fatalf("%s line %d (section %q):\n got  %s\n want %s", tablesPath, i+1, section, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: got %d lines, want %d", tablesPath, len(gl), len(wl))
}
