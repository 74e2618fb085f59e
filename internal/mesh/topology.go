package mesh

import "fmt"

// Topology is the geometry and routing discipline of the on-chip network:
// a width x height grid of tiles, each with a router of Ports output
// ports, routed minimally in dimension order (X first, then Y). One type
// serves every registered kind:
//
//   - "mesh" is the paper's network (Table 4.1): no wraparound links, so
//     a route is the Manhattan distance and XY routing is deadlock-free.
//   - "torus" is the mesh plus wraparound links that close every row and
//     column into a cycle. Each dimension travels the shorter way around
//     (ties break toward +X/+Y), so a 4x4 torus has diameter 4 where the
//     mesh has 6.
//   - "ring" lays the width*height tiles out as one wrapped row with two
//     ports, the geometry of ring-router NoC work: packets take the
//     shorter way around (ties break clockwise), for a diameter of n/2.
//
// Ports are numbered 0 = +X (east, the ring's clockwise port), 1 = -X
// (west, counter-clockwise), 2 = +Y (south) and 3 = -Y (north).
//
// The Mesh fabric (link serialization, delivery scheduling, flit-hop
// telemetry) drives whichever kind it is built with. For any src != dst,
// repeatedly applying NextPort reaches dst in exactly Hops(src, dst)
// steps. Both protocol engines account their per-message flit-hops with
// Hops, so the figure telemetry follows the topology automatically.
type Topology struct {
	w, h  int
	wrap  bool // wraparound links close every row and column into a cycle
	ports int  // 4 for the mesh and torus, 2 for the ring

	// xy[tile] is the tile's grid position, built once by NewTopology so
	// that routing never divides by the width.
	xy []coord
}

// coord is a tile's position on the grid.
type coord struct{ x, y int32 }

// Port numbering, shared by every kind.
const (
	portEast  = 0 // +X; the ring's clockwise port
	portWest  = 1 // -X; the ring's counter-clockwise port
	portSouth = 2 // +Y
	portNorth = 3 // -Y
)

// Link is one directed channel: tile From's output port Port leads to
// tile To.
type Link struct {
	From, Port, To int
}

// TopologyKinds lists the registered topology names in presentation order.
func TopologyKinds() []string { return []string{"mesh", "ring", "torus"} }

// NewTopology constructs a topology by registry name over a width x height
// tile grid. The empty kind defaults to "mesh" (the paper's network). The
// ring linearizes the same width*height tiles into a single cycle.
func NewTopology(kind string, width, height int) (*Topology, error) {
	if width <= 0 || height <= 0 {
		return nil, fmt.Errorf("mesh: non-positive dimensions %dx%d", width, height)
	}
	var t *Topology
	switch kind {
	case "", "mesh":
		t = &Topology{w: width, h: height, ports: 4}
	case "ring":
		t = &Topology{w: width * height, h: 1, wrap: true, ports: 2}
	case "torus":
		t = &Topology{w: width, h: height, wrap: true, ports: 4}
	default:
		return nil, fmt.Errorf("mesh: unknown topology %q (have %v)", kind, TopologyKinds())
	}
	t.xy = make([]coord, t.w*t.h)
	for tile := range t.xy {
		t.xy[tile] = coord{int32(tile % t.w), int32(tile / t.w)}
	}
	return t, nil
}

// Kind returns the registry name ("mesh", "ring", "torus").
func (t *Topology) Kind() string {
	switch {
	case t.ports == 2:
		return "ring"
	case t.wrap:
		return "torus"
	}
	return "mesh"
}

// Tiles returns the number of tiles (routers).
func (t *Topology) Tiles() int { return t.w * t.h }

// Ports returns the number of directed output ports per router.
func (t *Topology) Ports() int { return t.ports }

// shortest returns the coordinate difference d (|d| < n) along a
// dimension of n tiles as a route travels it: d itself without
// wraparound, and with it the shorter way around, a value in
// (-n/2, n/2] so that a tie goes the positive way.
func (t *Topology) shortest(d, n int) int {
	if t.wrap {
		if d < 0 {
			d += n
		}
		if d*2 > n {
			d -= n
		}
	}
	return d
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// Hops returns the route length in links from src to dst (0 when
// src == dst).
func (t *Topology) Hops(src, dst int) int {
	s, d := t.xy[src], t.xy[dst]
	return abs(t.shortest(int(d.x-s.x), t.w)) + abs(t.shortest(int(d.y-s.y), t.h))
}

// NextPort returns the output port taken at cur and the neighbouring tile
// it leads to, for one routing step toward dst. cur must differ from dst.
// The direction is stable along a route: each step shortens the remaining
// difference without changing its sign. Only a wrapped grid routes a step
// off its edge, which lands on the far side.
func (t *Topology) NextPort(cur, dst int) (port, next int) {
	c, d := t.xy[cur], t.xy[dst]
	if c.x != d.x {
		if t.shortest(int(d.x-c.x), t.w) > 0 {
			if int(c.x) == t.w-1 {
				return portEast, cur - (t.w - 1)
			}
			return portEast, cur + 1
		}
		if c.x == 0 {
			return portWest, cur + (t.w - 1)
		}
		return portWest, cur - 1
	}
	if t.shortest(int(d.y-c.y), t.h) > 0 {
		if int(c.y) == t.h-1 {
			return portSouth, cur - (t.h-1)*t.w
		}
		return portSouth, cur + t.w
	}
	if c.y == 0 {
		return portNorth, cur + (t.h-1)*t.w
	}
	return portNorth, cur - t.w
}

// PortAxis returns the dimension a port moves along: 0 for X (both ring
// ports), 1 for Y. The vc router resets its dateline VC class when a
// route switches axes.
func (t *Topology) PortAxis(port int) int { return port / 2 }

// step returns the tile one step from tile on port, wrapping around the
// grid, and whether the step crossed a grid edge to get there.
func (t *Topology) step(tile, port int) (to int, edge bool) {
	x, y := int(t.xy[tile].x), int(t.xy[tile].y)
	switch port {
	case portEast:
		x++
	case portWest:
		x--
	case portSouth:
		y++
	case portNorth:
		y--
	}
	edge = x < 0 || x == t.w || y < 0 || y == t.h
	return (y+t.h)%t.h*t.w + (x+t.w)%t.w, edge
}

// Wraparound reports whether the directed link leaving tile from on port
// crosses its dimension's wraparound boundary (the dateline), which sits
// at each grid edge. The vc router moves packets to the upper VC class
// after such a hop, which is what keeps wraparound topologies
// deadlock-free.
func (t *Topology) Wraparound(from, port int) bool {
	_, edge := t.step(from, port)
	return t.wrap && edge
}

// Links enumerates every directed link in the network, tile by tile in
// port order; the cycle-level routers wire their ports in this order. A
// mesh has no link across its edge, and a one-tile dimension wraps onto
// no link (a tile is not linked to itself).
func (t *Topology) Links() []Link {
	var ls []Link
	for tile := 0; tile < t.Tiles(); tile++ {
		for p := 0; p < t.ports; p++ {
			if to, edge := t.step(tile, p); to != tile && (t.wrap || !edge) {
				ls = append(ls, Link{tile, p, to})
			}
		}
	}
	return ls
}

// Diameter returns the longest minimal route in the topology, in links.
func Diameter(t *Topology) int {
	max := 0
	for s := 0; s < t.Tiles(); s++ {
		for d := 0; d < t.Tiles(); d++ {
			if h := t.Hops(s, d); h > max {
				max = h
			}
		}
	}
	return max
}

// AvgHops returns the mean route length over all ordered tile pairs
// (including same-tile pairs, which contribute zero).
func AvgHops(t *Topology) float64 {
	n := t.Tiles()
	if n == 0 {
		return 0
	}
	sum := 0
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			sum += t.Hops(s, d)
		}
	}
	return float64(sum) / float64(n*n)
}
