// Package mesh models an on-chip interconnect with three topologies,
// pluggable router models, per-link serialization, and wormhole-style
// pipelining.
//
// The fabric (Mesh) is topology-agnostic: geometry and routing live in
// one grid type, Topology (see topology.go), routed dimension-ordered (X,
// then Y). The "mesh" kind has no wraparound links, the "torus" wraps
// every row and column, and the "ring" is one wrapped row of all the
// tiles with two ports. Every kind numbers its ports 0 = +X (the ring's
// clockwise port), 1 = -X, 2 = +Y and 3 = -Y. The default matches the
// network of the paper's Table 4.1: a 4x4 mesh with 16-byte links and a
// 3-cycle per-hop latency. A packet consists of one control flit plus up
// to four 16-byte data flits (at most 64 bytes of data per message).
// Traffic is measured in flit-hops: a packet of f flits that traverses h
// links contributes f*h flit-hops, so per-topology route lengths flow
// directly into the paper's traffic telemetry.
//
// The forwarding model is likewise pluggable (see router.go):
//
//   - Router "ideal" (default): each directed link forwards one flit per
//     cycle and the model reserves links for the full serialization time
//     of a packet at injection, so contention on hot links delays later
//     packets. This is the wormhole approximation the paper's figures are
//     built on (no virtual channels, no credit stalls).
//   - Router "vc": a cycle-level wormhole router with per-port input VCs,
//     credit-based flow control and round-robin VC/switch allocation (see
//     vc.go), which exposes the congestion effects the ideal model hides.
//   - Router "deflection": a cycle-level minimally-buffered router (see
//     deflect.go) that misroutes on contention instead of buffering —
//     oldest-first arbitration, losers deflected onto free ports, a small
//     per-node side buffer — trading buffer cost for extra link
//     traversals, surfaced as the DeflectedHops waste category.
//
// Whatever the model, the fabric records congestion telemetry — a
// packet-latency histogram, per-link utilization, peak buffer occupancy
// (input-VC flits under "vc", injection-plus-side-buffer flits under
// "deflection"), and deflected hops — snapshotted with Stats and zeroed
// with ResetStats at the start of the measured window.
package mesh

import (
	"fmt"
	"math/bits"

	"repro/internal/sim"
)

// Config describes network geometry, link parameters and the router model.
type Config struct {
	Width, Height int    // tiles in X and Y (the ring linearizes them)
	Topology      string // "mesh" (default), "ring", or "torus"
	Router        string // "ideal" (default), "vc", or "deflection"
	VCs           int    // vc router: virtual channels per input port (default 2; must be even >= 2 for the dateline class split)
	VCDepth       int    // vc router: flit buffer depth per VC (default 4)
	LinkLatency   int64  // cycles for a flit to traverse one link
}

// localLatency is the cycles of a same-tile (0-hop) delivery.
const localLatency = 1

// Handler receives a delivered payload at a tile.
type Handler func(payload any)

// LatencyBins is the number of log2 buckets in the packet-latency
// histogram: bucket 0 counts zero-latency deliveries, bucket b counts
// latencies in [2^(b-1), 2^b), and the last bucket absorbs the tail.
const LatencyBins = 20

// Mesh is the interconnect fabric. Create one with New.
type Mesh struct {
	cfg        Config
	topo       *Topology
	k          *sim.Kernel
	handlers   []Handler
	r          router
	routerKind string // the resolved Config.Router

	// Cumulative telemetry (never reset).
	packets  uint64
	flitHops uint64

	// Congestion telemetry, zeroed by ResetStats at measurement start.
	statsStart int64
	delivered  uint64
	latSum     int64
	latMax     int64
	latHist    [LatencyBins]uint64
	linkBusy   [][]int64 // [tile][port] flit-cycles of link occupancy
	peakVC     int       // peak buffering: max flits in any input VC (vc) or node local queue (deflection)
	deflHops   uint64    // deflection router: link traversals beyond the minimal routes

	delFree *delivery // free list of pending-delivery records
}

// delivery is one packet's pending final-delivery event. Records are
// free-listed on the mesh and scheduled with Kernel.AtArg, so steady-state
// delivery traffic allocates nothing.
type delivery struct {
	m       *Mesh
	payload any
	dst     int
	lat     int64
	next    *delivery
}

// runDelivery fires a scheduled delivery: record the packet's latency in
// the measured window, recycle the record, then hand the payload to the
// tile. A package-level function value, so AtArg call sites never build a
// closure.
func runDelivery(a any) {
	d := a.(*delivery)
	m, dst, payload, lat := d.m, d.dst, d.payload, d.lat
	d.payload = nil
	d.next = m.delFree
	m.delFree = d
	m.recordLatency(lat)
	m.handlers[dst](payload)
}

// New creates an interconnect driven by kernel k. Unknown topology or
// router names panic; validate them beforehand with NewTopology /
// ValidRouter (memsys.Config.Validate does) when the names come from user
// input.
func New(k *sim.Kernel, cfg Config) *Mesh {
	topo, err := NewTopology(cfg.Topology, cfg.Width, cfg.Height)
	if err != nil {
		panic(err.Error())
	}
	model, err := lookupRouter(cfg.Router)
	if err != nil {
		panic(err.Error())
	}
	if cfg.LinkLatency <= 0 {
		cfg.LinkLatency = 1
	}
	n := topo.Tiles()
	linkBusy := make([][]int64, n)
	for i := range linkBusy {
		linkBusy[i] = make([]int64, topo.Ports())
	}
	m := &Mesh{
		cfg:        cfg,
		topo:       topo,
		k:          k,
		handlers:   make([]Handler, n),
		routerKind: model.kind,
		linkBusy:   linkBusy,
	}
	m.r = model.ctor(m)
	return m
}

// Topology returns the routing geometry the fabric was built with.
func (m *Mesh) Topology() *Topology { return m.topo }

// Router returns the name of the forwarding model in use.
func (m *Mesh) Router() string { return m.routerKind }

// Tiles returns the number of tiles.
func (m *Mesh) Tiles() int { return m.topo.Tiles() }

// Register installs the delivery handler for a tile. It must be called once
// per tile before any Send that targets it.
func (m *Mesh) Register(tile int, h Handler) {
	if m.handlers[tile] != nil {
		panic(fmt.Sprintf("mesh: tile %d registered twice", tile))
	}
	m.handlers[tile] = h
}

// Hops returns the route length in links between two tiles under the
// configured topology.
func (m *Mesh) Hops(src, dst int) int { return m.topo.Hops(src, dst) }

// Send injects a packet of the given flit count from src to dst and
// schedules delivery of payload at the destination handler. It returns the
// number of link hops the packet traverses (0 for same-tile delivery) so
// that callers can account flit-hops.
func (m *Mesh) Send(src, dst, flits int, payload any) int {
	if flits <= 0 {
		panic("mesh: packet with no flits")
	}
	m.packets++
	if src == dst {
		now := m.k.Now()
		m.complete(dst, payload, now, now+localLatency)
		return 0
	}
	hops := m.r.inject(src, dst, flits, payload)
	m.flitHops += uint64(flits * hops)
	return hops
}

// complete schedules the final delivery of a packet and records its
// latency when the delivery event fires, so warm-up deliveries never leak
// into the measured window.
func (m *Mesh) complete(dst int, payload any, injectedAt, at int64) {
	if m.handlers[dst] == nil {
		panic(fmt.Sprintf("mesh: no handler registered for tile %d", dst))
	}
	d := m.delFree
	if d == nil {
		d = &delivery{m: m}
	} else {
		m.delFree = d.next
	}
	d.payload, d.dst, d.lat = payload, dst, at-injectedAt
	m.k.AtArg(at, runDelivery, d)
}

func (m *Mesh) recordLatency(lat int64) {
	m.delivered++
	m.latSum += lat
	if lat > m.latMax {
		m.latMax = lat
	}
	b := bits.Len64(uint64(lat))
	if b >= LatencyBins {
		b = LatencyBins - 1
	}
	m.latHist[b]++
}

// Packets returns the number of packets injected so far.
func (m *Mesh) Packets() uint64 { return m.packets }

// FlitHops returns total flit-hops carried so far.
func (m *Mesh) FlitHops() uint64 { return m.flitHops }

// NetStats is a detached congestion-telemetry snapshot covering the window
// since the last ResetStats.
type NetStats struct {
	Router    string // forwarding model the fabric ran
	Delivered uint64 // packets delivered in the window
	Cycles    int64  // window length in cycles

	LatencyMean float64             // mean injection-to-delivery packet latency
	LatencyMax  int64               // worst packet latency observed
	LatencyHist [LatencyBins]uint64 // log2-bucketed latency histogram

	LinkUtilMean float64 // mean directed-link utilization (flit-cycles/cycle)
	LinkUtilMax  float64 // utilization of the hottest directed link

	// PeakVCOccupancy is the deepest buffering the window saw: the max
	// flits in any input VC under "vc", the max injection-backlog plus
	// side-buffer flits at any node under "deflection" (0 for ideal).
	PeakVCOccupancy int

	// DeflectedHops counts link traversals taken beyond the packets'
	// minimal routes — the deflection router's waste category (buffer
	// cost traded for extra traversals; 0 under "ideal" and "vc").
	DeflectedHops uint64
}

// Stats snapshots the congestion telemetry accumulated since the last
// ResetStats (or since construction).
func (m *Mesh) Stats() NetStats {
	s := NetStats{
		Router:          m.routerKind,
		Delivered:       m.delivered,
		Cycles:          m.k.Now() - m.statsStart,
		LatencyMax:      m.latMax,
		LatencyHist:     m.latHist,
		PeakVCOccupancy: m.peakVC,
		DeflectedHops:   m.deflHops,
	}
	if m.delivered > 0 {
		s.LatencyMean = float64(m.latSum) / float64(m.delivered)
	}
	if s.Cycles > 0 {
		links := m.topo.Links()
		var sum float64
		for _, l := range links {
			u := float64(m.linkBusy[l.From][l.Port]) / float64(s.Cycles)
			sum += u
			if u > s.LinkUtilMax {
				s.LinkUtilMax = u
			}
		}
		if len(links) > 0 {
			s.LinkUtilMean = sum / float64(len(links))
		}
	}
	return s
}

// ResetStats zeroes the congestion telemetry and restarts its measurement
// window at the current cycle. The cumulative Packets/FlitHops counters
// are unaffected.
func (m *Mesh) ResetStats() {
	m.statsStart = m.k.Now()
	m.delivered, m.latSum, m.latMax = 0, 0, 0
	m.latHist = [LatencyBins]uint64{}
	for i := range m.linkBusy {
		for j := range m.linkBusy[i] {
			m.linkBusy[i][j] = 0
		}
	}
	m.peakVC = 0
	m.deflHops = 0
}
