// Package coher is the protocol-agnostic coherence-controller substrate
// shared by the protocol families (internal/mesi, internal/denovo). A
// coherence protocol in this simulator is a set of per-tile controllers
// (an L1 per core, an L2 slice per tile, memory controllers at the MC
// tiles) exchanging messages over the mesh; everything about that shape
// that is not the protocol's state machine lives here:
//
//   - tile endpoint registration and message transport, with the paired
//     traffic accounting (every control flit charged to a class/bucket as
//     it is injected, §5.2);
//   - the per-message dispatch contract (Msg) that replaces the
//     hand-rolled system-level type switches;
//   - pending-transaction tables (MSHRs, victim buffers, fetch tables)
//     with the deterministic iteration helpers a reproducible simulation
//     needs;
//   - store-buffer and write-combining-table management (§4.2);
//   - NACK/retry-backoff handling, barrier drain gates and the free
//     lists that give each message and transaction record one owner;
//   - the memory-controller front end (MemCtl): MC latency, DRAM bursts
//     and writeback commit;
//
// A protocol family built on this substrate is a state machine plus a
// message vocabulary: mesi and denovo define line/word states, message
// structs with Dispatch methods, and handlers; coher moves the bytes and
// keeps the books.
package coher

import (
	"fmt"

	"repro/internal/memsys"
)

// Msg is implemented by every protocol message: Dispatch routes the
// delivered payload to the right component (L1, L2 slice, MC) of the
// destination tile. S is the protocol's System type.
type Msg[S any] interface {
	Dispatch(s S, tile int)
}

// RegisterTiles registers every tile of the system on the mesh: deliver
// gets each payload delivered to a tile, with the tile. Each family's
// deliver asserts its own Msg type and calls Dispatch, replacing the
// per-protocol dispatch switch. The assertion sits in the family's
// non-generic code, where it hits the call site's type cache; asserted
// here, against a type parameter, it would look the itab up per packet.
func RegisterTiles(env *memsys.Env, deliver func(p any, tile int)) {
	for t := 0; t < env.Cfg.Tiles; t++ {
		tile := t
		env.Mesh.Register(tile, func(p any) { deliver(p, tile) })
	}
}

// Foreign panics for a payload p delivered to tile of system s that is
// not one of s's messages.
func Foreign(p, s any, tile int) {
	panic(fmt.Sprintf("coher: message %T does not dispatch to %T (tile %d)", p, s, tile))
}

// Substrate is the controller base a protocol's System embeds: the
// environment handle plus message transport with traffic accounting.
type Substrate struct {
	Env *memsys.Env
}

// NewSubstrate wraps an environment.
func NewSubstrate(env *memsys.Env) Substrate { return Substrate{Env: env} }

// Hops returns the route length between two tiles on the active topology.
func (s *Substrate) Hops(a, b int) int { return s.Env.Mesh.Hops(a, b) }

// Send pushes a payload of the given flit count into the mesh.
func (s *Substrate) Send(src, dst, flits int, payload any) {
	s.Env.Mesh.Send(src, dst, flits, payload)
}

// SendData sends a packet of one control flit plus the data flits needed
// for words data words. The data flits are charged at the call site
// (Traffic.Fill, Filler or WBData); the header flit is charged
// separately (CtlHops or SendCtl).
func (s *Substrate) SendData(src, dst, words int, payload any) {
	s.Env.Mesh.Send(src, dst, 1+memsys.DataFlits(words), payload)
}

// CtlHops charges one control flit for a src->dst message to
// (class, bucket) and returns the hop count, for callers that embed the
// hop count in the payload before sending.
func (s *Substrate) CtlHops(class memsys.Class, bucket memsys.Bucket, src, dst int) int {
	hops := s.Env.Mesh.Hops(src, dst)
	s.Env.Traffic.Ctl(class, bucket, 1, hops)
	return hops
}

// SendCtl charges and sends a one-flit control message in one step and
// returns the hop count.
func (s *Substrate) SendCtl(class memsys.Class, bucket memsys.Bucket, src, dst int, payload any) int {
	hops := s.CtlHops(class, bucket, src, dst)
	s.Env.Mesh.Send(src, dst, 1, payload)
	return hops
}

// NackDelay is how long tile backs off before retrying a NACKed request:
// the retry backoff staggered by the tile id, so symmetric retries do not
// collide forever. A controller retries through a Deferred with this
// delay, which schedules exactly as Kernel.After would.
func (s *Substrate) NackDelay(tile int) int64 { return s.Env.Cfg.RetryBackoff + int64(tile) }

// ChargeNack records a received NACK's control charge, from the NACKing
// tile to tile.
func (s *Substrate) ChargeNack(from, tile int) {
	s.Env.Traffic.Ctl(memsys.ClassOVH, memsys.BOvhNack, 1, s.Env.Mesh.Hops(from, tile))
}
