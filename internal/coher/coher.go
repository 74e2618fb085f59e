// Package coher is the protocol-agnostic coherence-controller substrate
// shared by the protocol families (internal/mesi, internal/denovo). A
// coherence protocol in this simulator is a set of per-tile controllers
// (an L1 per core, an L2 slice per tile, memory controllers at the MC
// tiles) exchanging messages over the mesh; everything about that shape
// that is not the protocol's state machine lives here:
//
//   - tile endpoint registration and the per-message dispatch contract
//     (Msg) that replaces the hand-rolled system-level type switches;
//   - line tables (LineTable, Table) for pending transactions (MSHRs,
//     victim buffers, fetch tables), directories and write-combining
//     tables, with the deterministic iteration a reproducible simulation
//     needs;
//   - store-buffer management (§4.2);
//   - retry backoff (Deferred), barrier drain gates and the free lists
//     that give each message and transaction record one owner;
//   - the memory-controller front end (MemCtl): MC latency, DRAM bursts
//     and writeback commit.
//
// A protocol family built on this substrate is a state machine plus a
// message vocabulary: mesi and denovo define line/word states, message
// structs with Dispatch methods, and handlers. Messages travel through
// memsys.Env's sends, which charge each packet to the flit-hop ledger as
// it is injected (§5.2).
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
	for t := 0; t < env.Cfg.Tiles(); t++ {
		tile := t
		env.Mesh.Register(tile, func(p any) { deliver(p, tile) })
	}
}

// Foreign panics for a payload p delivered to tile of system s that is
// not one of s's messages.
func Foreign(p, s any, tile int) {
	panic(fmt.Sprintf("coher: message %T does not dispatch to %T (tile %d)", p, s, tile))
}
