// Package memsys holds the shared memory-system framework: the simulated
// system configuration (the paper's Table 4.1), the memory-operation and
// data-region model that workloads emit, the network-traffic recorder with
// the paper's load/store/writeback/overhead categories and deferred
// per-word Used/Waste attribution, and the execution-time breakdown of
// Figure 5.2. Protocol engines (internal/mesi, internal/denovo) and the
// driver (internal/core) both build on this package.
//
// Env, which owns both the fabric and the flit-hop ledger, is the only
// way a protocol sends: each of its sends charges the packet it injects
// (Send, SendWB, SendOverhead), so the ledger adds up to the flit-hops the
// fabric carried. Receivers charge the data words they install
// (Traffic.Fill, Filler) with the hops their Send returned. The one other
// charge is Env.ChargeNack, a known double count of request NACKs.
package memsys

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/bloom"
	"repro/internal/dram"
	"repro/internal/mesh"
)

// Word and line geometry shared by the whole simulator.
const (
	WordBytes    = 4
	LineBytes    = 64
	WordsPerLine = LineBytes / WordBytes
	LineShift    = 6

	// LineMask has one bit per word of a line: a whole-line word mask.
	LineMask uint16 = 1<<WordsPerLine - 1
)

// LineOf returns the line address (byte address >> LineShift) of addr.
func LineOf(addr uint32) uint32 { return addr >> LineShift }

// WordIndex returns the word offset of addr within its line.
func WordIndex(addr uint32) int { return int(addr>>2) & (WordsPerLine - 1) }

// WordAddr returns the word-aligned byte address.
func WordAddr(addr uint32) uint32 { return addr &^ 3 }

// AddrOf reconstructs a byte address from a line address and word index.
func AddrOf(line uint32, word int) uint32 { return line<<LineShift | uint32(word)<<2 }

// Config is the simulated system of Table 4.1 plus protocol-level knobs
// from §4.2 and §4.4.
type Config struct {
	// Config is the fabric — tile grid, topology, router model, VC
	// geometry and link latency — which NewEnv hands to mesh.New as is.
	mesh.Config

	L1Bytes int // private L1 data cache per tile
	L1Assoc int

	L2SliceBytes int // shared L2 slice per tile
	L2Assoc      int

	MaxDataFlits int // data flits per packet (4 => 64B max data)

	L1Latency int64 // L1 access latency
	L2Latency int64 // L2 slice access latency
	MCLatency int64 // memory-controller processing latency

	StoreBufferEntries  int   // non-blocking writes per core (MESI + DeNovo)
	WriteCombineEntries int   // DeNovo write-combining table entries
	WriteCombineTimeout int64 // cycles before a pending registration flushes

	RetryBackoff int64 // cycles an L1 waits before retrying a NACKed request

	DRAM dram.Config

	Bloom bloom.BankConfig // L2 request-bypass filter geometry (§4.4), one bank per tile
}

// Tiles returns the tile count: each tile of the grid has a core, an L1,
// an L2 slice and a Bloom bank.
func (c Config) Tiles() int { return c.Width * c.Height }

// MCTiles returns the tiles hosting memory controllers, indexed by
// channel: the grid's four corners, deduplicated in row-major order for
// degenerate shapes (a 1-wide or 1-tall grid has two distinct corners,
// and a 1x1 grid one). This is the generalization of the paper's
// {0, 3, 12, 15} on the 4x4 mesh; the ring linearizes the same tiles, so
// the corner indexes stay valid on every topology.
func (c Config) MCTiles() []int {
	tiles := make([]int, c.channels())
	for ch := range tiles {
		tiles[ch] = c.corner(ch)
	}
	return tiles
}

// channels returns the number of memory channels: one per distinct
// corner of the grid.
func (c Config) channels() int { return min(c.Width, 2) * min(c.Height, 2) }

// corner returns the tile of channel ch's memory controller: ch counts
// the distinct corners in row-major order.
func (c Config) corner(ch int) int {
	cols := min(c.Width, 2)
	return ch/cols*(c.Height-1)*c.Width + ch%cols*(c.Width-1)
}

// ParseMeshDims parses a "WxH" mesh-dimension string ("4x4", "8x8",
// "16x16") into its width and height. Degenerate shapes fail loudly:
// missing parts ("3x"), non-integers, and non-positive dimensions ("0x4")
// are errors, and so is a single-tile 1x1 grid (no second tile to talk
// to — every NoC quantity would be degenerate). So is a side longer than
// mesh.MaxSide.
func ParseMeshDims(s string) (width, height int, err error) {
	parts := strings.Split(strings.TrimSpace(s), "x")
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("memsys: mesh dimensions %q are not WxH (e.g. 4x4, 8x8)", s)
	}
	w, werr := strconv.Atoi(strings.TrimSpace(parts[0]))
	h, herr := strconv.Atoi(strings.TrimSpace(parts[1]))
	if werr != nil || herr != nil {
		return 0, 0, fmt.Errorf("memsys: mesh dimensions %q are not WxH with integer parts", s)
	}
	if w < 1 || h < 1 {
		return 0, 0, fmt.Errorf("memsys: mesh dimensions %dx%d: both must be >= 1", w, h)
	}
	if err := checkSides(w, h); err != nil {
		return 0, 0, err
	}
	if w*h < 2 {
		return 0, 0, fmt.Errorf("memsys: mesh dimensions %dx%d: a 1-tile network has no links; use at least 2 tiles", w, h)
	}
	return w, h, nil
}

// checkSides bounds both sides of a tile grid by mesh.MaxSide; it runs
// before anything multiplies them.
func checkSides(w, h int) error {
	if w > mesh.MaxSide || h > mesh.MaxSide {
		return fmt.Errorf("memsys: mesh dimensions %dx%d: each side must be at most %d", w, h, mesh.MaxSide)
	}
	return nil
}

// FormatMeshDims renders mesh dimensions in the canonical "WxH" spelling.
func FormatMeshDims(width, height int) string {
	return fmt.Sprintf("%dx%d", width, height)
}

// WithMesh returns a copy of c re-dimensioned to a width x height grid.
// The tile count, the corner memory-controller placement and the Bloom
// banks (one per L2 slice) follow the dimensions. Per-tile cache and link
// parameters are unchanged — scaling the fabric scales the aggregate
// capacity with it, as a real tiled CMP would.
func (c Config) WithMesh(width, height int) Config {
	c.Width, c.Height = width, height
	return c
}

// Default returns the paper's simulated system (Table 4.1): 16 tiles, 2 GHz
// in-order cores, 32 KB 8-way L1s, 256 KB 16-way L2 slices (4 MB total),
// 4x4 mesh with 16-byte links and 3-cycle link latency, packets of at most
// one control flit and four data flits, corner-tile memory controllers with
// single-channel DDR3-1066 DIMMs.
func Default() Config {
	return Config{
		Config: mesh.Config{Width: 4, Height: 4, Topology: "mesh", Router: "ideal", LinkLatency: 3},

		L1Bytes: 32 * 1024,
		L1Assoc: 8,

		L2SliceBytes: 256 * 1024,
		L2Assoc:      16,

		MaxDataFlits: 4,

		L1Latency: 2,
		L2Latency: 10,
		MCLatency: 6,

		StoreBufferEntries:  32,
		WriteCombineEntries: 32,
		WriteCombineTimeout: 10000,

		RetryBackoff: 24,

		DRAM:  dram.DefaultConfig(),
		Bloom: bloom.DefaultBankConfig(),
	}
}

// Scaled returns a copy of c with cache capacities divided by div. Input
// sizes are scaled by the same factor in the experiment harness so that
// working-set-to-capacity ratios — which determine reuse, bypass benefit
// and eviction waste — match the paper's. Associativities, the mesh, and
// DRAM timing are unchanged.
func (c Config) Scaled(div int) Config {
	if div <= 1 {
		return c
	}
	c.L1Bytes /= div
	c.L2SliceBytes /= div
	if c.L1Bytes < c.L1Assoc*LineBytes {
		c.L1Bytes = c.L1Assoc * LineBytes
	}
	if c.L2SliceBytes < c.L2Assoc*LineBytes {
		c.L2SliceBytes = c.L2Assoc * LineBytes
	}
	return c
}

// Validate checks internal consistency.
func (c Config) Validate() error {
	if err := checkSides(c.Width, c.Height); err != nil {
		return err
	}
	if _, err := mesh.NewTopology(c.Topology, c.Width, c.Height); err != nil {
		return fmt.Errorf("memsys: %w", err)
	}
	if err := mesh.ValidRouter(c.Router); err != nil {
		return fmt.Errorf("memsys: %w", err)
	}
	// The dateline deadlock-avoidance scheme splits the VCs into two equal
	// classes: an odd count would silently give class 0 fewer buffers and
	// skew both fairness and the torus deadlock margin.
	if c.VCs != 0 && (c.VCs < 2 || c.VCs%2 != 0) {
		return fmt.Errorf("memsys: VCs = %d; the dateline split needs an even count >= 2", c.VCs)
	}
	if c.VCs > mesh.MaxVCs {
		return fmt.Errorf("memsys: VCs = %d exceeds the maximum %d", c.VCs, mesh.MaxVCs)
	}
	if c.VCDepth < 0 {
		return fmt.Errorf("memsys: VCDepth = %d must not be negative", c.VCDepth)
	}
	if c.VCDepth > mesh.MaxVCDepth {
		return fmt.Errorf("memsys: VCDepth = %d exceeds the maximum %d", c.VCDepth, mesh.MaxVCDepth)
	}
	if c.MaxDataFlits <= 0 {
		return fmt.Errorf("memsys: MaxDataFlits must be positive")
	}
	return nil
}

// HomeTile returns the L2 slice (tile) that owns a line address: lines are
// interleaved across slices.
func (c Config) HomeTile(line uint32) int { return int(line) % c.Tiles() }

// Channel returns the memory-channel index for a line address. A different
// bit range than HomeTile is used so slice and channel interleaving are
// decorrelated.
func (c Config) Channel(line uint32) int {
	return int(line>>4) % c.channels()
}

// MCTile returns the tile hosting the memory controller for a line.
func (c Config) MCTile(line uint32) int { return c.corner(c.Channel(line)) }

// MaxDataWords is the largest number of words one packet can carry.
func (c Config) MaxDataWords() int { return c.MaxDataFlits * 4 }

// DataFlits returns the number of 16-byte data flits needed for n words.
func DataFlits(words int) int { return (words + 3) / 4 }
