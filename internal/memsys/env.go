package memsys

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/dram"
	"repro/internal/mesh"
	"repro/internal/recycle"
	"repro/internal/sim"
	"repro/internal/waste"
)

// ServicePoint says where a load was satisfied, for the Figure 5.2
// execution-time breakdown.
type ServicePoint uint8

// Load service points.
const (
	PointL1     ServicePoint = iota // L1 hit or store-buffer forward
	PointOnChip                     // L2 slice or a remote L1
	PointMemory                     // DRAM
)

// Sample carries the timing decomposition of one completed load.
type Sample struct {
	Point ServicePoint
	// For PointMemory loads: request travel to the MC, DRAM service, and
	// response travel back (cycles). Zero otherwise.
	ToMC, Mem, FromMC int64
}

// TimeBreakdown accumulates one core's cycles into the Figure 5.2
// categories.
type TimeBreakdown struct {
	Busy, OnChip, ToMC, Mem, FromMC, Sync int64
}

// Total returns the sum of all categories.
func (t *TimeBreakdown) Total() int64 {
	return t.Busy + t.OnChip + t.ToMC + t.Mem + t.FromMC + t.Sync
}

// AddStall distributes a load stall of d cycles according to the sample.
// For memory loads the protocol-reported component times are scaled to the
// observed stall so the categories always sum to the wall-clock time.
func (t *TimeBreakdown) AddStall(d int64, s Sample) {
	if d <= 0 {
		return
	}
	switch s.Point {
	case PointL1, PointOnChip:
		t.OnChip += d
	case PointMemory:
		sum := s.ToMC + s.Mem + s.FromMC
		if sum <= 0 {
			t.Mem += d
			return
		}
		toMC := d * s.ToMC / sum
		mem := d * s.Mem / sum
		t.ToMC += toMC
		t.Mem += mem
		t.FromMC += d - toMC - mem
	}
}

// Protocol is the contract between the core driver and a coherence
// protocol engine.
type Protocol interface {
	// Name is the configuration name as it appears in the figures.
	Name() string
	// Load issues a blocking load for core; done fires when the value is
	// available, with the timing sample for Figure 5.2.
	Load(core int, addr uint32, done func(val uint32, s Sample))
	// Store issues a non-blocking store. It returns false when the store
	// buffer is full; the driver retries after the unstall callback.
	Store(core int, addr uint32, val uint32) bool
	// SetStoreUnstall registers the driver's retry hook for a core.
	SetStoreUnstall(core int, fn func())
	// Drain completes core's pending stores/registrations before a
	// barrier; done fires when the core is quiescent.
	Drain(core int, done func())
	// AtBarrier performs the protocol's global barrier actions (DeNovo
	// self-invalidation of the written regions, Bloom filter clears).
	// It is called once per barrier after every core has drained.
	AtBarrier(written []uint8)
	// Recycle hands the engine's cache arrays and Bloom banks to the next
	// engine built; the engine must not be used again.
	Recycle()
}

// Env bundles the shared simulation state handed to protocol engines.
type Env struct {
	K       *sim.Kernel
	Mesh    *mesh.Mesh
	Chans   []*dram.Channel // one per memory channel, indexed like Config.MCTiles()
	Cfg     Config
	Traffic *Traffic
	Prof    *waste.Profiler
	Regions *RegionTable
	Mem     []uint32 // word-indexed backing store (functional values)
}

// recycledMem holds the backing stores of ended runs, by length.
var recycledMem recycle.Slices[uint32]

// NewEnv constructs the kernel, mesh, DRAM channels, profiler and traffic
// recorder for one simulation run. The kernel, the profiler and the
// backing store reuse a recycled run's arrays when one is free.
func NewEnv(cfg Config, footprintBytes uint32, regions []Region) (*Env, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rt, err := NewRegionTable(regions)
	if err != nil {
		return nil, err
	}
	k := sim.NewKernel()
	prof := waste.NewProfiler()
	e := &Env{
		K:       k,
		Mesh:    mesh.New(k, cfg.Config),
		Cfg:     cfg,
		Traffic: NewTraffic(prof),
		Prof:    prof,
		Regions: rt,
		Mem:     recycledMem.Get(int((footprintBytes + 3) / 4)),
	}
	e.Chans = make([]*dram.Channel, len(cfg.MCTiles()))
	for i := range e.Chans {
		e.Chans[i] = dram.NewChannel(k, cfg.DRAM)
	}
	return e, nil
}

// NewCache makes an L1 or L2 array of sizeBytes in assoc-way sets of
// LineBytes lines, and has the profiler track its instance words: every
// cache a protocol builds comes from here, so Finish reaches every open
// L1 and L2 instance.
func (e *Env) NewCache(sizeBytes, assoc int) *cache.Cache {
	c := cache.New(sizeBytes, assoc, LineBytes)
	e.Prof.Track(c.InstWords())
	return c
}

// Send injects a packet of one control flit plus the data flits of words
// data words from src to dst, charges the control flit to (class,
// bucket), and returns the hops the packet takes. A response's receiver
// charges its data flits with those hops (Traffic.Fill or Filler), so the
// payload carries them; it may take them after the send, since Mesh.Send
// never delivers inside the calling event.
func (e *Env) Send(class Class, bucket Bucket, src, dst, words int, payload any) int {
	hops := e.Mesh.Send(src, dst, 1+DataFlits(words), payload)
	e.Traffic.ctl(class, bucket, 1, hops)
	return hops
}

// SendWB injects a writeback of dirty modified and clean unmodified words
// from src to dst, a memory controller when toMem, and charges all of it:
// the control flit and the last data flit's filler to WB Control, each
// word's share to WB Used or Waste (Figure 5.1d).
func (e *Env) SendWB(toMem bool, src, dst, dirty, clean int, payload any) {
	hops := e.Send(ClassWB, BWBCtl, src, dst, dirty+clean, payload)
	e.Traffic.wbData(toMem, hops, dirty, clean)
}

// SendOverhead injects a packet of one control flit plus the data flits
// of words data words and charges all of it to the overhead bucket: a
// DeNovo Bloom filter copy (§4.4).
func (e *Env) SendOverhead(bucket Bucket, src, dst, words int, payload any) {
	flits := 1 + DataFlits(words)
	hops := e.Mesh.Send(src, dst, flits, payload)
	e.Traffic.ctl(ClassOVH, bucket, flits, hops)
}

// ChargeNack charges a request NACK sent by tile from once more, where it
// reaches a request still waiting at tile. This is a known double count:
// the Send that carried the NACK charged it already, so the ledger
// exceeds the fabric's flit-hops by these echoes. Put NACKs are charged
// once.
func (e *Env) ChargeNack(from, tile int) {
	e.Traffic.ctl(ClassOVH, BOvhNack, 1, e.Mesh.Hops(from, tile))
}

// NackDelay is how long tile backs off before retrying a NACKed request:
// the retry backoff staggered by the tile id, so symmetric retries do not
// collide forever. A controller retries through a coher.Deferred with
// this delay, which schedules exactly as Kernel.After would.
func (e *Env) NackDelay(tile int) int64 { return e.Cfg.RetryBackoff + int64(tile) }

// Recycle hands the run's kernel, profiler and backing store to the next
// NewEnv. The caller must not use the Env, or anything built on it, again.
func (e *Env) Recycle() {
	e.K.Recycle()
	e.Prof.Recycle()
	recycledMem.Put(e.Mem)
}

// MemRead returns the backing-store value of a word address.
func (e *Env) MemRead(addr uint32) uint32 {
	i := addr >> 2
	if int(i) >= len(e.Mem) {
		panic(fmt.Sprintf("memsys: read outside footprint: %#x", addr))
	}
	return e.Mem[i]
}

// MemWrite updates the backing-store value of a word address.
func (e *Env) MemWrite(addr uint32, val uint32) {
	i := addr >> 2
	if int(i) >= len(e.Mem) {
		panic(fmt.Sprintf("memsys: write outside footprint: %#x", addr))
	}
	e.Mem[i] = val
}

// StartMeasurement flips profiler and traffic recorder into measured mode
// after the warm-up phases and opens a fresh congestion-telemetry window
// on the fabric.
func (e *Env) StartMeasurement() {
	e.Prof.StartMeasurement()
	e.Traffic.StartMeasurement()
	e.Mesh.ResetStats()
}
