// Package trace records workload memory-op streams to a compact binary
// format and replays them as memsys.Programs, opening the workload axis to
// captured external traces alongside the ported benchmarks and synthetic
// patterns.
//
// A trace captures everything the simulator contract needs — thread count,
// footprint, region table, phase structure with per-phase written-region
// sets, and every (phase, thread) op stream — so a replayed trace drives
// any protocol bit-identically to the program it was recorded from.
//
// The file format (magic "RTRC", version 1) is varint-packed: op addresses
// are delta-encoded per stream and the op kind rides in the low two bits
// of a single varint per op, which keeps traces a few bytes per op. Every
// structural field is bounds-checked on load, so a truncated or corrupt
// file is a loud error, never a half-replayed workload.
package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"repro/internal/memsys"
)

const (
	magic   = "RTRC"
	version = 1
)

// maxTraceSide bounds decoded structural counts (threads, phases, regions)
// against corrupt length fields allocating unbounded memory.
const maxTraceSide = 1 << 20

// Trace is a fully captured workload: the program contract, materialized.
type Trace struct {
	Name      string
	Threads   int
	Footprint uint32
	Warmup    int
	Regions   []memsys.Region
	Written   [][]uint8       // per phase: region ids written
	Ops       [][][]memsys.Op // [phase][thread]
}

// Phases returns the recorded phase count.
func (t *Trace) Phases() int { return len(t.Ops) }

// TotalOps returns the number of recorded operations across all streams.
func (t *Trace) TotalOps() int {
	n := 0
	for _, phase := range t.Ops {
		for _, stream := range phase {
			n += len(stream)
		}
	}
	return n
}

// Record captures a program's complete op streams by direct enumeration.
// EmitOps is pure over state frozen at construction, so the result is
// bit-identical to what any simulation of the program drives.
func Record(p memsys.Program) *Trace {
	t := &Trace{
		Name:      p.Name(),
		Threads:   p.Threads(),
		Footprint: p.FootprintBytes(),
		Warmup:    p.WarmupPhases(),
		Regions:   append([]memsys.Region(nil), p.Regions()...),
	}
	phases := p.Phases()
	t.Written = make([][]uint8, phases)
	t.Ops = make([][][]memsys.Op, phases)
	for ph := 0; ph < phases; ph++ {
		t.Written[ph] = append([]uint8(nil), p.WrittenRegions(ph)...)
		t.Ops[ph] = make([][]memsys.Op, t.Threads)
		for th := 0; th < t.Threads; th++ {
			var ops []memsys.Op
			p.EmitOps(ph, th, func(o memsys.Op) { ops = append(ops, o) })
			t.Ops[ph][th] = ops
		}
	}
	return t
}

// program replays a Trace through the memsys.Program contract.
type program struct {
	t    *Trace
	name string
}

// NewProgram wraps a trace as a runnable Program. A non-empty name
// overrides the recorded one (the workload registry passes the canonical
// replay spec so matrix keys stay consistent).
func NewProgram(t *Trace, name string) memsys.Program {
	if name == "" {
		name = t.Name
	}
	return &program{t: t, name: name}
}

// Name implements memsys.Program.
func (p *program) Name() string { return p.name }

// Threads implements memsys.Program.
func (p *program) Threads() int { return p.t.Threads }

// FootprintBytes implements memsys.Program.
func (p *program) FootprintBytes() uint32 { return p.t.Footprint }

// Regions implements memsys.Program.
func (p *program) Regions() []memsys.Region { return p.t.Regions }

// Phases implements memsys.Program.
func (p *program) Phases() int { return p.t.Phases() }

// WarmupPhases implements memsys.Program.
func (p *program) WarmupPhases() int { return p.t.Warmup }

// WrittenRegions implements memsys.Program.
func (p *program) WrittenRegions(ph int) []uint8 { return p.t.Written[ph] }

// EmitOps implements memsys.Program: replay the recorded stream verbatim.
func (p *program) EmitOps(ph, th int, emit func(memsys.Op)) {
	for _, op := range p.t.Ops[ph][th] {
		emit(op)
	}
}

// zigzag folds a signed delta into an unsigned varint payload.
func zigzag(d int64) uint64 { return uint64((d << 1) ^ (d >> 63)) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

type writer struct {
	w   *bufio.Writer
	buf [binary.MaxVarintLen64]byte
	err error
}

func (w *writer) uvarint(v uint64) {
	if w.err != nil {
		return
	}
	n := binary.PutUvarint(w.buf[:], v)
	_, w.err = w.w.Write(w.buf[:n])
}

func (w *writer) str(s string) {
	w.uvarint(uint64(len(s)))
	if w.err == nil {
		_, w.err = w.w.WriteString(s)
	}
}

// Write serializes a trace.
func Write(out io.Writer, t *Trace) error {
	w := &writer{w: bufio.NewWriter(out)}
	if _, err := w.w.WriteString(magic); err != nil {
		return err
	}
	w.uvarint(version)
	w.str(t.Name)
	w.uvarint(uint64(t.Threads))
	w.uvarint(uint64(t.Footprint))
	w.uvarint(uint64(t.Warmup))
	w.uvarint(uint64(len(t.Regions)))
	for _, r := range t.Regions {
		w.uvarint(uint64(r.ID))
		w.str(r.Name)
		w.uvarint(uint64(r.Base))
		w.uvarint(uint64(r.Size))
		w.uvarint(uint64(r.StrideWords))
		w.uvarint(uint64(len(r.CommOffsets)))
		for _, o := range r.CommOffsets {
			w.uvarint(uint64(o))
		}
		b := uint64(0)
		if r.Bypass {
			b = 1
		}
		w.uvarint(b)
	}
	w.uvarint(uint64(len(t.Ops)))
	for ph := range t.Ops {
		w.uvarint(uint64(len(t.Written[ph])))
		for _, id := range t.Written[ph] {
			w.uvarint(uint64(id))
		}
		for th := range t.Ops[ph] {
			stream := t.Ops[ph][th]
			w.uvarint(uint64(len(stream)))
			prev := int64(0)
			for _, op := range stream {
				switch op.Kind {
				case memsys.OpLoad, memsys.OpStore:
					delta := int64(op.Addr) - prev
					prev = int64(op.Addr)
					w.uvarint(zigzag(delta)<<2 | uint64(op.Kind))
				case memsys.OpCompute:
					w.uvarint(uint64(op.Cycles)<<2 | uint64(memsys.OpCompute))
				default:
					return fmt.Errorf("trace: unencodable op kind %d", op.Kind)
				}
			}
		}
	}
	if w.err != nil {
		return w.err
	}
	return w.w.Flush()
}

type reader struct {
	r *bufio.Reader
}

func (r *reader) uvarint(what string) (uint64, error) {
	v, err := binary.ReadUvarint(r.r)
	if err != nil {
		return 0, fmt.Errorf("trace: truncated %s: %w", what, err)
	}
	return v, nil
}

func (r *reader) count(what string, max uint64) (int, error) {
	v, err := r.uvarint(what)
	if err != nil {
		return 0, err
	}
	if v > max {
		return 0, fmt.Errorf("trace: corrupt %s count %d (max %d)", what, v, max)
	}
	return int(v), nil
}

func (r *reader) str(what string) (string, error) {
	n, err := r.count(what+" length", maxTraceSide)
	if err != nil {
		return "", err
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r.r, b); err != nil {
		return "", fmt.Errorf("trace: truncated %s: %w", what, err)
	}
	return string(b), nil
}

// Read deserializes a trace, validating structure as it goes.
func Read(in io.Reader) (*Trace, error) {
	r := &reader{r: bufio.NewReader(in)}
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(r.r, head); err != nil {
		return nil, fmt.Errorf("trace: not a trace file: %w", err)
	}
	if !bytes.Equal(head, []byte(magic)) {
		return nil, fmt.Errorf("trace: bad magic %q (want %q)", head, magic)
	}
	ver, err := r.uvarint("version")
	if err != nil {
		return nil, err
	}
	if ver != version {
		return nil, fmt.Errorf("trace: unsupported version %d (have %d)", ver, version)
	}
	t := &Trace{}
	if t.Name, err = r.str("name"); err != nil {
		return nil, err
	}
	if t.Threads, err = r.count("threads", maxTraceSide); err != nil {
		return nil, err
	}
	if t.Threads == 0 {
		return nil, fmt.Errorf("trace: zero threads")
	}
	fp, err := r.uvarint("footprint")
	if err != nil {
		return nil, err
	}
	if fp > 1<<32-1 {
		return nil, fmt.Errorf("trace: corrupt footprint %d", fp)
	}
	t.Footprint = uint32(fp)
	if t.Warmup, err = r.count("warmup", maxTraceSide); err != nil {
		return nil, err
	}
	nRegions, err := r.count("region", maxTraceSide)
	if err != nil {
		return nil, err
	}
	t.Regions = make([]memsys.Region, nRegions)
	for i := range t.Regions {
		reg := &t.Regions[i]
		id, err := r.count("region id", 255)
		if err != nil {
			return nil, err
		}
		reg.ID = uint8(id)
		if reg.Name, err = r.str("region name"); err != nil {
			return nil, err
		}
		base, err := r.uvarint("region base")
		if err != nil {
			return nil, err
		}
		size, err := r.uvarint("region size")
		if err != nil {
			return nil, err
		}
		// size is checked against the remaining span (not base+size, which
		// can wrap in uint64 and slip a truncated Size past validation).
		if base > uint64(t.Footprint) || size > uint64(t.Footprint)-base {
			return nil, fmt.Errorf("trace: region %q [%d, %d) outside footprint %d",
				reg.Name, base, base+size, t.Footprint)
		}
		reg.Base, reg.Size = uint32(base), uint32(size)
		stride, err := r.count("region stride", 1<<16-1)
		if err != nil {
			return nil, err
		}
		reg.StrideWords = uint16(stride)
		nComm, err := r.count("comm offset", maxTraceSide)
		if err != nil {
			return nil, err
		}
		for j := 0; j < nComm; j++ {
			off, err := r.count("comm offset", 1<<16-1)
			if err != nil {
				return nil, err
			}
			reg.CommOffsets = append(reg.CommOffsets, uint16(off))
		}
		byp, err := r.count("bypass flag", 1)
		if err != nil {
			return nil, err
		}
		reg.Bypass = byp == 1
	}
	phases, err := r.count("phase", maxTraceSide)
	if err != nil {
		return nil, err
	}
	if t.Warmup >= phases {
		return nil, fmt.Errorf("trace: warmup %d >= phases %d", t.Warmup, phases)
	}
	t.Written = make([][]uint8, phases)
	t.Ops = make([][][]memsys.Op, phases)
	for ph := 0; ph < phases; ph++ {
		nw, err := r.count("written region", 255)
		if err != nil {
			return nil, err
		}
		for i := 0; i < nw; i++ {
			id, err := r.count("written region id", 255)
			if err != nil {
				return nil, err
			}
			t.Written[ph] = append(t.Written[ph], uint8(id))
		}
		t.Ops[ph] = make([][]memsys.Op, t.Threads)
		for th := 0; th < t.Threads; th++ {
			n, err := r.count("op", 1<<31-1)
			if err != nil {
				return nil, err
			}
			// Cap the preallocation: a corrupt count must not reserve
			// gigabytes before the (missing) op data fails to parse.
			capHint := n
			if capHint > 1<<16 {
				capHint = 1 << 16
			}
			stream := make([]memsys.Op, 0, capHint)
			prev := int64(0)
			for i := 0; i < n; i++ {
				v, err := r.uvarint("op")
				if err != nil {
					return nil, err
				}
				kind := memsys.OpKind(v & 3)
				switch kind {
				case memsys.OpLoad, memsys.OpStore:
					addr := prev + unzigzag(v>>2)
					if addr < 0 || addr >= int64(t.Footprint) {
						return nil, fmt.Errorf("trace: phase %d thread %d op %d: address %#x outside footprint %#x",
							ph, th, i, addr, t.Footprint)
					}
					prev = addr
					stream = append(stream, memsys.Op{Kind: kind, Addr: uint32(addr)})
				case memsys.OpCompute:
					cycles := v >> 2
					if cycles > 1<<16-1 {
						return nil, fmt.Errorf("trace: phase %d thread %d op %d: corrupt compute cycles %d", ph, th, i, cycles)
					}
					stream = append(stream, memsys.Op{Kind: memsys.OpCompute, Cycles: uint16(cycles)})
				default:
					return nil, fmt.Errorf("trace: phase %d thread %d op %d: unknown kind %d", ph, th, i, kind)
				}
			}
			t.Ops[ph][th] = stream
		}
	}
	return t, nil
}

// WriteFile serializes a trace to a file.
func WriteFile(path string, t *Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, t); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadFile loads a trace from a file.
func ReadFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	t, err := Read(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return t, nil
}
