// Package core assembles the full simulated system and drives it: in-order
// cores executing workload op streams against a coherence protocol over
// the mesh/DRAM substrate, with barrier synchronization, the Figure 5.2
// execution-time breakdown, and a functional oracle that checks every load
// returns the value of its unique last writer (the data-race-free
// semantics both protocols must preserve).
//
// It also hosts the protocol registry (the nine configurations of §3.2 and
// §3.3) and the experiment harness that regenerates the paper's figures.
package core

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"repro/internal/memsys"
	"repro/internal/recycle"
)

// Runner executes one program under one protocol on one Env.
type Runner struct {
	env   *memsys.Env
	proto memsys.Protocol
	prog  memsys.Program
	ctx   context.Context // cancels Run between event batches

	Times []memsys.TimeBreakdown // per-core Figure 5.2 accounting

	oracle     []uint32
	valCounter uint32
	oracleErr  error

	// ViolationAddr is the address of the first oracle violation, if any
	// (diagnostics). OnViolation, when set, fires at violation time so
	// tests can snapshot protocol state before it changes.
	ViolationAddr uint32
	OnViolation   func(addr uint32)

	phase        int
	arrived      int
	measureStart int64
	execCycles   int64
	finished     bool

	cores []coreState
}

type coreState struct {
	ops          []memsys.Op
	pc           int
	barrierEnter int64
	stallStart   int64
	storeStalled bool
	storeAddr    uint32
	storeVal     uint32
	active       bool

	// The core's continuations, built once by NewRunner so that stepping
	// and completing a load schedule no closure.
	step     func()
	loadDone func(val uint32, s memsys.Sample)

	// The in-flight load (loads block, so a core has at most one): its
	// address, the oracle's expected value and its issue cycle.
	loadAddr   uint32
	loadExpect uint32
	loadT0     int64
}

// The per-core states (with their op buffers) and the oracles of ended
// runs, for the next NewRunner.
var (
	recycledCores   sync.Pool // *[]coreState
	recycledOracles recycle.Slices[uint32]
)

// NewRunner wires a program and protocol onto an environment. The
// protocol must already be registered on env's mesh. The oracle and the
// cores' op buffers reuse a recycled runner's arrays when one is free.
func NewRunner(env *memsys.Env, proto memsys.Protocol, prog memsys.Program) *Runner {
	r := &Runner{
		env:    env,
		proto:  proto,
		prog:   prog,
		ctx:    context.Background(),
		Times:  make([]memsys.TimeBreakdown, prog.Threads()),
		oracle: recycledOracles.Get(len(env.Mem)),
	}
	var cores []coreState
	if p, _ := recycledCores.Get().(*[]coreState); p != nil {
		cores = *p
	}
	r.cores = slices.Grow(cores[:0], prog.Threads())[:prog.Threads()]
	for c := range r.cores {
		r.cores[c] = coreState{ops: r.cores[c].ops[:0]}
		r.cores[c].step = func() { r.step(c) }
		r.cores[c].loadDone = func(val uint32, s memsys.Sample) { r.loadDone(c, val, s) }
		proto.SetStoreUnstall(c, func() { r.retryStore(c) })
	}
	return r
}

// recycle hands the oracle and the cores' op buffers to the next
// NewRunner. The runner must not be used again.
func (r *Runner) recycle() {
	recycledOracles.Put(r.oracle)
	cores := r.cores // not &r.cores, which would keep the runner alive
	for c := range cores {
		// The continuations hold the runner, and through it the run.
		cores[c].step, cores[c].loadDone = nil, nil
	}
	recycledCores.Put(&cores)
}

// maxSteps bounds a Run's events as a livelock watchdog.
const maxSteps = 2_000_000_000

// Run executes every phase to completion. It returns an error if the
// simulation deadlocks, livelocks, or the functional oracle detects a
// wrong value, and the context's error if the run's context (RunOne's)
// is cancelled: Run checks it after every million events.
func (r *Runner) Run() error {
	r.beginPhase(0)
	for !r.finished {
		if r.env.K.RunLimit(1_000_000) == 0 {
			break // queue drained
		}
		if err := r.ctx.Err(); err != nil {
			return err
		}
		if r.env.K.Steps() > maxSteps {
			return fmt.Errorf("core: livelock in %s/%s at phase %d (cycle %d, %d events, %d clamped)",
				r.proto.Name(), r.prog.Name(), r.phase, r.env.K.Now(), r.env.K.Steps(), r.env.K.Clamped())
		}
	}
	if !r.finished {
		return fmt.Errorf("core: deadlock in %s/%s at phase %d (cycle %d, %d clamped)",
			r.proto.Name(), r.prog.Name(), r.phase, r.env.K.Now(), r.env.K.Clamped())
	}
	r.env.K.Run() // drain trailing protocol events (acks, writebacks)
	return r.oracleErr
}

// ExecCycles returns the measured-region execution time.
func (r *Runner) ExecCycles() int64 { return r.execCycles }

func (r *Runner) beginPhase(p int) {
	r.phase = p
	r.arrived = 0
	if p == r.prog.WarmupPhases() {
		r.env.StartMeasurement()
		r.measureStart = r.env.K.Now()
		for i := range r.Times {
			r.Times[i] = memsys.TimeBreakdown{}
		}
	}
	for c := 0; c < r.prog.Threads(); c++ {
		cs := &r.cores[c]
		cs.ops = cs.ops[:0]
		r.prog.EmitOps(p, c, func(o memsys.Op) { cs.ops = append(cs.ops, o) })
		cs.pc = 0
		cs.active = true
		r.env.K.After(0, cs.step)
	}
}

// step runs ops for a core until it blocks (load, compute, store-buffer
// full) or reaches the phase barrier.
func (r *Runner) step(c int) {
	cs := &r.cores[c]
	for {
		if cs.pc >= len(cs.ops) {
			r.enterBarrier(c)
			return
		}
		op := cs.ops[cs.pc]
		cs.pc++
		switch op.Kind {
		case memsys.OpCompute:
			r.Times[c].Busy += int64(op.Cycles)
			r.env.K.After(int64(op.Cycles), cs.step)
			return
		case memsys.OpLoad:
			cs.loadAddr = op.Addr
			cs.loadExpect = r.oracle[op.Addr>>2]
			cs.loadT0 = r.env.K.Now()
			r.proto.Load(c, op.Addr, cs.loadDone)
			return
		case memsys.OpStore:
			r.valCounter++
			val := r.valCounter
			r.oracle[op.Addr>>2] = val
			if !r.proto.Store(c, op.Addr, val) {
				cs.storeStalled = true
				cs.storeAddr, cs.storeVal = op.Addr, val
				cs.stallStart = r.env.K.Now()
				return
			}
		}
	}
}

// loadDone completes core c's in-flight load: check the value against the
// oracle, charge the stall to the Figure 5.2 breakdown, and resume.
func (r *Runner) loadDone(c int, val uint32, s memsys.Sample) {
	cs := &r.cores[c]
	if val != cs.loadExpect && r.oracleErr == nil {
		r.oracleErr = fmt.Errorf(
			"core: oracle violation %s/%s: core %d load %#x = %d, want %d (phase %d, cycle %d)",
			r.proto.Name(), r.prog.Name(), c, cs.loadAddr, val, cs.loadExpect, r.phase, r.env.K.Now())
		r.ViolationAddr = cs.loadAddr
		if r.OnViolation != nil {
			r.OnViolation(cs.loadAddr)
		}
	}
	stall := r.env.K.Now() - cs.loadT0
	if s.Point == memsys.PointL1 {
		r.Times[c].Busy += stall // pipelined L1 hit
	} else {
		r.Times[c].AddStall(stall, s)
	}
	r.step(c)
}

// retryStore resumes a core blocked on a full store buffer.
func (r *Runner) retryStore(c int) {
	cs := &r.cores[c]
	if !cs.storeStalled {
		return
	}
	if !r.proto.Store(c, cs.storeAddr, cs.storeVal) {
		return // still full; the next unstall will retry
	}
	r.Times[c].OnChip += r.env.K.Now() - cs.stallStart
	cs.storeStalled = false
	r.step(c)
}

func (r *Runner) enterBarrier(c int) {
	cs := &r.cores[c]
	cs.active = false
	cs.barrierEnter = r.env.K.Now()
	r.proto.Drain(c, func() { r.coreArrived(c) })
}

func (r *Runner) coreArrived(c int) {
	r.arrived++
	if r.arrived < r.prog.Threads() {
		return
	}
	// Barrier release: everyone pays sync time up to now.
	now := r.env.K.Now()
	for i := range r.cores {
		r.Times[i].Sync += now - r.cores[i].barrierEnter
	}
	r.proto.AtBarrier(r.prog.WrittenRegions(r.phase))
	next := r.phase + 1
	if next >= r.prog.Phases() {
		r.finished = true
		r.execCycles = now - r.measureStart
		r.env.Prof.Finish()
		return
	}
	r.beginPhase(next)
}
