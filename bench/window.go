package main

import (
	"runtime"
	"sync"
	"time"
)

// window bounds one measuring phase: ops start until the next one is
// predicted to end past the window, but at least minOps run.
type window struct {
	start  time.Time
	length time.Duration
	minOps int

	// pause is held shared by every running op and exclusively by the
	// calibration loop, which therefore never overlaps an op.
	pause sync.RWMutex
	cal   []calSample
}

// calSample is one timing of the calibration loop.
type calSample struct {
	At  float64 `json:"at"` // seconds since the window opened
	Dur float64 `json:"dur"`
}

func newWindow(length time.Duration, minOps int) *window {
	return &window{start: time.Now(), length: length, minOps: minOps}
}

func (w *window) open() bool { return time.Since(w.start) < w.length }

// more reports whether a sequential workload should start another op
// after done.
func (w *window) more(done []opRecord) bool {
	if len(done) < w.minOps {
		return true
	}
	var d []float64 // failed ops too: they took the time all the same
	for _, r := range done {
		d = append(d, r.Dur)
	}
	est := time.Duration(percentile(d, 50) * float64(time.Second))
	return time.Since(w.start)+est <= w.length
}

// op runs one op, never while the calibration loop runs.
func (w *window) op(f func() opRecord) opRecord {
	w.pause.RLock()
	defer w.pause.RUnlock()
	return f()
}

// A single timing of the calibration loop jitters by 10–30% on a busy
// host, so a run takes a few dozen: three at the window's start, then one
// per calibrationSpacing of window time, in batches between ops at most
// calibrationEvery apart (or after every op, when ops are longer).
const (
	calibrationEvery   = 2 * time.Second
	calibrationSpacing = 700 * time.Millisecond
)

// measure runs the workload's ops through a window of the given length
// while timing the calibration loop between them.
func measure(wl workload, length time.Duration, minOps int) ([]opRecord, []calSample) {
	calibrationRing() // built before the window opens
	win := newWindow(length, minOps)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(calibrationEvery)
		defer tick.Stop()
		for {
			win.pause.Lock()
			for len(win.cal) < 3+int(time.Since(win.start)/calibrationSpacing) {
				at := time.Since(win.start).Seconds()
				win.cal = append(win.cal, calSample{At: at, Dur: calibrationLoop()})
			}
			win.pause.Unlock()
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	recs := wl.run(win)
	close(stop)
	wg.Wait()
	return recs, win.cal
}

// calibrationRing is the fixed permutation the calibration loop chases
// pointers through: one cycle over 1<<20 words (4 MiB, past L2). It is
// built on first use, so set-up probes never pay for it.
var calibrationRing = sync.OnceValue(func() []uint32 {
	perm := newRNG(0, 0x63616c).Perm(1 << 20)
	ring := make([]uint32, len(perm))
	for i, p := range perm {
		ring[p] = uint32(perm[(i+1)%len(perm)])
	}
	return ring
})

// calSink keeps the calibration loop's result alive.
var calSink uint32

// calibrationLoop times a fixed piece of work: integer arithmetic, then a
// pointer chase through 4 MiB — the two resources (core cycles, memory
// latency) whose share the benchmark's hosts hand out unevenly as their
// neighbours' load changes. Those hosts run the workloads 20–50% slower
// for minutes at a time; this loop slows with them, so dividing by its
// time leaves runs taken minutes apart within a few percent of each
// other. A collection first keeps the op before it from running the
// collector during the loop. The loop does not allocate.
func calibrationLoop() float64 {
	ring := calibrationRing()
	runtime.GC()
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 10_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	j := uint32(x) % uint32(len(ring))
	for i := 0; i < 200_000; i++ {
		j = ring[j]
	}
	d := time.Since(t0).Seconds()
	calSink = j
	return d
}
