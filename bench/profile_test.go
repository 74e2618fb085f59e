package main

import (
	"bytes"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

// TestProfileChargesInnermostRepoFrame records a CPU profile of a busy
// sim.Kernel event loop whose callbacks live in this package, decodes it,
// and checks that the samples land on the sim layer: the callbacks'
// frames (package main) are inside Kernel.Run, the innermost repository
// frame on their stacks.
func TestProfileChargesInnermostRepoFrame(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiler unavailable: %v", err)
	}
	var k sim.Kernel
	n := 0
	var tick func()
	tick = func() {
		if n++; n%1000 != 0 {
			k.After(1, tick)
		}
	}
	for deadline := time.Now().Add(300 * time.Millisecond); time.Now().Before(deadline); {
		k.After(0, tick)
		k.Run()
		n = 0
	}
	pprof.StopCPUProfile()

	p, err := parseProfile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var samples int64
	sawSim := false
	for i, stack := range p.stacks {
		samples += p.counts[i]
		for _, fn := range stack {
			sawSim = sawSim || strings.HasPrefix(fn, "repro/internal/sim.")
		}
	}
	if samples < 5 {
		t.Skipf("only %d samples; the host gave the test too little CPU", samples)
	}
	if !sawSim {
		t.Fatal("no decoded stack has a repro/internal/sim frame")
	}
	// Samples with no repository frame (GC workers, or the race runtime's
	// own frames under -race) go elsewhere; every other one is sim's.
	shares := cpuShares(p)
	repo := 0.0
	for b, s := range shares {
		switch b {
		case "gc_bg", "bench", "http", "maps", "malloc":
		default:
			repo += s
		}
	}
	if shares["sim"] == 0 || shares["sim"] < 0.95*repo {
		t.Errorf("sim share %.2f of the %.2f with a repository frame (%d samples), want all of it", shares["sim"], repo, samples)
	}
}

func TestBucket(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mallocgc", "repro/internal/mesh.(*vcRouter).tick", "repro/internal/sim.(*Kernel).Step"}, "mesh"},
		{[]string{"main.(*tracer).begin", "repro/internal/core/sub.f"}, "core"},
		{[]string{"runtime.gcBgMarkWorker", "runtime.goexit"}, "gc_bg"},
		{[]string{"syscall.Syscall", "net.(*conn).Read", "net/http.(*persistConn).readLoop"}, "http"},
		{[]string{"encoding/json.Marshal", "main.mustJSON"}, "bench"},
	} {
		if got := bucket(c.stack); got != c.want {
			t.Errorf("bucket(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
	for fn, want := range map[string]string{
		"runtime.mallocgc":                        "malloc",
		"runtime.growslice":                       "malloc",
		"runtime.mapaccess2_fast64":               "maps",
		"internal/runtime/maps.(*Map).getWithKey": "maps",
		"repro/internal/sim.(*Kernel).Step":       "",
	} {
		if got := leafKind(fn); got != want {
			t.Errorf("leafKind(%s) = %q, want %q", fn, got, want)
		}
	}
}

// TestEachFieldUnpacked decodes a hand-encoded sample whose repeated
// fields use the unpacked encoding, which runtime/pprof emits for short
// lists.
func TestEachFieldUnpacked(t *testing.T) {
	// Sample{location_id: 7, location_id: 9, value: 3}
	msg := []byte{1 << 3, 7, 1 << 3, 9, 2 << 3, 3}
	var locs, vals []uint64
	err := eachField(msg, func(num, wire int, v uint64, b []byte) error {
		if num == 1 {
			return appendUints(&locs, wire, v, b)
		}
		return appendUints(&vals, wire, v, b)
	})
	if err != nil || len(locs) != 2 || locs[1] != 9 || len(vals) != 1 || vals[0] != 3 {
		t.Fatalf("decoded locs %v vals %v err %v", locs, vals, err)
	}
	if err := eachField([]byte{2<<3 | 2, 5, 1}, func(int, int, uint64, []byte) error { return nil }); err == nil {
		t.Error("a length past the end of the message decoded")
	}
}
