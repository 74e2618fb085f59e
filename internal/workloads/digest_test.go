package workloads

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/trace"
)

var updateDigests = flag.Bool("update", false,
	"rewrite internal/workloads/testdata/trace_digests.txt from the current generators")

const digestsPath = "testdata/trace_digests.txt"

// TestRecordedTraceDigests pins every registry workload's recorded trace
// (trace.Write of trace.Record) by its SHA-256, at Tiny and Small with 16
// threads and at Tiny with 64. A trace holds everything a program hands
// the simulator: name, threads, footprint, regions, phase and warm-up
// counts, written regions and every op stream. So this reaches scales and
// thread counts the figure goldens do not, and a refactor of a generator
// must leave it unchanged. Regenerate the file only for a workload
// change, with
//
//	go test ./internal/workloads -run TestRecordedTraceDigests -update
func TestRecordedTraceDigests(t *testing.T) {
	var b strings.Builder
	for _, c := range []struct {
		size    Size
		threads int
	}{{Tiny, 16}, {Small, 16}, {Tiny, 64}} {
		for _, spec := range RegistryWorkloads() {
			p, err := ByName(spec, c.size, c.threads)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			if err := trace.Write(h, trace.Record(p)); err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "%s %d %s %x\n", c.size, c.threads, spec, h.Sum(nil))
		}
	}
	got := b.String()
	if *updateDigests {
		if err := os.WriteFile(digestsPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(digestsPath)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(raw), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Errorf("%s line %d:\n got  %s\n want %s", digestsPath, i+1, gl[i], wl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Errorf("%s: got %d lines, want %d", digestsPath, len(gl), len(wl))
	}
}
