package trace_test

import (
	"bytes"
	"context"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/memsys"
	"repro/internal/trace"
	"repro/internal/workloads"
)

func collect(p memsys.Program, ph, th int) []memsys.Op {
	var ops []memsys.Op
	p.EmitOps(ph, th, func(o memsys.Op) { ops = append(ops, o) })
	return ops
}

// Every registry workload must survive a record -> serialize -> parse ->
// replay round trip bit-identically: the parsed trace serializes to the
// bytes it was read from, and the replayed program emits the original op
// streams.
func TestRoundTripEveryRegistryWorkload(t *testing.T) {
	for _, spec := range workloads.RegistryWorkloads() {
		spec := spec
		t.Run(spec, func(t *testing.T) {
			prog := workloads.MustByName(spec, workloads.Tiny, 16)
			tr := trace.Record(prog)
			var buf, again bytes.Buffer
			if err := trace.Write(&buf, tr); err != nil {
				t.Fatal(err)
			}
			got, err := trace.Read(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if err := trace.Write(&again, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again.Bytes(), buf.Bytes()) {
				t.Fatal("trace drifted across serialize/parse")
			}
			replayed := trace.NewProgram(got, "")
			if replayed.Name() != prog.Name() || replayed.Threads() != prog.Threads() ||
				replayed.FootprintBytes() != prog.FootprintBytes() ||
				replayed.Phases() != prog.Phases() || replayed.WarmupPhases() != prog.WarmupPhases() {
				t.Fatal("replayed contract fields drifted")
			}
			for ph := 0; ph < prog.Phases(); ph++ {
				for th := 0; th < prog.Threads(); th++ {
					want, have := collect(prog, ph, th), collect(replayed, ph, th)
					if len(want) != len(have) {
						t.Fatalf("phase %d thread %d: %d ops replayed, want %d", ph, th, len(have), len(want))
					}
					for i := range want {
						if want[i] != have[i] {
							t.Fatalf("phase %d thread %d op %d drifted", ph, th, i)
						}
					}
				}
			}
		})
	}
}

// A replayed trace must drive a protocol to the same measurement as the
// program it was recorded from (only the benchmark label may differ).
func TestReplayedRunBitIdentical(t *testing.T) {
	prog := workloads.MustByName("radix", workloads.Tiny, 16)
	path := filepath.Join(t.TempDir(), "radix.trc")
	if err := trace.WriteFile(path, trace.Record(prog)); err != nil {
		t.Fatal(err)
	}
	replayed := workloads.MustByName("replay(file="+path+")", workloads.Tiny, 16)
	cfg := memsys.Default().Scaled(workloads.Tiny.ScaleDiv())
	want, err := core.RunOne(context.Background(), cfg, "DBypFull", prog)
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.RunOne(context.Background(), cfg, "DBypFull", replayed)
	if err != nil {
		t.Fatal(err)
	}
	got.Benchmark = want.Benchmark // the replay spec label, by design
	if *want != *got {
		t.Fatalf("replayed run drifted from the recorded program:\nwant %+v\ngot  %+v", want, got)
	}
}

// Corrupt and truncated files must fail loudly at parse time, never
// half-replay.
func TestCorruptTracesRejected(t *testing.T) {
	prog := workloads.MustByName("neighbor", workloads.Tiny, 4)
	var buf bytes.Buffer
	if err := trace.Write(&buf, trace.Record(prog)); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if _, err := trace.Read(bytes.NewReader(nil)); err == nil {
		t.Error("empty file accepted")
	}
	bad := append([]byte("XXXX"), raw[4:]...)
	if _, err := trace.Read(bytes.NewReader(bad)); err == nil {
		t.Error("bad magic accepted")
	}
	for _, cut := range []int{5, len(raw) / 4, len(raw) / 2, len(raw) - 1} {
		if _, err := trace.Read(bytes.NewReader(raw[:cut])); err == nil {
			t.Errorf("truncation at %d bytes accepted", cut)
		}
	}
}

// The replay spec itself must error loudly on missing or unreadable
// files instead of handing the engine a nil program.
func TestReplaySpecErrors(t *testing.T) {
	if _, err := workloads.ByName("replay", workloads.Tiny, 16); err == nil {
		t.Error("replay without a file accepted")
	}
	if _, err := workloads.ByName("replay(file=/nonexistent/x.trc)", workloads.Tiny, 16); err == nil {
		t.Error("replay of a missing file accepted")
	}
}
