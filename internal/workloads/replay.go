package workloads

import (
	"fmt"

	"repro/internal/memsys"
	"repro/internal/trace"
)

// The replay spec re-drives a recorded op-stream trace (internal/trace)
// through the Program contract, bit-identically to the program it was
// captured from. Record traces with `trafficsim -record <file>` or
// trace.Record, then run them like any benchmark:
//
//	trafficsim -record /tmp/fft.trc -benchmarks FFT -size tiny
//	trafficsim -fig 5.1a -benchmarks 'replay(file=/tmp/fft.trc)'
//
// The trace fixes the thread count, footprint and phase structure, so the
// size and threads arguments are ignored (a trace records one scale). A
// trace with more threads than the mesh has tiles fails in core.RunOne.
func replaySpec() specDef {
	return specDef{
		name: "replay", synthetic: true,
		params: []paramDef{{key: "file", def: "", desc: "path to a recorded trace (trafficsim -record)"}},
		desc:   "re-drive a recorded op-stream trace bit-identically",
		build: func(canonical string, args []string, _ Size, _ int) (memsys.Program, error) {
			path := args[0]
			if path == "" {
				return nil, fmt.Errorf("workloads: replay needs a trace: replay(file=path)")
			}
			t, err := trace.ReadFile(path)
			if err != nil {
				return nil, fmt.Errorf("workloads: replay: %w", err)
			}
			return trace.NewProgram(t, canonical), nil
		},
	}
}
