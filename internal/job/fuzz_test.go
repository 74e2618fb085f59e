package job

import (
	"bytes"
	"encoding/json"
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/workloads"
)

// FuzzRequestValidate feeds raw bytes through the server's body decoder
// and then ValidateStrict, the path every HTTP submission takes. Neither
// may panic, and every rejection must be a UsageError (a 400, never a
// 500). A request it accepts must survive json.Marshal, decoding again
// and a second ValidateStrict. The corpus is seeded with every body the
// server test refuses, the request shapes the benchmark's workloads
// submit, and a sweep past the point-cap ceiling.
func FuzzRequestValidate(f *testing.F) {
	for _, c := range malformedBodies {
		f.Add([]byte(c.body))
	}
	for _, r := range []Request{
		{Benchmarks: workloads.Names(), Protocols: core.ProtocolNames(), Workers: 2, Figures: []string{"all"}, Summary: true},
		{Sweep: "uniform(p=0.0312,0.0721,0.1093,0.1488,0.1826)", Size: "small", Protocols: []string{"MESI"}, Mesh: "8x8", Threads: 16, Router: "vc", Workers: 2},
		{Sweep: "hotspot(p=0.03127,0.08213,0.15002)", Protocols: []string{"DBypFull"}, Workers: 1},
		{Benchmarks: []string{"transpose(p=0.11717)"}, Protocols: []string{"MMemL1"}, Workers: 1, Figures: []string{"5.1a", "net"}},
		{Sweep: "uniform(p=0.00001..1..0.00001)", MaxPoints: 100000},
	} {
		b, err := json.Marshal(r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	decode := func(b []byte) (Request, error) { return decodeRequest(nil, io.NopCloser(bytes.NewReader(b))) }
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decode(body)
		if err == nil {
			err = req.ValidateStrict()
		}
		if err != nil {
			if !IsUsageError(err) {
				t.Fatalf("%q: rejection %v is not a UsageError", body, err)
			}
			return
		}
		again, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("%q: accepted request does not marshal: %v", body, err)
		}
		back, err := decode(again)
		if err != nil {
			t.Fatalf("%q: re-encoded as %s, which does not decode: %v", body, again, err)
		}
		if err := back.ValidateStrict(); err != nil {
			t.Fatalf("%q: re-encoded as %s, which ValidateStrict rejects: %v", body, again, err)
		}
	})
}
