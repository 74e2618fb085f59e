package trace_test

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/trace"
	"repro/internal/workloads"
)

// FuzzTraceLoad feeds arbitrary bytes to the trace loader, which must
// never panic: a file it cannot parse is an error. A trace it accepts must
// re-encode to bytes that decode to an equal trace, so nothing the loader
// lets through is lost or changed by a record-replay round trip. The
// corpus starts from a recorded neighbor trace and the corrupt files
// TestCorruptTracesRejected refuses.
func FuzzTraceLoad(f *testing.F) {
	var buf bytes.Buffer
	if err := trace.Write(&buf, trace.Record(workloads.MustByName("neighbor", workloads.Tiny, 4))); err != nil {
		f.Fatal(err)
	}
	raw := buf.Bytes()
	f.Add(raw)
	f.Add([]byte{})
	f.Add(append([]byte("XXXX"), raw[4:]...))
	for _, cut := range []int{5, len(raw) / 4, len(raw) / 2, len(raw) - 1} {
		f.Add(raw[:cut])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := trace.Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		var again bytes.Buffer
		if err := trace.Write(&again, tr); err != nil {
			t.Fatalf("an accepted trace does not re-encode: %v", err)
		}
		back, err := trace.Read(bytes.NewReader(again.Bytes()))
		if err != nil {
			t.Fatalf("a re-encoded trace does not decode: %v", err)
		}
		if !reflect.DeepEqual(back, tr) {
			t.Fatalf("trace changed across re-encoding:\n%+v\n%+v", tr, back)
		}
	})
}
