package job

import (
	"encoding/json"
	"flag"
	"fmt"
	"strings"

	"repro/internal/core"
)

// Explicit reports which flags were actually passed on the command line.
// The distinction is load-bearing for sweeps: the engine applies the
// same defaults (mesh topology, ideal router, 16 threads) to zero-valued
// request fields, and a sweep over an axis must tell "defaulted" from
// "pinned" — sweeping topology against an explicit -topology is a
// conflict error, sweeping it against the default is the normal case.
// Every CLI asks through this one helper, so the explicitness semantics
// cannot drift between call sites.
func Explicit(fs *flag.FlagSet) map[string]bool {
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	return set
}

// KnobFlags defines one flag per engine knob on fs, with the knob's name,
// help and default (core.Knobs). The returned pin copies the knobs passed
// explicitly into req through their JSON names, the path an HTTP body
// takes; a knob left at its default stays unset, so a sweep can still
// claim its axis.
func KnobFlags(fs *flag.FlagSet) (pin func(req *Request) error) {
	vals := make(map[string]any)
	for _, k := range core.Knobs() {
		switch d := k.Default().(type) {
		case int:
			vals[k.Name] = fs.Int(k.Name, d, k.Help)
		case string:
			vals[k.Name] = fs.String(k.Name, d, k.Help)
		}
	}
	return func(req *Request) error {
		pins := make(map[string]any)
		for name := range Explicit(fs) {
			if v, ok := vals[name]; ok {
				pins[name] = v
			}
		}
		for _, k := range core.Knobs() {
			if n, ok := pins[k.Name].(*int); ok && k.FlagFloor != "" && *n < 1 {
				return fmt.Errorf("-%s %d: %s must be >= 1 (default %v)", k.Name, *n, k.FlagFloor, k.Default())
			}
		}
		b, err := json.Marshal(pins)
		if err != nil {
			return err
		}
		return json.Unmarshal(b, req)
	}
}

// SplitList splits a comma-separated list, trimming whitespace and
// dropping empty pieces — the shape of -protocols and every other plain
// CSV flag.
func SplitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// SplitSpecs splits a comma-separated workload-spec list, keeping commas
// inside parameter lists intact: "hotspot(t=2,p=0.1),FFT" is two specs.
func SplitSpecs(s string) []string {
	var out []string
	depth, start := 0, 0
	flush := func(end int) {
		if p := strings.TrimSpace(s[start:end]); p != "" {
			out = append(out, p)
		}
	}
	for i, r := range s {
		switch r {
		case '(':
			depth++
		case ')':
			if depth > 0 {
				depth--
			}
		case ',':
			if depth == 0 {
				flush(i)
				start = i + 1
			}
		}
	}
	flush(len(s))
	return out
}
