package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A reader for the CPU profiles runtime/pprof writes: gzip-compressed
// protocol buffers in the pprof profile.proto format. Only what bucketing
// needs is decoded — samples, locations with their (inlined) lines, and
// function names.

// profile is a decoded CPU profile: each sample's stack as function
// names, innermost first, with its sample count.
type profile struct {
	stacks [][]string
	counts []int64
}

func parseProfile(r io.Reader) (*profile, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type sample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples  []sample
		locFuncs = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcName = map[uint64]int64{}    // function id -> string index
		strs     []string
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s sample
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					return appendUints(&s.locs, wire, v, b)
				case 2:
					var vs []uint64
					if err := appendUints(&vs, wire, v, b); err != nil {
						return err
					}
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var funcs []uint64
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num int, wire int, v uint64, _ []byte) error {
						if num == 1 {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = funcs
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(num int, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	p := &profile{}
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		var stack []string
		for _, l := range s.locs {
			for _, f := range locFuncs[l] {
				if i := funcName[f]; i >= 0 && int(i) < len(strs) {
					stack = append(stack, strs[i])
				}
			}
		}
		p.stacks = append(p.stacks, stack)
		p.counts = append(p.counts, s.values[0])
	}
	return p, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, and its varint value or length-delimited bytes.
func eachField(b []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			payload, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// appendUints adds a repeated integer field's values, packed or not.
func appendUints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire != 2 {
		*dst = append(*dst, v)
		return nil
	}
	for r := bytes.NewReader(b); r.Len() > 0; {
		x, err := binary.ReadUvarint(r)
		if err != nil {
			return errTruncated
		}
		*dst = append(*dst, x)
	}
	return nil
}

const repoPrefix = "repro/internal/"

// cpuShares charges each sample to the innermost repro/internal/<pkg>
// frame on its stack, so allocation and map helpers count against the
// layer that called them. Samples with no repository frame go to "http"
// when net/http or net is on the stack, to "bench" when only the
// benchmark's own code is, and to "gc_bg" otherwise (GC workers, the
// scheduler). Separately, "maps" and "malloc" count samples by their leaf
// frame. Shares are fractions of all samples.
func cpuShares(p *profile) map[string]float64 {
	shares := map[string]float64{}
	var total float64
	for i, stack := range p.stacks {
		n := float64(p.counts[i])
		total += n
		shares[bucket(stack)] += n
		if len(stack) > 0 {
			if leaf := leafKind(stack[0]); leaf != "" {
				shares[leaf] += n
			}
		}
	}
	if total > 0 {
		for k := range shares {
			shares[k] /= total
		}
	}
	return shares
}

func bucket(stack []string) string {
	net, bench := false, false
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, repoPrefix); ok {
			if i := strings.IndexAny(rest, "./"); i >= 0 {
				rest = rest[:i]
			}
			return rest
		}
		net = net || strings.HasPrefix(fn, "net/http.") || strings.HasPrefix(fn, "net.")
		bench = bench || strings.HasPrefix(fn, "main.")
	}
	switch {
	case net:
		return "http"
	case bench:
		return "bench"
	}
	return "gc_bg"
}

// mallocLeaves and mapLeaves name the runtime's allocator and map
// implementations by function-name prefix.
var (
	mallocLeaves = []string{
		"runtime.mallocgc", "runtime.newobject", "runtime.makeslice", "runtime.growslice",
		"runtime.makemap", "runtime.nextFreeFast", "runtime.heapSetType",
		"runtime.(*mcache).", "runtime.(*mcentral).", "runtime.(*mheap).", "runtime.(*mspan).",
	}
	mapLeaves = []string{
		"runtime.mapaccess", "runtime.mapassign", "runtime.mapdelete", "runtime.mapiter",
		"internal/runtime/maps.",
	}
)

func leafKind(fn string) string {
	for _, p := range mallocLeaves {
		if strings.HasPrefix(fn, p) {
			return "malloc"
		}
	}
	for _, p := range mapLeaves {
		if strings.HasPrefix(fn, p) {
			return "maps"
		}
	}
	return ""
}
