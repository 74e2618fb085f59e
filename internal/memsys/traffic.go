package memsys

import (
	"math/bits"

	"repro/internal/waste"
)

// Class is the top-level traffic category of Figure 5.1a.
type Class uint8

// Traffic classes.
const (
	ClassLD Class = iota
	ClassST
	ClassWB
	ClassOVH
	NumClasses
)

func (c Class) String() string {
	switch c {
	case ClassLD:
		return "LD"
	case ClassST:
		return "ST"
	case ClassWB:
		return "WB"
	case ClassOVH:
		return "Overhead"
	}
	return "Class?"
}

// Bucket is the fine-grained traffic category used by Figures 5.1b-5.1d
// and the overhead split of §5.2.4.
type Bucket uint8

// Traffic buckets.
const (
	// Load/store breakdown (Figure 5.1b/5.1c).
	BReqCtl Bucket = iota
	BRespCtl
	BRespL1Used
	BRespL1Waste
	BRespL2Used
	BRespL2Waste
	// Writeback breakdown (Figure 5.1d).
	BWBCtl
	BWBL2Used
	BWBL2Waste
	BWBMemUsed
	BWBMemWaste
	// Overhead breakdown (§5.2.4).
	BOvhUnblock
	BOvhWBCtl
	BOvhInval
	BOvhAck
	BOvhNack
	BOvhBloom
	NumBuckets
)

func (b Bucket) String() string {
	names := [...]string{
		"Req Ctl", "Resp Ctl", "Resp L1 Used", "Resp L1 Waste",
		"Resp L2 Used", "Resp L2 Waste",
		"WB Control", "WB L2 Used", "WB L2 Waste", "WB Mem Used", "WB Mem Waste",
		"Unblock", "Clean WB Ctl", "Invalidation", "Ack", "NACK", "Bloom Copy",
	}
	if int(b) < len(names) {
		return names[b]
	}
	return "Bucket?"
}

// FlitHops is a flit-hop ledger: the flit-hops of one run per (class,
// bucket), the matrix every traffic figure is drawn from.
type FlitHops [NumClasses][NumBuckets]float64

// ClassTotal returns all flit-hops in a class.
func (f FlitHops) ClassTotal(class Class) float64 {
	var s float64
	for b := Bucket(0); b < NumBuckets; b++ {
		s += f[class][b]
	}
	return s
}

// Total returns all flit-hops.
func (f FlitHops) Total() float64 {
	var s float64
	for c := Class(0); c < NumClasses; c++ {
		s += f.ClassTotal(c)
	}
	return s
}

// Traffic accumulates flit-hops per (class, bucket). Control flits and
// writeback data are charged by the Env sends that inject them (Send,
// SendWB, SendOverhead); response data is charged by the receiver that
// installs it (Fill, Filler), with the hops its Send returned. Data words
// are attributed to Used/Waste lazily: each word's flit-hop share is
// attached to its waste instance when the fill creates it, and lands in
// the right bucket when the instance classifies (§5.2: "we assign
// fractional flits to the appropriate categories"). Every term is a
// multiple of a quarter flit-hop, so the sums are exact in any order.
type Traffic struct {
	flitHops FlitHops
	enabled  bool
	prof     *waste.Profiler
}

// NewTraffic creates a recorder wired to the profiler's classification
// stream. Recording starts disabled (warm-up); call StartMeasurement.
func NewTraffic(prof *waste.Profiler) *Traffic {
	t := &Traffic{prof: prof}
	prof.OnClassify(func(level waste.Level, class uint8, cat waste.Category, share float64, measured bool) {
		if !measured || share == 0 {
			return
		}
		var b Bucket
		used := cat == waste.Used
		switch level {
		case waste.LevelL1:
			if used {
				b = BRespL1Used
			} else {
				b = BRespL1Waste
			}
		case waste.LevelL2:
			if used {
				b = BRespL2Used
			} else {
				b = BRespL2Waste
			}
		default:
			return // memory-level instances carry no on-chip traffic share
		}
		t.flitHops[Class(class)][b] += share
	})
	return t
}

// StartMeasurement zeroes the counters and enables recording.
func (t *Traffic) StartMeasurement() {
	t.flitHops = FlitHops{}
	t.enabled = true
}

// ctl records flits control flits over hops links: a packet's header flit,
// or all of an overhead packet.
func (t *Traffic) ctl(class Class, bucket Bucket, flits, hops int) {
	if !t.enabled || hops == 0 || flits == 0 {
		return
	}
	t.flitHops[class][bucket] += float64(flits * hops)
}

// Fill records the data flits of a response that fills the words of mask
// of one cache line at level (L1 or L2) over hops links: each word's
// waste instance is created with its share of the data flits, hops/4
// flit-hops, attached (waste.Profiler.Fill, which also documents present,
// inst, minst and ref), and the unfilled remainder of the last data flit
// goes to Resp Ctl, as in §5.2. The message's control flit was charged
// by the Env.Send that returned hops.
func (t *Traffic) Fill(class Class, hops int, level waste.Level, mask, present uint16, inst, minst []uint64, ref bool) {
	t.prof.Fill(level, mask, present, uint8(class), WordShare(hops), inst, minst, ref)
	t.Filler(class, hops, bits.OnesCount16(mask))
}

// WordShare is one data word's share of a response's data flits over
// hops links: a quarter flit per hop.
func WordShare(hops int) float64 { return float64(hops) / 4 }

// Filler charges the unfilled remainder of the last data flit of a
// response carrying words data words over hops links to Resp Ctl. Fill
// charges it for a response that fills one line; a response whose words
// span lines fills them through waste.Profiler.Fill and charges its filler
// once, here.
func (t *Traffic) Filler(class Class, hops, words int) {
	if !t.enabled || words == 0 || hops == 0 {
		return
	}
	filler := (float64(DataFlits(words)) - float64(words)/4) * float64(hops)
	t.flitHops[class][BRespCtl] += filler
}

// wbData records writeback data flits: dirty words are Used, unmodified
// words are Waste (Figure 5.1d), attribution is immediate. toMem selects
// the Mem buckets over the L2 ones. Unfilled flit remainder goes to WB
// Control.
func (t *Traffic) wbData(toMem bool, hops, dirtyWords, cleanWords int) {
	if !t.enabled || hops == 0 {
		return
	}
	words := dirtyWords + cleanWords
	if words == 0 {
		return
	}
	h := float64(hops)
	used, waste := BWBL2Used, BWBL2Waste
	if toMem {
		used, waste = BWBMemUsed, BWBMemWaste
	}
	t.flitHops[ClassWB][used] += float64(dirtyWords) / 4 * h
	t.flitHops[ClassWB][waste] += float64(cleanWords) / 4 * h
	filler := (float64(DataFlits(words)) - float64(words)/4) * h
	t.flitHops[ClassWB][BWBCtl] += filler
}

// Get returns the flit-hops recorded for (class, bucket).
func (t *Traffic) Get(class Class, bucket Bucket) float64 { return t.flitHops[class][bucket] }

// WasteShare returns the fraction of total traffic attributed to wasted
// data movement (the paper's "8.8% of the remaining traffic" metric):
// Resp L1/L2 Waste plus WB L2/Mem Waste over the total.
func (t *Traffic) WasteShare() float64 {
	total := t.flitHops.Total()
	if total == 0 {
		return 0
	}
	var w float64
	for c := Class(0); c < NumClasses; c++ {
		w += t.flitHops[c][BRespL1Waste] + t.flitHops[c][BRespL2Waste]
	}
	w += t.flitHops[ClassWB][BWBL2Waste] + t.flitHops[ClassWB][BWBMemWaste]
	return w / total
}

// Snapshot returns a copy of the ledger, detached from the recorder
// (experiment results outlive their simulation Env).
func (t *Traffic) Snapshot() FlitHops { return t.flitHops }
