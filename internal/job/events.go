package job

// The unified run-progress event stream. The engine (core.Run) reports
// one serialized stream of cell starts and point lifecycles for every run
// — a matrix is its one-point sweep — and Run numbers and forwards it
// under ONE contract:
//
//   - Events are delivered strictly one at a time, never concurrently,
//     whatever the worker count: the engine serializes its progress
//     callback, so cell events and point events cannot interleave
//     mid-delivery.
//   - Seq increases by exactly 1 per event, starting at 0. A gap-free
//     total order is what lets a streaming transport (the HTTP NDJSON
//     feed) resume from any position and a client detect a dropped line.
//   - Within one point, events arrive in lifecycle order:
//     "cached" alone, or "cache-corrupt" then "simulating", or
//     "simulating" first; the point's cell events follow its "simulating";
//     "done" (or "store-failed" then "done" — see below) ends the point.
//     Events of DIFFERENT points interleave freely when the shared pool
//     runs points concurrently. A matrix run is point 0 of 1, with no
//     axis or value.
//   - Warning events are part of the stream, not a side channel:
//     Status "cache-corrupt" (an entry exists but cannot be trusted; the
//     point resimulates) and "store-failed" (the point completed but could
//     not persist; a later resume resimulates it). Renderers MUST print
//     these even when a quiet flag suppresses normal progress — the
//     contract trafficsim honors under -q — and they ride on the stream's
//     total order, not around it.
//
// TestRunUnifiedStreamTotalOrder, TestRunStoreFailedEvent and
// TestRunMatrixCache pin the contract.

import "repro/internal/core"

// Event kinds: which lifecycle an event belongs to.
const (
	// KindCell is a matrix-cell event: a worker claimed the
	// (Bench, Protocol) cell and its simulation is starting.
	KindCell = "cell"
	// KindPoint is a point event: Point/Total/Axis/Value name the point,
	// Status says what happened to it.
	KindPoint = "point"
)

// Event statuses for point events: the engine's core.SweepPointStatus
// vocabulary verbatim, so a rendered event line matches what the
// pre-refactor CLIs printed.
const (
	// StatusCached: served from the content-addressed cache; nothing
	// simulates.
	StatusCached = "cached"
	// StatusCacheCorrupt: a cache entry exists but cannot be trusted
	// (Error says why); the configuration simulates fresh and a good
	// entry is rewritten on completion. Renderers print this even when
	// quiet.
	StatusCacheCorrupt = "cache-corrupt"
	// StatusSimulating: the first cell was claimed by a worker.
	StatusSimulating = "simulating"
	// StatusDone: the last cell finished and the result is assembled
	// (and persisted, when a cache is attached).
	StatusDone = "done"
	// StatusStoreFailed: the result is complete and in hand, but the
	// cache could not persist it (Error says why); only a later cached
	// rerun pays, by resimulating. Renderers print this even when quiet.
	StatusStoreFailed = "store-failed"
)

// Event is one entry of a run's unified progress stream. Exactly one of
// the two kinds; unused fields are zero and omitted from JSON.
type Event struct {
	// Seq is the event's position in the run's total order: 0, 1, 2, ...
	// with no gaps and no concurrent delivery.
	Seq int64 `json:"seq"`
	// Kind is KindCell or KindPoint.
	Kind string `json:"kind"`
	// Status qualifies point events (see the Status constants); empty for
	// cell events.
	Status string `json:"status,omitempty"`
	// Bench and Protocol name the cell for KindCell events.
	Bench    string `json:"bench,omitempty"`
	Protocol string `json:"protocol,omitempty"`
	// Point (0-based) of Total locates a KindPoint event in sweep order.
	Point int `json:"point,omitempty"`
	Total int `json:"total,omitempty"`
	// Axis and Value name the swept knob and the point's x coordinate
	// ("hotspot.t", "4") for KindPoint events of a sweep.
	Axis  string `json:"axis,omitempty"`
	Value string `json:"value,omitempty"`
	// Error carries the cache failure for the cache-corrupt and
	// store-failed statuses.
	Error string `json:"error,omitempty"`
}

// newEvent maps one engine progress event onto the stream's vocabulary;
// point statuses' String() words are already the wire words.
func newEvent(p core.SweepProgress) Event {
	if p.Status == core.SweepCellStarted {
		return Event{Kind: KindCell, Bench: p.Bench, Protocol: p.Protocol}
	}
	ev := Event{
		Kind:   KindPoint,
		Status: p.Status.String(),
		Point:  p.Point,
		Total:  p.Total,
		Axis:   p.Axis,
		Value:  p.Value,
	}
	if p.Err != nil {
		ev.Error = p.Err.Error()
	}
	return ev
}
