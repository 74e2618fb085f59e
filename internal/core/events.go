package core

// The run's progress stream. Run reports one stream of cell claims and
// point lifecycles for every run — a matrix is its one-point sweep — to
// RunOptions.Progress, under one contract:
//
//   - Events are delivered one at a time, never concurrently, whatever
//     the worker count: one mutex per run serializes every event.
//   - Seq increases by exactly 1 per event, starting at 0. A gap-free
//     total order is what lets a streaming transport (the HTTP NDJSON
//     feed) resume from any position and a client detect a dropped line.
//   - Cell events arrive in claim order: a worker claims its (point,
//     cell) job and announces it under that mutex, and the pool claims in
//     point-major matrix order.
//   - Within one point, events arrive in lifecycle order: "cached" alone,
//     or "cache-corrupt" then "simulating", or "simulating" first; the
//     point's cell events follow its "simulating"; "done" (or
//     "store-failed" then "done") ends the point. Events of different
//     points interleave when the pool runs points concurrently. A matrix
//     run is point 0 of 1, with no axis or value.
//   - Warning events are part of the stream, not a side channel: the
//     "cache-corrupt" and "store-failed" statuses. Renderers print them
//     even when a quiet flag suppresses normal progress (trafficsim does
//     under -q).
//
// TestRunCellEventsInClaimOrder, TestRunUnifiedStreamTotalOrder,
// TestRunStoreFailedEvent and TestRunMatrixCache pin the contract.

import "sync"

// Event kinds: which lifecycle an event belongs to.
const (
	// KindCell is a matrix-cell event: a worker claimed the
	// (Bench, Protocol) cell and its simulation is starting.
	KindCell = "cell"
	// KindPoint is a point event: Point/Total/Axis/Value name the point,
	// Status says what happened to it.
	KindPoint = "point"
)

// Point-event statuses: what happened to the point.
const (
	// StatusCached: served from the content-addressed cache; nothing
	// simulates.
	StatusCached = "cached"
	// StatusCacheCorrupt: a cache entry exists but cannot be trusted
	// (Error says why); the point simulates fresh and a good entry is
	// rewritten on completion.
	StatusCacheCorrupt = "cache-corrupt"
	// StatusSimulating: a worker claimed the point's first cell.
	StatusSimulating = "simulating"
	// StatusDone: the last cell finished and the matrix is assembled (and
	// persisted, when a cache is attached).
	StatusDone = "done"
	// StatusStoreFailed: the matrix is complete and in the result, but the
	// cache could not persist it (Error says why); only a later cached
	// rerun pays, by resimulating the point.
	StatusStoreFailed = "store-failed"
)

// Event is one entry of a run's progress stream, in the JSON form the
// HTTP transport streams. Exactly one of the two kinds; unused fields are
// zero and omitted from JSON.
type Event struct {
	// Seq is the event's position in the run's total order: 0, 1, 2, ...
	Seq int64 `json:"seq"`
	// Kind is KindCell or KindPoint.
	Kind string `json:"kind"`
	// Status qualifies point events (see the Status constants); empty for
	// cell events.
	Status string `json:"status,omitempty"`
	// Bench and Protocol name the cell of a KindCell event.
	Bench    string `json:"bench,omitempty"`
	Protocol string `json:"protocol,omitempty"`
	// Point (0-based) of Total locates a KindPoint event in sweep order.
	Point int `json:"point,omitempty"`
	Total int `json:"total,omitempty"`
	// Axis and Value name the swept knob and the point's x coordinate
	// ("hotspot.t", "4") for KindPoint events of a sweep.
	Axis  string `json:"axis,omitempty"`
	Value string `json:"value,omitempty"`
	// Error carries the cache failure of the cache-corrupt and
	// store-failed statuses.
	Error string `json:"error,omitempty"`
}

// stream is one run's progress stream. Its mutex serializes delivery and
// numbers the events; the pool claims jobs under it too (runPlans).
type stream struct {
	mu   sync.Mutex
	seq  int64
	send func(Event) // RunOptions.Progress; nil drops every event
	spec *SweepSpec
}

// sendLocked numbers ev and delivers it. The caller holds mu.
func (s *stream) sendLocked(ev Event) {
	if s.send == nil {
		return
	}
	ev.Seq = s.seq
	s.seq++
	s.send(ev)
}

// emit delivers one event.
func (s *stream) emit(ev Event) {
	s.mu.Lock()
	s.sendLocked(ev)
	s.mu.Unlock()
}

// point builds point i's event with the given status; err is the cache
// failure a warning status carries.
func (s *stream) point(i int, status string, err error) Event {
	ev := Event{Kind: KindPoint, Status: status, Point: i,
		Total: len(s.spec.Values), Axis: s.spec.Axis, Value: s.spec.Values[i]}
	if err != nil {
		ev.Error = err.Error()
	}
	return ev
}
