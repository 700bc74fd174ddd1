package core

import (
	"runtime"
	"sync/atomic"
)

// Scheduler bounds how many operator computations of a Manager run at
// once. It mirrors the `threads` pool of the DCDB Wintermute operator
// manager (paper §V-A): every plugin shares one bound sized by the
// `threads` configuration knob, so thousands of sensors and dozens of
// operators per node cannot oversubscribe the host's cores — monitoring
// overhead stays bounded no matter how much analytics is loaded.
//
// It is a counting semaphore, not a pool: a computation takes a slot on
// the goroutine that already has it, runs there, and gives the slot back.
// Nothing runs while holding a slot that waits for another slot, so the
// bound cannot deadlock. A nil *Scheduler bounds nothing.
type Scheduler struct {
	slots     chan struct{}
	queued    atomic.Int64
	completed atomic.Uint64
}

// SchedulerStats is a point-in-time snapshot of the bound, exposed
// through Manager.SchedulerStats and the REST /status endpoint.
type SchedulerStats struct {
	// Threads is the bound: how many computations may run at once.
	Threads int `json:"threads"`
	// Queued counts computations waiting for a slot.
	Queued int `json:"queued"`
	// Active counts computations holding a slot.
	Active int `json:"active"`
	// Completed counts computations finished since the scheduler was
	// created.
	Completed uint64 `json:"completed"`
}

// NewScheduler creates a bound of the given size. A non-positive size
// selects the default, runtime.GOMAXPROCS(0).
func NewScheduler(threads int) *Scheduler {
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	return &Scheduler{slots: make(chan struct{}, threads)}
}

// Threads returns the bound.
func (s *Scheduler) Threads() int { return cap(s.slots) }

// acquire blocks until the caller holds a slot.
func (s *Scheduler) acquire() {
	if s == nil {
		return
	}
	select {
	case s.slots <- struct{}{}:
		return
	default:
	}
	s.queued.Add(1)
	s.slots <- struct{}{}
	s.queued.Add(-1)
}

// release gives back a slot taken by acquire and counts the computation
// as completed.
func (s *Scheduler) release() {
	if s == nil {
		return
	}
	<-s.slots
	s.completed.Add(1)
}

// Stats returns a snapshot of the bound.
func (s *Scheduler) Stats() SchedulerStats {
	return SchedulerStats{
		Threads:   cap(s.slots),
		Queued:    int(s.queued.Load()),
		Active:    len(s.slots),
		Completed: s.completed.Load(),
	}
}
