// Package sim implements a deterministic discrete-event simulation engine.
//
// The engine owns a virtual clock (nanosecond resolution) and an event heap
// ordered by (time, sequence). Simulated threads of control ("procs") are
// ordinary goroutines that run strictly one at a time. There is no separate
// engine goroutine: the event loop runs on whichever goroutine holds
// control. When a proc parks (by sleeping, waiting on a semaphore, popping
// an empty queue, and so on) its own goroutine runs the loop until an event
// resumes a proc. If that proc is itself, it simply carries on; otherwise it
// hands control to that proc's goroutine with one channel send and blocks
// until it is resumed in turn. When the run ends, control returns to the
// Run caller the same way. This yields fully sequential semantics —
// protocol and application code can be written in a natural blocking style
// with no data races and no wall-clock dependence — while the (time, seq)
// ordering makes every run reproducible.
//
// The engine is built for wall-clock speed as well as determinism: event
// records live on an internal free list (no allocation per scheduled event),
// the ready queue is a flat 4-ary array heap (no container/heap interface
// dispatch, better cache behaviour than a binary pointer heap), cancelled
// timers are removed eagerly rather than left to surface at their deadline,
// the hot schedulings (proc resume, argument-carrying callbacks) avoid
// closure allocations entirely, and a resume costs at most one goroutine
// switch.
package sim

import (
	"fmt"
	"time"
)

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time int64

// Dur is a span of virtual time. It aliases time.Duration so callers can use
// the familiar constants (time.Millisecond etc.) without importing anything
// extra.
type Dur = time.Duration

// String formats a Time using time.Duration notation (e.g. "1.5ms").
func (t Time) String() string { return time.Duration(t).String() }

// Add returns the time d after t.
func (t Time) Add(d Dur) Time { return t + Time(d) }

// Sub returns the duration from u to t.
func (t Time) Sub(u Time) Dur { return Dur(t - u) }

// event is one pooled event record. Exactly one of fn, fnArg, or proc is
// set: fn is a plain callback, fnArg is called with arg (letting hot paths
// schedule static functions without a closure allocation), and proc resumes
// a parked proc. gen distinguishes a live record from a recycled one so
// stale Timers cannot cancel an unrelated event.
type event struct {
	at      Time
	seq     uint64
	fn      func()
	fnArg   func(any)
	arg     any
	proc    *Proc
	gen     uint32
	heapIdx int32 // index in Sim.heap; -1 when free or already fired
}

// heapEnt is one ready-queue entry. The ordering key is kept inline so sift
// comparisons never chase the record pointer.
type heapEnt struct {
	at  Time
	seq uint64
	rec int32
}

func entLess(a, b heapEnt) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Sim is a discrete-event simulation instance. It is not safe for concurrent
// use from multiple OS threads; all interaction happens either before Run,
// from within event callbacks, or from within procs (which the engine
// serializes).
type Sim struct {
	now     Time
	seq     uint64
	heap    []heapEnt
	records []event
	free    []int32       // free-list of record slots (LIFO)
	done    chan struct{} // loop -> Run caller: "the run has ended"
	current *Proc         // the proc holding control; nil while the loop runs
	nprocs  int           // live procs (started, not yet finished)
	stopped bool

	// The current run's bounds, set by RunUntil and read by every loop.
	end  Time
	pred func() bool

	// direct is a proc an event callback asked to run as soon as the
	// callback returns, before any other event (see Cond.WaitUntil).
	direct *Proc

	// Counters (diagnostics only; never consulted by the engine).
	fired     int64
	cancelled int64
	maxHeap   int
}

// Counters reports cumulative engine activity: events fired, timers
// cancelled before firing, and the high-water mark of the event heap.
func (s *Sim) Counters() (fired, cancelled int64, maxHeap int) {
	return s.fired, s.cancelled, s.maxHeap
}

// New creates an empty simulation at time zero.
func New() *Sim {
	return &Sim{done: make(chan struct{})}
}

// Now returns the current virtual time.
func (s *Sim) Now() Time { return s.now }

// ---------------------------------------------------------------------------
// Event pool and 4-ary heap
// ---------------------------------------------------------------------------

// alloc takes a record from the free list (or grows the arena) and pushes it
// onto the heap, returning the slot index.
func (s *Sim) alloc(at Time) int32 {
	var rec int32
	if n := len(s.free); n > 0 {
		rec = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		s.records = append(s.records, event{})
		rec = int32(len(s.records) - 1)
	}
	e := &s.records[rec]
	e.at = at
	e.seq = s.seq
	s.seq++
	s.heapPush(heapEnt{at: e.at, seq: e.seq, rec: rec})
	return rec
}

// release clears a record's payload and returns the slot to the free list.
// The generation bump invalidates any Timer still holding the slot.
func (s *Sim) release(rec int32) {
	e := &s.records[rec]
	e.fn = nil
	e.fnArg = nil
	e.arg = nil
	e.proc = nil
	e.gen++
	e.heapIdx = -1
	s.free = append(s.free, rec)
}

func (s *Sim) heapPush(ent heapEnt) {
	s.heap = append(s.heap, ent)
	if len(s.heap) > s.maxHeap {
		s.maxHeap = len(s.heap)
	}
	s.siftUp(len(s.heap) - 1)
}

// heapRemove deletes the entry at heap index i, restoring heap order.
func (s *Sim) heapRemove(i int) {
	n := len(s.heap) - 1
	last := s.heap[n]
	s.heap = s.heap[:n]
	if i == n {
		return
	}
	s.heap[i] = last
	s.records[last.rec].heapIdx = int32(i)
	j := s.siftDown(i)
	s.siftUp(j)
}

func (s *Sim) siftUp(i int) {
	ent := s.heap[i]
	for i > 0 {
		p := (i - 1) >> 2
		if !entLess(ent, s.heap[p]) {
			break
		}
		s.heap[i] = s.heap[p]
		s.records[s.heap[i].rec].heapIdx = int32(i)
		i = p
	}
	s.heap[i] = ent
	s.records[ent.rec].heapIdx = int32(i)
}

// siftDown restores heap order below i, returning the entry's final index.
func (s *Sim) siftDown(i int) int {
	n := len(s.heap)
	ent := s.heap[i]
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if entLess(s.heap[j], s.heap[m]) {
				m = j
			}
		}
		if !entLess(s.heap[m], ent) {
			break
		}
		s.heap[i] = s.heap[m]
		s.records[s.heap[i].rec].heapIdx = int32(i)
		i = m
	}
	s.heap[i] = ent
	s.records[ent.rec].heapIdx = int32(i)
	return i
}

// ---------------------------------------------------------------------------
// Timers and scheduling
// ---------------------------------------------------------------------------

// Timer identifies a scheduled event so it can be cancelled. The zero Timer
// is inert.
type Timer struct {
	s   *Sim
	rec int32
	gen uint32
}

// Cancel prevents the timer's callback from running. The event is removed
// from the heap immediately (its record returns to the free list), so a
// cancel-heavy workload — a connection re-arming its retransmission timer on
// every segment — cannot accumulate dead events until their deadlines pass.
// Cancelling an already fired or already cancelled timer is a no-op. It
// reports whether the callback was still pending.
func (t Timer) Cancel() bool {
	if t.s == nil {
		return false
	}
	e := &t.s.records[t.rec]
	if e.gen != t.gen || e.heapIdx < 0 {
		return false
	}
	t.s.heapRemove(int(e.heapIdx))
	t.s.release(t.rec)
	t.s.cancelled++
	return true
}

// Pending reports whether the timer's callback has yet to run.
func (t Timer) Pending() bool {
	if t.s == nil {
		return false
	}
	e := &t.s.records[t.rec]
	return e.gen == t.gen && e.heapIdx >= 0
}

// checkPast panics on scheduling in the past: it would silently corrupt
// causality.
func (s *Sim) checkPast(at Time) {
	if at < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, s.now))
	}
}

// At schedules fn to run at absolute virtual time at.
func (s *Sim) At(at Time, fn func()) Timer {
	s.checkPast(at)
	rec := s.alloc(at)
	e := &s.records[rec]
	e.fn = fn
	return Timer{s: s, rec: rec, gen: e.gen}
}

// AtArg schedules fn(arg) at absolute virtual time at. Because fn is
// typically a static function and arg a pooled object, this path performs no
// closure allocation — it is the form the packet hot path uses.
func (s *Sim) AtArg(at Time, fn func(any), arg any) Timer {
	s.checkPast(at)
	rec := s.alloc(at)
	e := &s.records[rec]
	e.fnArg = fn
	e.arg = arg
	return Timer{s: s, rec: rec, gen: e.gen}
}

// After schedules fn to run d from now.
func (s *Sim) After(d Dur, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return s.At(s.now.Add(d), fn)
}

// AfterArg schedules fn(arg) to run d from now, without allocating.
func (s *Sim) AfterArg(d Dur, fn func(any), arg any) Timer {
	if d < 0 {
		d = 0
	}
	return s.AtArg(s.now.Add(d), fn, arg)
}

// scheduleResume schedules p to be resumed d from now. This is the proc
// handoff fast path: no closure, no allocation beyond the pooled record.
func (s *Sim) scheduleResume(d Dur, p *Proc) {
	if d < 0 {
		d = 0
	}
	rec := s.alloc(s.now.Add(d))
	s.records[rec].proc = p
}

// Stop terminates the run loop after the current event or proc step
// completes. Pending events are discarded.
func (s *Sim) Stop() { s.stopped = true }

// loop executes events until one resumes a live proc, which it makes
// current and returns, or until the run ends (Stop, the predicate, an empty
// heap or the time limit), when it returns nil. A resume event is not
// executed in place: the loop returns its proc so the caller can hand
// control over, as it does a proc a callback named to run next (direct).
// The loop runs on whichever goroutine holds control: the Run caller, a
// parking proc, or a finishing one.
func (s *Sim) loop() *Proc {
	end, pred := s.end, s.pred
	for !s.stopped && (pred == nil || !pred()) && len(s.heap) > 0 {
		if s.heap[0].at > end {
			s.now = end
			break
		}
		s.fired++
		rec := s.heap[0].rec
		s.heapRemove(0)
		e := &s.records[rec]
		s.now = e.at
		fn, fnArg, arg, p := e.fn, e.fnArg, e.arg, e.proc
		s.release(rec)
		if p == nil {
			if fnArg != nil {
				fnArg(arg)
			} else {
				fn()
			}
			if p = s.direct; p != nil {
				s.direct = nil
			}
		}
		if p != nil && !p.done {
			s.current = p
			return p
		}
	}
	return nil
}

// handoff passes control to next, the result of loop: to its goroutine, or
// back to the Run caller when the run has ended. It does not block.
func (s *Sim) handoff(next *Proc) {
	if next == nil {
		s.done <- struct{}{}
		return
	}
	next.wake <- struct{}{}
}

// Run executes events until the heap is empty, the time limit is exceeded,
// or Stop is called. A limit of 0 means no limit. It returns the virtual
// time at which the run ended.
//
// Procs that are still blocked when Run returns remain parked; a subsequent
// Run continues the simulation.
func (s *Sim) Run(limit Dur) Time { return s.RunUntil(limit, nil) }

// RunUntil executes events until pred() returns true (checked after every
// event and proc step), the heap drains, or the time limit passes. A nil
// pred never stops the run.
func (s *Sim) RunUntil(limit Dur, pred func() bool) Time {
	s.end = Time(1<<62 - 1)
	if limit > 0 {
		s.end = s.now.Add(limit)
	}
	s.pred = pred
	s.stopped = false
	if p := s.loop(); p != nil {
		s.handoff(p)
		<-s.done
	}
	return s.now
}

// Idle reports whether no events remain.
func (s *Sim) Idle() bool { return len(s.heap) == 0 }

// PendingEvents returns the number of scheduled (live) events, for tests
// asserting that cancellation keeps the heap bounded.
func (s *Sim) PendingEvents() int { return len(s.heap) }

// Procs returns the number of procs that have been started and have not yet
// returned.
func (s *Sim) Procs() int { return s.nprocs }
