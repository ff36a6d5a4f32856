package stacks

import (
	"ulp/internal/tcp"
	"ulp/internal/timerwheel"
)

// TCPWheel is the timing-wheel backend for the BSD tick timers (Varghese &
// Lauck, the mechanism the paper names for making "practically every
// message arrival and departure involves timer operations" cheap). The
// classic shells walk every connection on every 200/500 ms tick — O(conns)
// per tick, which at 10k+ connections dominates the virtual CPU. With the
// wheel a connection is touched only when a timer actually fires:
//
//   - Each connection registers a WheelEnt holding one slow-wheel and one
//     fast-wheel timer plus lastSeen, the slow tick the connection's
//     counters were last advanced to.
//   - Sync, called with the connection's engine locked, first catches the
//     tick counters up to the wheel clock (AdvanceSlowTicks — O(fires),
//     and nothing can have fired unseen because the wheel is always armed
//     for the earliest deadline), then re-arms the slow timer for
//     NextSlowTicks and the fast timer iff a delayed ACK is pending.
//   - The shell's driver threads advance the wheels once per tick period
//     and run each due entry's Sync under that connection's engine lock,
//     charging timer cost per *fire* rather than per connection per tick.
//
// Shells call Sync on engine entry (so handlers see current counters
// before processing a segment) and on engine exit (so timers the segment
// armed get onto the wheel). Both calls are idempotent.
//
// This is a wall-clock and virtual-CPU optimization for many-connection
// worlds and is opt-in per shell; the two-host seed worlds keep the classic
// per-tick loops and their bit-identical virtual-time tables.
type TCPWheel struct {
	slow, fast *timerwheel.Wheel
	// One exec slot per wheel, live only inside the matching Advance*.
	// They must be separate: the slow and fast drivers are different
	// threads, and a fire that blocks on a connection's engine lock
	// suspends its Advance mid-tick — the other driver can run a full
	// Advance (setting and clearing a shared slot) in the gap.
	execSlow func(e *WheelEnt, fn func())
	execFast func(e *WheelEnt, fn func())
}

// WheelEnt is one connection's wheel registration. Owner carries the
// shell's connection object back to the driver's exec callback.
type WheelEnt struct {
	Owner any

	w            *TCPWheel
	tc           *tcp.Conn
	slowT, fastT timerwheel.Timer
	lastSeen     uint64
	slowDeadline uint64
}

// NewTCPWheel builds the two wheels: the slow wheel spans 2^16 ticks
// (~9 virtual hours at 500 ms), far beyond the largest BSD timer; the fast
// wheel only ever holds next-tick delayed-ACK deadlines.
func NewTCPWheel() *TCPWheel {
	return &TCPWheel{
		slow: timerwheel.New(2, 256),
		fast: timerwheel.New(1, 16),
	}
}

// TimerOps reports total wheel operations (cost accounting, diagnostics).
func (w *TCPWheel) TimerOps() int { return w.slow.Ops() + w.fast.Ops() }

// Armed reports pending timers across both wheels (diagnostics).
func (w *TCPWheel) Armed() int { return w.slow.Armed() + w.fast.Armed() }

// Add registers a connection. The returned entry starts synced to the
// current wheel clock; the caller must invoke Sync under the engine lock
// after any engine activity (Open, Input) arms timers.
func (w *TCPWheel) Add(tc *tcp.Conn, owner any) *WheelEnt {
	e := &WheelEnt{Owner: owner, w: w, tc: tc, lastSeen: w.slow.Now()}
	return e
}

// Drop deregisters a connection, cancelling any pending timers. Safe to
// call twice, and a no-op in tick mode (nil receiver or entry).
func (w *TCPWheel) Drop(e *WheelEnt) {
	if w == nil || e == nil {
		return
	}
	w.slow.Cancel(&e.slowT)
	w.fast.Cancel(&e.fastT)
}

// Sync reconciles one connection with the wheel clock. Call only with the
// connection's engine lock held. It advances the tick counters to "now"
// (firing any counter whose deadline the wheel has reached — normally none
// on engine entry, exactly one when called from a wheel fire), then
// re-arms both wheel timers from the resulting counter state.
func (w *TCPWheel) Sync(e *WheelEnt) {
	if n := w.slow.Now() - e.lastSeen; n > 0 {
		e.lastSeen = w.slow.Now()
		e.tc.AdvanceSlowTicks(int(n))
	}
	next := e.tc.NextSlowTicks()
	if next == 0 {
		w.slow.Cancel(&e.slowT)
	} else {
		deadline := w.slow.Now() + uint64(next)
		if !e.slowT.Armed() || e.slowDeadline != deadline {
			w.slow.Set(&e.slowT, uint64(next), e.fireSlow)
			e.slowDeadline = deadline
		}
	}
	if e.tc.DelAckPending() {
		if !e.fastT.Armed() {
			w.fast.Set(&e.fastT, 1, e.fireFast)
		}
	} else if e.fastT.Armed() {
		w.fast.Cancel(&e.fastT)
	}
}

// Run executes fn on one connection's engine, which the caller holds: the
// tick counters are caught up to the wheel clock before fn reads them, and
// whatever fn arms goes onto the wheel afterwards. The exit Sync is a no-op
// if a callback inside fn already dropped the entry (the engine is Closed,
// so nothing re-arms).
func (w *TCPWheel) Run(e *WheelEnt, fn func()) {
	w.Sync(e)
	fn()
	w.Sync(e)
}

// fireSlow runs when the slow wheel reaches the connection's earliest
// deadline: the driver's exec acquires the engine lock, and Sync both
// fires the due counter (through the ordinary SlowTick path) and re-arms.
// If another thread already advanced the connection past this deadline
// while we waited for the lock, Sync degenerates to a no-op re-arm.
func (e *WheelEnt) fireSlow() {
	e.w.execSlow(e, func() { e.w.Sync(e) })
}

// fireFast flushes the pending delayed ACK.
func (e *WheelEnt) fireFast() {
	e.w.execFast(e, func() { e.w.Run(e, e.tc.FastTick) })
}

// AdvanceSlow moves the slow wheel one tick, dispatching each due entry
// through exec, which must run the provided fn under that connection's
// engine lock (and charge whatever per-fire cost the shell models). It
// returns the number of entries fired.
func (w *TCPWheel) AdvanceSlow(exec func(e *WheelEnt, fn func())) int {
	w.execSlow = exec
	fired := w.slow.Advance(1)
	w.execSlow = nil
	return fired
}

// AdvanceFast is AdvanceSlow for the 200 ms delayed-ACK wheel.
func (w *TCPWheel) AdvanceFast(exec func(e *WheelEnt, fn func())) int {
	w.execFast = exec
	fired := w.fast.Advance(1)
	w.execFast = nil
	return fired
}
