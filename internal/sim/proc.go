package sim

import (
	"fmt"
	"runtime"
)

// Proc is a simulated thread of control: a goroutine that the engine runs
// one-at-a-time. Code inside a proc may block using the proc's primitives
// (Sleep, Semaphore.P, Queue.Pop, ...); blocking runs the event loop on the
// proc's own goroutine, which advances virtual time until it reaches the
// next proc to resume.
type Proc struct {
	s      *Sim
	name   string
	wake   chan struct{}
	done   bool
	killed bool

	// State of the proc's current Cond.WaitUntil (a proc waits on one
	// thing at a time), kept here so a timed wait allocates nothing.
	// timedOut shares the word after done and killed.
	timedOut bool
	waitCond *Cond
}

// Name returns the debug name given at spawn time.
func (p *Proc) Name() string { return p.name }

// Sim returns the simulation the proc belongs to.
func (p *Proc) Sim() *Sim { return p.s }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.s.now }

// Spawn starts fn as a new proc at the current virtual time. fn begins
// executing when the engine reaches the spawn event; Spawn itself returns
// immediately.
func (s *Sim) Spawn(name string, fn func(p *Proc)) *Proc {
	return s.SpawnAfter(0, name, fn)
}

// SpawnAfter starts fn as a new proc d from now.
func (s *Sim) SpawnAfter(d Dur, name string, fn func(p *Proc)) *Proc {
	p := &Proc{s: s, name: name, wake: make(chan struct{})}
	s.nprocs++
	go func() {
		// The final handoff runs from a defer so it executes even when
		// the proc is torn down abruptly (Kill unwinds via runtime.Goexit).
		defer func() {
			p.done = true
			s.nprocs--
			s.current = nil
			s.handoff(s.loop())
		}()
		<-p.wake // wait for first resume
		if p.killed {
			return // killed before ever running
		}
		fn(p)
	}()
	s.scheduleResume(d, p)
	return p
}

// Kill tears a proc down abruptly: its goroutine unwinds at its current (or
// next) blocking point without executing any further user code — no exit
// path, no cleanup. This models a crashing process: whatever the proc had
// claimed (semaphores held, queue entries, shared state) stays exactly as it
// was at the kill point. Killing an already-dead proc is a no-op.
//
// Kill may be called from any simulation context. A proc that kills itself
// (directly or by killing its own domain) keeps running until its next
// blocking point, then dies there.
func (s *Sim) Kill(p *Proc) {
	if p.done || p.killed {
		return
	}
	p.killed = true
	if s.current == p {
		return // self-kill: dies at the next park
	}
	// Wake the parked proc so it can unwind now; any other pending resume
	// events for it become no-ops once done is set.
	s.scheduleResume(0, p)
}

// Killed reports whether the proc was torn down by Kill.
func (p *Proc) Killed() bool { return p.killed }

// Done reports whether the proc has finished (returned or been killed).
func (p *Proc) Done() bool { return p.done }

// park gives up control and blocks the proc until it is next resumed. The
// proc's goroutine runs the event loop itself: if the next proc to resume
// is this one, park returns without any goroutine switch; otherwise it
// hands control on and waits on its own wake channel. A proc killed while
// parked unwinds here instead of returning to its user code (the spawn
// defer performs the final handoff).
func (p *Proc) park() {
	if p.killed {
		runtime.Goexit() // self-kill: die at the blocking point
	}
	s := p.s
	s.current = nil
	if next := s.loop(); next != p {
		s.handoff(next)
		<-p.wake
	}
	if p.killed {
		runtime.Goexit()
	}
}

// ensureCurrent panics if called from outside the running proc; the blocking
// primitives require proc context.
func (p *Proc) ensureCurrent() {
	if p.s.current != p {
		panic(fmt.Sprintf("sim: blocking call on proc %q from outside its own context", p.name))
	}
}

// Sleep blocks the proc for d of virtual time.
func (p *Proc) Sleep(d Dur) {
	p.ensureCurrent()
	p.s.scheduleResume(d, p)
	p.park()
}

// SleepUntil blocks the proc until absolute time at (no-op if at <= now).
func (p *Proc) SleepUntil(at Time) {
	if at <= p.s.now {
		return
	}
	p.Sleep(at.Sub(p.s.now))
}

// Yield reschedules the proc at the current time behind already-pending
// events, letting same-time work interleave.
func (p *Proc) Yield() { p.Sleep(0) }
