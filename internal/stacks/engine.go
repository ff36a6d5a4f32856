package stacks

import (
	"time"

	"ulp/internal/kern"
	"ulp/internal/sim"
	"ulp/internal/tcp"
)

// Engine brackets entry into a TCP engine: a semaphore serializes engine
// activity (the splnet analogue), and the thread inside the bracket is the
// one that pays for whatever the engine's callbacks transmit. Every host
// that drives an engine uses one — the Shell and the registry one per host,
// the library one per connection.
type Engine struct {
	name string
	lock *sim.Semaphore
	cur  *kern.Thread
}

// NewEngine builds a bracket whose semaphore is called name.
func NewEngine(s *sim.Sim, name string) *Engine {
	return &Engine{name: name, lock: s.NewSemaphore(name, 1)}
}

// Run executes fn holding the engine, with t as its driving thread.
func (e *Engine) Run(t *kern.Thread, fn func()) {
	e.lock.P(t.Proc)
	e.cur = t
	fn()
	e.cur = nil
	e.lock.V()
}

// RunConn executes fn holding the engine for one connection's operation:
// when went is non-nil, the connection is also synced with its timing
// wheel around fn (see TCPWheel.Run).
func (e *Engine) RunConn(t *kern.Thread, went *WheelEnt, fn func()) {
	if went == nil {
		e.Run(t, fn)
		return
	}
	e.Run(t, func() { went.w.Run(went, fn) })
}

// Thread returns the thread driving the engine. Engine callbacks run inside
// Run; reading the driving thread anywhere else is a bug, and panics.
func (e *Engine) Thread() *kern.Thread {
	if e.cur == nil {
		panic(e.name + ": engine thread read outside Run")
	}
	return e.cur
}

// TickTimers is a host's BSD tick machinery: a 200 ms fast loop for
// delayed ACKs and a 500 ms slow loop for the protocol timers, each tick
// either scanning every connection or advancing the host's TCPWheel. Every
// connection ticked and every wheel entry fired costs one TimerOp.
//
// The host supplies its engine-entry hook as exactly one of Engine (one
// engine for all connections, held across each tick's whole scan or wheel
// advance) or ConnEngine (an engine per connection, held across that
// connection's tick or fire alone).
type TickTimers struct {
	// Wheel returns the host's timing wheel, or nil to scan. It is read
	// each tick, since hosts switch backends after construction. A nil
	// Wheel func always scans.
	Wheel func() *TCPWheel
	// Scan visits every connection in the host's deterministic order,
	// with the owner ConnEngine resolves (nil for a host-wide Engine).
	Scan func(visit func(tc *tcp.Conn, owner any))

	Engine     *Engine
	ConnEngine func(owner any) *Engine

	// Nif, when set, has its reassembly queue expired after each slow
	// tick, outside the engine.
	Nif *Netif
}

// Spawn starts the fast and slow driver threads in dom, named
// prefix+"-fast" and prefix+"-slow".
func (tt TickTimers) Spawn(dom *kern.Domain, prefix string) {
	dom.Spawn(prefix+"-fast", func(t *kern.Thread) { tt.loop(t, false) })
	dom.Spawn(prefix+"-slow", func(t *kern.Thread) { tt.loop(t, true) })
}

// loop is one driver thread.
func (tt TickTimers) loop(t *kern.Thread, slow bool) {
	period, tick := 200*time.Millisecond, (*tcp.Conn).FastTick
	if slow {
		period, tick = 500*time.Millisecond, (*tcp.Conn).SlowTick
	}
	cost := t.Cost()
	visit := func(tc *tcp.Conn, owner any) {
		t.Compute(cost.TimerOp)
		tt.conn(t, owner, func() { tick(tc) })
	}
	fire := func(e *WheelEnt, fn func()) {
		t.Compute(cost.TimerOp)
		tt.conn(t, e.Owner, fn)
	}
	for {
		t.Sleep(period)
		var w *TCPWheel
		if tt.Wheel != nil {
			w = tt.Wheel()
		}
		tt.host(t, func() {
			switch {
			case w == nil:
				tt.Scan(visit)
			case slow:
				w.AdvanceSlow(fire)
			default:
				w.AdvanceFast(fire)
			}
		})
		if slow && tt.Nif != nil {
			tt.Nif.Rsm.Expire(tt.Nif.Now())
		}
	}
}

// host runs a whole tick under the host-wide engine, if there is one.
func (tt TickTimers) host(t *kern.Thread, fn func()) {
	if tt.Engine != nil {
		tt.Engine.Run(t, fn)
		return
	}
	fn()
}

// conn runs one connection's tick or fire under its own engine, if the
// host has one per connection.
func (tt TickTimers) conn(t *kern.Thread, owner any, fn func()) {
	if tt.ConnEngine != nil {
		tt.ConnEngine(owner).Run(t, fn)
		return
	}
	fn()
}
