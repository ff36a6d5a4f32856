package kern

import (
	"testing"
	"time"

	"ulp/internal/sim"
)

// Domain.Kill tears down every thread with no exit path and fires the
// death hooks exactly once.
func TestDomainKill(t *testing.T) {
	s := sim.New()
	h := newHost(s)
	d := h.NewDomain("app", false)
	var progressed int
	for i := 0; i < 3; i++ {
		d.Spawn("w", func(th *Thread) {
			th.Sleep(time.Second)
			progressed++
		})
	}
	hooks := 0
	d.OnDeath(func() { hooks++ })
	s.After(time.Millisecond, func() {
		d.Kill()
		d.Kill() // idempotent
	})
	s.Run(0)
	if progressed != 0 {
		t.Fatalf("%d threads survived the kill", progressed)
	}
	if hooks != 1 {
		t.Fatalf("death hooks ran %d times, want 1", hooks)
	}
	if !d.Dead() {
		t.Fatal("domain not marked dead")
	}
}

// A long-lived domain that spawns a short thread per request keeps only
// its live threads: finished ones are pruned as the list fills, while
// Kill still reaches every thread that has not finished, including one
// spawned early and one not yet started.
func TestDomainPrunesFinishedThreads(t *testing.T) {
	s := sim.New()
	h := newHost(s)
	d := h.NewDomain("app", false)
	survived := 0
	d.Spawn("early", func(th *Thread) {
		th.Sleep(time.Hour)
		survived++
	})
	d.Spawn("acceptor", func(th *Thread) {
		for i := 0; i < 1000; i++ {
			d.Spawn("short", func(*Thread) {})
			th.Sleep(time.Millisecond)
		}
		d.SpawnAfter(time.Minute, "late", func(*Thread) { survived++ })
		th.Sleep(time.Hour)
		survived++
	})
	s.Run(2 * time.Second)
	if n := len(d.threads); n > 64 {
		t.Fatalf("domain holds %d threads after 1000 finished, want only the live ones", n)
	}
	d.Kill()
	s.Run(0)
	if survived != 0 {
		t.Fatalf("%d live threads escaped the kill after pruning", survived)
	}
}

// Threads spawned into an already-dead domain never run.
func TestSpawnIntoDeadDomain(t *testing.T) {
	s := sim.New()
	h := newHost(s)
	d := h.NewDomain("app", false)
	d.Kill()
	ran := false
	d.Spawn("late", func(th *Thread) { ran = true })
	s.Run(0)
	if ran {
		t.Fatal("thread ran in a dead domain")
	}
}

// A hook registered on an already-dead domain runs immediately.
func TestOnDeathAfterKill(t *testing.T) {
	s := sim.New()
	h := newHost(s)
	d := h.NewDomain("app", false)
	d.Kill()
	ran := false
	d.OnDeath(func() { ran = true })
	if !ran {
		t.Fatal("late death hook did not run")
	}
}

// CallTimeout returns ok=false when the server never replies, and the
// caller resumes at the deadline.
func TestCallTimeout(t *testing.T) {
	s := sim.New()
	h := newHost(s)
	srv := h.NewDomain("server", true)
	svc := NewPort(h, "svc")
	replies := 0
	srv.Spawn("serve", func(th *Thread) {
		for {
			m := svc.Receive(th)
			if m.Op == "answer" {
				m.ReplyTo(th, Msg{Op: "ack"})
				replies++
			}
			// "ignore" requests get no reply ever.
		}
	})

	app := h.NewDomain("app", false)
	var gotAck, timedOut bool
	var elapsed sim.Dur
	app.Spawn("client", func(th *Thread) {
		if r, ok := svc.CallTimeout(th, Msg{Op: "answer"}, 100*time.Millisecond); ok && r.Op == "ack" {
			gotAck = true
		}
		start := th.Now()
		if _, ok := svc.CallTimeout(th, Msg{Op: "ignore"}, 50*time.Millisecond); !ok {
			timedOut = true
			elapsed = th.Now().Sub(start)
		}
	})
	s.Run(time.Second)
	if !gotAck {
		t.Fatal("answered call did not complete")
	}
	if !timedOut {
		t.Fatal("unanswered call did not time out")
	}
	// Elapsed is the 50 ms deadline plus the send-side IPC cost charged
	// before blocking; it must never be less than the deadline.
	if elapsed < 50*time.Millisecond || elapsed > 52*time.Millisecond {
		t.Fatalf("timeout took %v, want ~50ms of virtual time", elapsed)
	}
}

// Region pinning is released exactly once by Unpin.
func TestRegionUnpin(t *testing.T) {
	r := NewRegion("buf", 4096)
	if !r.Pinned() {
		t.Fatal("fresh region should be pinned")
	}
	r.Unpin()
	if r.Pinned() {
		t.Fatal("region still pinned after Unpin")
	}
}
