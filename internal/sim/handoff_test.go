package sim

import (
	"fmt"
	"reflect"
	"testing"
	"time"
)

// Edge cases of the direct proc-to-proc handoff: a parking proc runs the
// event loop on its own goroutine, so every way a run or a proc can end
// must still return control to exactly one live goroutine.

// A proc killed while blocked in a timed wait leaves its deadline timer in
// the heap. When the timer fires the proc's goroutine has already exited;
// the loop must skip it rather than hand control to it.
func TestKillDuringTimedWaitThenDeadline(t *testing.T) {
	for _, kind := range []string{"WaitUntil", "PopTimeout"} {
		t.Run(kind, func(t *testing.T) {
			s := New()
			c := s.NewCond()
			q := NewQueue[int](s)
			var past bool
			victim := s.Spawn("victim", func(p *Proc) {
				if kind == "WaitUntil" {
					c.WaitUntil(p, Time(10*time.Millisecond))
				} else {
					q.PopTimeout(p, 10*time.Millisecond)
				}
				past = true
			})
			var lastWake Time
			s.Spawn("bystander", func(p *Proc) {
				for i := 0; i < 20; i++ {
					p.Sleep(time.Millisecond)
					lastWake = p.Now()
				}
			})
			s.After(time.Millisecond, func() { s.Kill(victim) })
			end := s.Run(0)
			if past {
				t.Fatal("killed proc ran past its wait")
			}
			if s.Procs() != 0 {
				t.Fatalf("procs remaining = %d, want 0", s.Procs())
			}
			if lastWake != Time(20*time.Millisecond) || end != lastWake {
				t.Fatalf("bystander last woke at %v, run ended at %v; want both 20ms", lastWake, end)
			}
		})
	}
}

// Stop called from inside a proc ends the run once that proc parks; the
// next Run resumes exactly where the first stopped.
func TestStopFromInsideProc(t *testing.T) {
	s := New()
	var steps []Time
	s.Spawn("p", func(p *Proc) {
		for i := 0; i < 5; i++ {
			steps = append(steps, p.Now())
			if i == 2 {
				s.Stop()
			}
			p.Sleep(time.Millisecond)
		}
	})
	other := 0
	s.After(2500*time.Microsecond, func() { other++ })
	if end := s.Run(0); end != Time(2*time.Millisecond) {
		t.Fatalf("stopped run ended at %v, want 2ms", end)
	}
	if len(steps) != 3 || other != 0 {
		t.Fatalf("after Stop: %d steps, other event ran %d times; want 3, 0", len(steps), other)
	}
	if s.Procs() != 1 {
		t.Fatalf("procs = %d, want the stopped proc still parked", s.Procs())
	}
	s.Run(0)
	want := []Time{0, Time(time.Millisecond), Time(2 * time.Millisecond),
		Time(3 * time.Millisecond), Time(4 * time.Millisecond)}
	if !reflect.DeepEqual(steps, want) || other != 1 || s.Procs() != 0 {
		t.Fatalf("steps %v other %d procs %d; want %v, 1, 0", steps, other, s.Procs(), want)
	}
}

// A Run whose limit expires while procs are parked returns to its caller
// with those procs blocked; a second Run resumes them in the same order an
// unbroken run would have.
func TestRunLimitThenResumeParkedProcs(t *testing.T) {
	trace := func(limits ...Dur) []string {
		s := New()
		var log []string
		a := s.NewSemaphore("a", 0)
		b := s.NewSemaphore("b", 0)
		s.Spawn("ping", func(p *Proc) {
			for i := 0; i < 6; i++ {
				p.Sleep(time.Millisecond)
				log = append(log, fmt.Sprintf("ping %d @%v", i, p.Now()))
				a.V()
				b.P(p)
			}
		})
		s.Spawn("pong", func(p *Proc) {
			for i := 0; i < 6; i++ {
				a.P(p)
				p.Sleep(500 * time.Microsecond)
				log = append(log, fmt.Sprintf("pong %d @%v", i, p.Now()))
				b.V()
			}
		})
		for _, l := range limits {
			end := s.Run(l)
			log = append(log, fmt.Sprintf("run end @%v procs %d", end, s.Procs()))
		}
		return log
	}
	whole := trace(0)
	split := trace(3*time.Millisecond+100*time.Microsecond, 0)
	if len(split) != len(whole)+1 {
		t.Fatalf("split run logged %d lines, whole run %d", len(split), len(whole))
	}
	// By 3.1ms ping and pong have each logged two steps.
	if split[4] != "run end @3.1ms procs 2" {
		t.Fatalf("first run ended with %q, want both procs parked at 3.1ms", split[4])
	}
	joined := append(append([]string{}, split[:4]...), split[5:]...)
	if !reflect.DeepEqual(joined, whole) {
		t.Fatalf("split run diverged:\n got %v\nwant %v", joined, whole)
	}
}

// A proc killed before the engine first resumes it never runs its body and
// still finishes cleanly, whether killed before Run or from an event.
func TestKillBeforeFirstResume(t *testing.T) {
	s := New()
	ran := 0
	early := s.Spawn("early", func(p *Proc) { ran++ })
	s.Kill(early)
	late := s.SpawnAfter(time.Millisecond, "late", func(p *Proc) { ran++ })
	s.After(500*time.Microsecond, func() { s.Kill(late) })
	survivor := 0
	s.SpawnAfter(2*time.Millisecond, "survivor", func(p *Proc) {
		p.Sleep(time.Millisecond)
		survivor++
	})
	s.Run(0)
	if ran != 0 {
		t.Fatalf("killed procs ran their body %d times", ran)
	}
	if !early.Done() || !late.Done() || survivor != 1 || s.Procs() != 0 {
		t.Fatalf("early done %v, late done %v, survivor %d, procs %d",
			early.Done(), late.Done(), survivor, s.Procs())
	}
}

// RunUntil checks its predicate between two consecutive proc steps, even
// when no callback runs between them, and checks in the order stopped,
// then pred, then empty heap.
func TestRunUntilBetweenProcSteps(t *testing.T) {
	s := New()
	n := 0
	s.Spawn("stepper", func(p *Proc) {
		for i := 0; i < 4; i++ {
			n++
			p.Yield()
		}
	})
	var calls []int
	pred := func() bool {
		calls = append(calls, n)
		return n >= 2
	}
	s.RunUntil(0, pred)
	if n != 2 || !reflect.DeepEqual(calls, []int{0, 1, 2}) {
		t.Fatalf("n = %d, pred saw %v; want 2, [0 1 2]", n, calls)
	}

	// Drain: pred is still consulted once the heap is empty.
	calls = nil
	s.RunUntil(0, func() bool { calls = append(calls, n); return false })
	if n != 4 || !reflect.DeepEqual(calls, []int{2, 3, 4, 4}) {
		t.Fatalf("n = %d, pred saw %v; want 4, [2 3 4 4]", n, calls)
	}

	// Stop wins over pred: a step that stops the run is not followed by a
	// pred evaluation.
	s2 := New()
	s2.Spawn("stopper", func(p *Proc) {
		p.Yield()
		s2.Stop()
		p.Yield()
	})
	evals := 0
	s2.RunUntil(0, func() bool { evals++; return false })
	if evals != 2 {
		t.Fatalf("pred evaluated %d times, want 2 (none after Stop)", evals)
	}
}

// A WaitUntil timeout resumes the proc straight after its deadline event,
// ahead of events scheduled later for the same instant.
func TestWaitUntilTimeoutOrder(t *testing.T) {
	s := New()
	c := s.NewCond()
	var log []string
	deadline := Time(5 * time.Millisecond)
	s.At(deadline, func() { log = append(log, "before") })
	s.Spawn("w", func(p *Proc) {
		ok := c.WaitUntil(p, deadline)
		log = append(log, fmt.Sprintf("woke %v", ok))
	})
	s.SpawnAfter(time.Millisecond, "late", func(p *Proc) {
		s.At(deadline, func() { log = append(log, "after") })
	})
	s.Run(0)
	want := []string{"before", "woke false", "after"}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("order %v, want %v", log, want)
	}
}

// A timed wait allocates nothing per call, on either outcome: it sits
// under every Port.ReceiveTimeout and Port.CallTimeout.
func TestWaitUntilAllocationFree(t *testing.T) {
	for _, outcome := range []string{"timeout", "signalled"} {
		t.Run(outcome, func(t *testing.T) {
			s := New()
			c := s.NewCond()
			waits := 0
			s.Spawn("waiter", func(p *Proc) {
				for {
					c.WaitUntil(p, p.Now().Add(time.Millisecond))
					waits++
				}
			})
			s.Run(time.Microsecond) // the waiter is now parked in its first wait
			signal := func(a any) { a.(*Cond).Signal() }
			step := func() {
				if outcome == "signalled" {
					s.AfterArg(time.Microsecond, signal, c)
					s.Run(2 * time.Microsecond)
				} else {
					s.Run(time.Millisecond)
				}
			}
			step() // warm the engine's record arena and the waiter slice
			before := waits
			if a := testing.AllocsPerRun(100, step); a != 0 {
				t.Fatalf("%s WaitUntil allocates %.1f times per call, want 0", outcome, a)
			}
			if waits-before != 101 {
				t.Fatalf("waiter completed %d waits, want 101", waits-before)
			}
		})
	}
}
