package stacks

import (
	"runtime"
	"testing"
	"time"

	"ulp/internal/costs"
	"ulp/internal/ipv4"
	"ulp/internal/kern"
	"ulp/internal/pkt"
	"ulp/internal/sim"
	"ulp/internal/tcp"
)

// sockPair is two engine-bracketed sockets joined back to back: segments
// each side transmits queue until pump decodes them into the other engine.
type sockPair struct {
	a, b     *Sock
	toA, toB []*pkt.Buf
}

func newSockPair(s *sim.Sim) *sockPair {
	p := &sockPair{toA: make([]*pkt.Buf, 0, 64), toB: make([]*pkt.Buf, 0, 64)}
	ea := tcp.Endpoint{IP: ipv4.Addr{10, 0, 0, 1}, Port: 1025}
	eb := tcp.Endpoint{IP: ipv4.Addr{10, 0, 0, 2}, Port: 80}
	mk := func(local, peer tcp.Endpoint, out *[]*pkt.Buf) *Sock {
		// Neither Nagle nor delayed ACKs: every write and read completes
		// its exchange in one pump, with no timer ticks.
		cfg := tcp.Config{NoDelay: true, NoDelayedAck: true}
		tc := tcp.NewConn(cfg, local, peer, tcp.Callbacks{})
		sock := NewSock(s, tc)
		sock.Eng = NewEngine(s, "engine")
		tc.SetCallbacks(sock.Callbacks(func(seg Seg) { *out = append(*out, seg.Buf) }))
		return sock
	}
	p.a = mk(ea, eb, &p.toB)
	p.b = mk(eb, ea, &p.toA)
	return p
}

// pump delivers queued segments in both directions until none remain.
func (p *sockPair) pump(t *testing.T, th *kern.Thread) {
	for len(p.toA)+len(p.toB) > 0 {
		for _, d := range []struct {
			q        *[]*pkt.Buf
			to       *Sock
			src, dst ipv4.Addr
		}{{&p.toB, p.b, p.a.TC.Local().IP, p.b.TC.Local().IP},
			{&p.toA, p.a, p.b.TC.Local().IP, p.a.TC.Local().IP}} {
			q := *d.q
			*d.q = q[:0]
			for _, b := range q {
				h, err := tcp.Decode(b, d.src, d.dst)
				if err != nil {
					t.Fatal(err)
				}
				d.to.run(th, func() { d.to.TC.Input(h, b.Bytes()) })
				b.Release()
			}
		}
	}
}

// mallocs reads the process-wide allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// TestSockSteadyStateAllocFree: once a connection is established and its
// buffers are warm, Read, Write and Close through the engine bracket
// allocate nothing — the bracket is a concrete *Engine, so the closure
// each call hands it stays on the caller's stack.
func TestSockSteadyStateAllocFree(t *testing.T) {
	s := sim.New()
	dom := kern.NewHost(s, "h", costs.Default()).NewDomain("app", false)
	p := newSockPair(s)
	var allocs uint64
	measure := func(op func()) {
		before := mallocs()
		op()
		allocs += mallocs() - before
	}
	done := false
	dom.Spawn("app", func(th *kern.Thread) {
		p.b.TC.OpenListen()
		p.a.run(th, func() { p.a.TC.OpenActive(1000) })
		p.pump(t, th)
		if err := p.a.WaitEstablished(th); err != nil {
			t.Error(err)
			return
		}
		msg, buf := make([]byte, 256), make([]byte, 256)
		for i := 0; i < 20; i++ {
			if i == 10 {
				allocs = 0 // warm-up over: pools and buffers are sized
			}
			measure(func() { p.a.Write(th, msg) })
			p.pump(t, th)
			measure(func() { p.b.Read(th, buf) })
			p.pump(t, th)
		}
		measure(func() { p.a.Close(th) })
		p.pump(t, th)
		measure(func() { p.b.Close(th) })
		p.pump(t, th)
		done = true
	})
	s.RunUntil(time.Second, func() bool { return done })
	if !done {
		t.Fatal("socket pair did not finish")
	}
	if allocs != 0 {
		t.Fatalf("steady-state Read/Write/Close allocated %d times, want 0", allocs)
	}
}
