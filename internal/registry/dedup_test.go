package registry

import (
	"testing"
	"time"

	"ulp/internal/kern"
	"ulp/internal/tcp"
)

// Regression: the dedup cache is bounded by DedupCap under connection
// churn. Teardown is a one-way request that still carries an id; before
// handlers completed one-way entries, every connection ever closed left a
// never-finished entry behind, eviction could never reclaim it, and the
// cache grew with history. Both ends here tear down every connection with
// an id, so each registry sees thousands of requests.
func TestDedupBoundedUnderChurn(t *testing.T) {
	rg := newRig(false)
	accept := rg.listenOn(t, 80)
	const conns = 3 * DedupCap
	nextID := uint64(0)
	id := func() uint64 { nextID++; return nextID }
	teardown := func(th *kern.Thread, svc *kern.Port, ho Handoff) {
		svc.Send(th, kern.Msg{Op: "teardown", ID: id(), Body: TeardownReq{
			Local: ho.Snap.Local, Peer: ho.Snap.Peer, Cap: ho.Cap,
		}})
	}
	rg.apps[0].Spawn("server", func(th *kern.Thread) {
		for {
			ho, _ := accept.Receive(th).Body.(Handoff)
			teardown(th, rg.r0.Svc, ho)
		}
	})
	done := 0
	rg.apps[1].Spawn("client", func(th *kern.Thread) {
		for done < conns {
			reply := rg.r1.Svc.Call(th, kern.Msg{Op: "connect", ID: id(),
				Body: ConnectReq{Remote: tcp.Endpoint{IP: rg.ips[0], Port: 80}}})
			ho, _ := reply.Body.(Handoff)
			if ho.Err != nil {
				t.Errorf("connect %d: %v", done, ho.Err)
				return
			}
			teardown(th, rg.r1.Svc, ho)
			done++
		}
	})
	rg.s.RunUntil(time.Hour, func() bool { return done == conns })
	rg.s.Run(time.Second)
	if done != conns {
		t.Fatalf("churn incomplete: %d of %d connections", done, conns)
	}
	for i, r := range []*Server{rg.r0, rg.r1} {
		if got := r.DedupEntries(); got > DedupCap {
			t.Errorf("host %d: dedup cache holds %d entries after %d connections, bound %d",
				i, got, conns, DedupCap)
		}
		if got := r.TransferredConns(); got != 0 {
			t.Errorf("host %d: %d transferred connections not reclaimed", i, got)
		}
		if p, c := r.nif.Mod.PinnedRegions(), r.nif.Mod.LiveCapabilities(nil); p != 0 || c != 0 {
			t.Errorf("host %d: %d pinned regions, %d capabilities", i, p, c)
		}
	}
	if got := rg.r1.PortsInUse(); got != 0 {
		t.Errorf("client host: %d ports still allocated", got)
	}
	if got := rg.r0.PortsInUse(); got != 1 {
		t.Errorf("server host: %d ports allocated, want 1 (the listener)", got)
	}
}
