package ulp

// History soak: connection state must grow with live connections, never
// with the number of connections ever opened. These tests churn thousands
// of short connections through the user-level organization, let every
// TIME_WAIT expire, and then require every resource table — capabilities,
// pinned regions, dedup cache, ports, owned and transferred pcbs, pool
// buffers — and the Go heap itself to be back where an equal earlier
// batch left them.

import (
	"runtime"
	"testing"
	"time"

	"ulp/internal/kern"
	"ulp/internal/pkt"
	"ulp/internal/registry"
	"ulp/internal/stacks"
	"ulp/internal/wire"
)

// churnServer listens on host 0 port 80 and closes every accepted
// connection at once, so TIME_WAIT stays on the server.
func churnServer(t *testing.T, w *World, backlog int) {
	srv := w.Node(0).App("server")
	srv.Go("srv", func(th *kern.Thread) {
		l, err := srv.Stack.Listen(th, 80, stacks.Options{Backlog: backlog})
		if err != nil {
			t.Errorf("listen: %v", err)
			return
		}
		for {
			c, err := l.Accept(th)
			if err != nil {
				return
			}
			c.Close(th)
		}
	})
}

// churnBatch runs perApp connection setups from each client application,
// workers concurrent loops per application. A loop connects to host 0,
// reads until the server's close arrives, and closes. The batch fails the
// test unless every setup completes.
func churnBatch(t *testing.T, w *World, clients []*App, perApp, workers int) {
	t.Helper()
	done, failed := 0, 0
	for _, cli := range clients {
		for k := 0; k < workers; k++ {
			quota := perApp / workers
			if k < perApp%workers {
				quota++
			}
			cli := cli
			cli.GoAfter(time.Duration(k)*50*time.Microsecond, "churn", func(th *kern.Thread) {
				buf := make([]byte, 64)
				for i := 0; i < quota; i++ {
					c, err := cli.Stack.Connect(th, w.Endpoint(0, 80), stacks.Options{})
					if err != nil {
						failed++
						done++
						continue
					}
					for {
						if n, err := c.Read(th, buf); err != nil || n == 0 {
							break
						}
					}
					c.Close(th)
					done++
				}
			})
		}
	}
	total := perApp * len(clients)
	w.RunUntil(time.Hour, func() bool { return done == total })
	if done != total || failed != 0 {
		t.Fatalf("churn: %d of %d setups finished, %d failed", done, total, failed)
	}
}

// clientApps creates one client application on every host but host 0.
func clientApps(w *World) []*App {
	var apps []*App
	for h := 1; h < w.Nodes(); h++ {
		apps = append(apps, w.Node(h).App("client"))
	}
	return apps
}

// hostCensus is one host's resource tables at quiescence.
type hostCensus struct {
	caps, pinned, dedup, ports, owned, transferred int
}

// census reads every host's resource tables.
func census(w *World) []hostCensus {
	out := make([]hostCensus, w.Nodes())
	for i := range out {
		n := w.Node(i)
		c := hostCensus{caps: n.Mod.LiveCapabilities(nil), pinned: n.Mod.PinnedRegions()}
		if f := n.Fed; f != nil {
			c.dedup, c.ports, c.owned, c.transferred =
				f.DedupEntries(), f.PortsInUse(), f.OwnedConns(), f.TransferredConns()
		} else {
			r := n.Registry
			c.dedup, c.ports, c.owned, c.transferred =
				r.DedupEntries(), r.PortsInUse(), r.OwnedConns(), r.TransferredConns()
		}
		out[i] = c
	}
	return out
}

// quiesce runs the world past TIME_WAIT (2MSL = 60 s) with margin.
func quiesce(w *World) { w.Run(2 * time.Minute) }

// Past DedupCap setups per client registry, every request still
// completes exactly once. Connect replies here routinely outlive the
// library's first RPC deadline, so retries of completed connects are
// common; with one-way teardowns never completing, eviction used to drop
// a connect's entry the moment it finished, the retry re-ran the
// connect, and the duplicate connection leaked its port, pcb, channel and
// buffers.
func TestChurnPastDedupCapLeavesNoLeaks(t *testing.T) {
	trackPoolLeaks(t)
	const clientHosts, workers, perHost = 4, 16, 640
	w := NewWorld(Config{Org: OrgUserLib, Net: AN1, Hosts: clientHosts + 1})
	churnServer(t, w, clientHosts*workers)
	churnBatch(t, w, clientApps(w), perHost, workers)
	quiesce(w)
	retried := 0
	for i, c := range census(w) {
		retried += w.Node(i).Registry.DedupHits()
		want := hostCensus{dedup: c.dedup}
		if i == 0 {
			want.ports = 1 // the listener
		}
		if c != want || c.dedup > registry.DedupCap {
			t.Errorf("host %d at quiescence: %+v, want %+v with dedup <= %d", i, c, want, registry.DedupCap)
		}
	}
	if retried == 0 {
		t.Error("no connect was retried: the churn does not reach the dedup path it guards")
	}
	assertNoPoolLeaks(t)
}

// Churn N connections, quiesce, read the census; churn N more, quiesce,
// read it again. The two readings must be identical, and the Go heap
// must not grow with the second batch: a table keyed by connection that
// is never pruned shows up as a census change or as heap per connection.
// Run in the classic configuration and with every opt-in mode on.
func TestHistorySoakCensusStable(t *testing.T) {
	// perHost is sized so that every registry's dedup cache (every
	// shard's, in the fleet) is full after the first batch: each setup
	// costs a client registry a connect and a teardown request.
	for _, tc := range []struct {
		name    string
		cfg     Config
		perHost int
	}{
		{"classic", Config{Org: OrgUserLib, Net: AN1, Hosts: 3}, 400},
		{"fleet", Config{Org: OrgUserLib, Net: AN1, Hosts: 3,
			Switch:     &wire.SwitchConfig{Latency: time.Microsecond},
			TimerWheel: true, EphemeralLo: 1024, EphemeralHi: 60000,
			RegistryShards: 4, ZeroCopyRx: true}, 1200},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const workers = 8
			perHost := tc.perHost
			w := NewWorld(tc.cfg)
			clients := clientApps(w)
			churnServer(t, w, len(clients)*workers)
			outstanding := func() int64 {
				c := pkt.Counters()
				return c.Gets - c.Puts
			}

			churnBatch(t, w, clients, perHost, workers)
			quiesce(w)
			first, bufs, heap := census(w), outstanding(), liveHeap()

			churnBatch(t, w, clients, perHost, workers)
			quiesce(w)
			second, bufs2, heap2 := census(w), outstanding(), liveHeap()

			for i := range first {
				if first[i] != second[i] {
					t.Errorf("host %d census changed with history:\n first  %+v\n second %+v", i, first[i], second[i])
				}
			}
			if bufs2 != bufs {
				t.Errorf("pool buffers outstanding: %d after the first batch, %d after the second", bufs, bufs2)
			}
			conns := int64(perHost * len(clients))
			grown := heap2 - heap
			t.Logf("second batch: %d connections, live heap %+d bytes", conns, grown)
			if grown > conns*1024 {
				t.Errorf("live heap grew %d bytes over %d connections (%d per connection, bound 1024)",
					grown, conns, grown/conns)
			}
			runtime.KeepAlive(w)
		})
	}
}

// liveHeap returns the bytes of live Go heap after a full collection.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}
