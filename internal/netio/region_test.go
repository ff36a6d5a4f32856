package netio

import (
	"runtime"
	"testing"
	"time"

	"ulp/internal/kern"
	"ulp/internal/link"
)

// A channel's shared region lives exactly as long as its capability:
// DestroyChannel and RevokeOwner unpin it and drop the module's last
// reference, so once the holder lets go the garbage collector reclaims
// it. Channels are churned through several rounds on both devices and
// both receive paths, with frames still queued at teardown; the pinned
// population must track the live capabilities at every step, and every
// destroyed channel's region must be collected. A module that kept a
// history of wired regions grows with every connection ever opened.
func TestRegionLifetimeFollowsCapability(t *testing.T) {
	for _, tc := range []struct {
		name          string
		an1, zeroCopy bool
	}{
		{"ethernet-copy", false, false},
		{"ethernet-zerocopy", false, true},
		{"an1-copy", true, false},
		{"an1-zerocopy", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := newWorld(t, tc.an1)
			w.m2.ZeroCopyRx = tc.zeroCopy
			audit := func(step string) {
				t.Helper()
				if p, c := w.m2.PinnedRegions(), w.m2.LiveCapabilities(nil); p != c {
					t.Fatalf("%s: %d pinned regions, %d live capabilities", step, p, c)
				}
			}
			const rounds, perRound = 3, 16
			freed := make(chan struct{}, rounds*perRound)
			for round := 0; round < rounds; round++ {
				caps := openChannels(t, w, perRound, freed, audit)
				// Half go through orderly teardown, half through crash
				// reclamation of their owner.
				for i, cap := range caps {
					if i%2 == 0 {
						if err := w.m2.DestroyChannel(w.krn2, cap); err != nil {
							t.Fatal(err)
						}
						audit("destroy")
					} else if err := w.m2.AssignOwner(w.krn2, cap, w.app2); err != nil {
						t.Fatal(err)
					}
				}
				if n, err := w.m2.RevokeOwner(w.krn2, w.app2); err != nil || n != len(caps)/2 {
					t.Fatalf("RevokeOwner = %d, %v; want %d, nil", n, err, len(caps)/2)
				}
				audit("revoke")
				if got := w.m2.LiveCapabilities(nil); got != 0 {
					t.Fatalf("round %d: %d live capabilities after teardown", round, got)
				}
			}
			awaitCollected(t, freed, rounds*perRound)
			// The module stays live across the check: it is the module's
			// own bookkeeping that must not hold dead regions.
			runtime.KeepAlive(w.m2)
		})
	}
}

// openChannels creates n channels on distinct local ports and queues one
// frame on each, so teardown finds work in flight. Each region signals
// freed when it is garbage-collected. It returns the capabilities; nothing
// else the caller keeps points at a channel.
func openChannels(t *testing.T, w *world, n int, freed chan<- struct{}, audit func(string)) []*Capability {
	t.Helper()
	hdrLen := link.EthHeaderLen
	if w.m2.Device().HdrLen() == link.AN1HeaderLen {
		hdrLen = link.AN1HeaderLen
	}
	var caps []*Capability
	var bqis []uint16
	for i := 0; i < n; i++ {
		spec, tmpl := chanSpecAndTemplate(w, hdrLen)
		spec.LocalPort += uint16(i)
		tmpl.LocalPort += uint16(i)
		cap, ch, err := w.m2.CreateChannel(w.krn2, spec, tmpl, 8)
		if err != nil {
			t.Fatal(err)
		}
		audit("create")
		caps = append(caps, cap)
		watchRegion(ch.Region, freed)
		bqis = append(bqis, ch.BQI())
	}
	w.app1.Spawn("sender", func(th *kern.Thread) {
		for i, bqi := range bqis {
			b := buildTCPFrame(w, hdrLen, 1025, 80+uint16(i), []byte("queued"))
			if hdrLen == link.AN1HeaderLen {
				b.Bytes()[12], b.Bytes()[13] = byte(bqi>>8), byte(bqi)
			}
			w.m1.SendKernel(th, b)
		}
	})
	w.s.Run(0)
	for _, cap := range caps {
		if cap.Chan().Pending() != 1 {
			t.Fatalf("channel %d: %d frames queued, want 1", cap.ID(), cap.Chan().Pending())
		}
	}
	return caps
}

// watchRegion signals freed once r is garbage-collected. (Finalizers, not
// package weak: the module targets go 1.22.)
func watchRegion(r *kern.Region, freed chan<- struct{}) {
	runtime.SetFinalizer(r, func(*kern.Region) { freed <- struct{}{} })
}

// awaitCollected collects garbage and waits for n watched regions to be
// freed. Finalizers run on their own goroutine after the collection, so
// it waits on their signals, with a deadline for regions still reachable.
func awaitCollected(t *testing.T, freed <-chan struct{}, n int) {
	t.Helper()
	runtime.GC()
	deadline := time.After(5 * time.Second)
	for i := 0; i < n; i++ {
		select {
		case <-freed:
		case <-deadline:
			t.Fatalf("%d of %d regions survived their capabilities", n-i, n)
		}
	}
}

// Running out of BQIs fails channel creation before anything is wired:
// no capability, no pinned region, and no region memory held for the
// failed endpoint. Freeing one index lets the next creation through.
func TestBQIExhaustionWiresNothing(t *testing.T) {
	w := newWorld(t, true)
	spec, tmpl := chanSpecAndTemplate(w, link.AN1HeaderLen)
	cap, ch, err := w.m2.CreateChannel(w.krn2, spec, tmpl, 8)
	if err != nil {
		t.Fatal(err)
	}
	freed := make(chan struct{}, 1)
	watchRegion(ch.Region, freed)
	ch = nil
	w.m2.nextBQI = 0xFFFF // every other index is in use

	const failures, ringSize = 128, 256
	before := liveHeap()
	for i := 0; i < failures; i++ {
		spec.LocalPort, tmpl.LocalPort = 100+uint16(i), 100+uint16(i)
		if _, _, err := w.m2.CreateChannel(w.krn2, spec, tmpl, ringSize); err != ErrBQIExhausted {
			t.Fatalf("create with no free BQI: err = %v, want ErrBQIExhausted", err)
		}
		if p, c := w.m2.PinnedRegions(), w.m2.LiveCapabilities(nil); p != 1 || c != 1 {
			t.Fatalf("after failed create: %d pinned, %d capabilities; want 1, 1", p, c)
		}
	}
	// Keeping even a descriptor ring per failed attempt would retain
	// failures*ringSize*8 = 256 KiB.
	grown := liveHeap() - before
	t.Logf("%d failed creations: live heap %+d bytes", failures, grown)
	if grown > 64<<10 {
		t.Fatalf("failed creations retained %d bytes", grown)
	}

	if err := w.m2.DestroyChannel(w.krn2, cap); err != nil {
		t.Fatal(err)
	}
	cap = nil
	awaitCollected(t, freed, 1)
	if _, _, err := w.m2.CreateChannel(w.krn2, spec, tmpl, 8); err != nil {
		t.Fatalf("create after a BQI was freed: %v", err)
	}
	if p, c := w.m2.PinnedRegions(), w.m2.LiveCapabilities(nil); p != 1 || c != 1 {
		t.Fatalf("after recovery: %d pinned, %d capabilities; want 1, 1", p, c)
	}
}

// liveHeap returns the bytes of live heap after a full collection.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}
