package main

import (
	"io"
	"math"
	"testing"
	"time"
)

// tinyOps keeps every workload's timed phase small enough for a unit test;
// warm-up, drain, quiescence and the leak audit still run in full.
const tinyOps = 40

func TestWorkloadsVerify(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			res, err := run(wl, opts{seed: 7, rounds: 1, ops: tinyOps})
			if err != nil {
				t.Fatal(err)
			}
			if !res.correct() || res.attempted < tinyOps {
				t.Fatalf("attempted %d, failed %d: %v", res.attempted, res.failed, res.errs)
			}
			names, ms := res.endToEnd()
			for _, n := range names {
				if v := ms[n].Value; !(v > 0) || math.IsInf(v, 0) {
					t.Errorf("%s = %v, want a positive number", n, v)
				}
			}
		})
	}
}

// TestCheckerRejectsCorruption flips the received bytes of one op per
// round and requires the workload's own check to count it as failed.
func TestCheckerRejectsCorruption(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			res, err := run(wl, opts{seed: 7, rounds: 1, ops: tinyOps, corrupt: 3})
			if err != nil {
				t.Fatal(err)
			}
			if res.correct() || res.failed != 2 { // one per round: warm-up and timed
				t.Fatalf("corrupted run: correct=%v failed=%d, want 2 failures", res.correct(), res.failed)
			}
		})
	}
}

func TestTracedRunSharesSumTo100(t *testing.T) {
	res, err := run(workloadByName("rpc"), opts{seed: 7, rounds: 2, ops: 2000, traced: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.traced) == 0 || len(res.plain) == 0 {
		t.Fatalf("%d traced and %d untraced rounds, want both", len(res.traced), len(res.plain))
	}
	ms := res.printLayers(io.Discard)
	sum := 0.0
	for _, l := range layerNames {
		sum += ms[l+".wall_share"].Value
	}
	if ms["bench.profile_samples"].Value == 0 || math.Abs(sum-100) > 1e-9 {
		t.Fatalf("wall shares sum to %v over %v samples", sum, ms["bench.profile_samples"].Value)
	}
}

func TestPctKeepsTenSamplesBeyond(t *testing.T) {
	s := make([]time.Duration, 1000)
	for i := range s {
		s[i] = time.Duration(i + 1)
	}
	if v, q := pct(s, 0.5); v != 500 || q != 0.5 {
		t.Errorf("p50 = %v (q %v), want 500", v, q)
	}
	if v, q := pct(s, 0.99); v != 990 || q != 0.99 {
		t.Errorf("p99 = %v (q %v), want 990", v, q)
	}
	// p99.9 of 1000 samples has one beyond it: report p99 instead.
	if v, q := pct(s, 0.999); v != 990 || q != 0.99 {
		t.Errorf("p99.9 = %v (q %v), want 990 at q 0.99", v, q)
	}
	// The tail is the mean of the slowest 1%, here the top 10.
	if sum := summarize(s); sum.tail != 995 || sum.mean != 500 || sum.n != 1000 {
		t.Errorf("summary %+v, want tail 995, mean 500, n 1000", sum)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"ulp/internal/sim.(*Sim).fire":                          "sim",
		"ulp/internal/registry.(*Server).track":                 "registry",
		"ulp/internal/ipv4.Parse":                               "other",
		"ulp.(*World).Run":                                      "other",
		"main.runRound.func1":                                   "bench",
		"runtime.mallocgc":                                      "",
		"sync.(*Mutex).Lock":                                    "",
		"ulp/internal/netio.lookup[go.shape.*ulp/internal/x.T]": "netio",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
