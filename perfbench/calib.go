package main

import (
	"sort"
	"time"
)

// The machine this benchmark runs on changes speed by ±20% over tens of
// seconds (other tenants, frequency), far more than the bounds a wall
// metric needs. So every timed phase is bracketed by a calibration: a
// fixed piece of work with the simulator's character — map updates, a
// sort, a cache-missing memory walk and goroutine handoffs over unbuffered
// channels — that runs none of the program's code. wall_rel, the timed
// phase's wall time over the calibration's, cancels the machine's drift;
// wall_s stays the raw reading. setup_s is calibrated the same way but kept
// in seconds: a round's setup time times calibRef over the round's
// calibration, the setup time the reference machine would have read.

const calibN = 1 << 15

// calibRef is the calibration's time, before plus after a timed phase, on
// the reference machine: a 2-vCPU Intel Xeon (2.10 GHz), go1.24.
const calibRef = 70 * time.Millisecond

var (
	calibWalk = newCalibWalk() // built before any round, so no round's heap counts it
	calibSink int
)

// newCalibWalk returns a single-cycle permutation of 1<<20 slots: Sattolo's
// shuffle with a fixed LCG.
func newCalibWalk() []uint32 {
	walk := make([]uint32, 1<<20)
	for i := range walk {
		walk[i] = uint32(i)
	}
	x := uint32(12345)
	for i := len(walk) - 1; i > 0; i-- {
		x = x*1664525 + 1013904223
		j := int(x % uint32(i))
		walk[i], walk[j] = walk[j], walk[i]
	}
	return walk
}

// calibrate times the calibration work. Callers collect garbage first, so
// no collection the program started runs inside it.
func calibrate() time.Duration {
	t0 := time.Now()
	m := make(map[int]int)
	for i := 0; i < calibN; i++ {
		m[i*7919%100003] = i
	}
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	p := uint32(0)
	for i := 0; i < 4*calibN; i++ {
		p = calibWalk[p]
	}
	ping, pong := make(chan int), make(chan int)
	go func() {
		for v := range ping {
			pong <- v + 1
		}
		close(pong)
	}()
	v := 0
	for i := 0; i < calibN; i++ {
		ping <- v
		v = <-pong
	}
	close(ping)
	<-pong
	calibSink = v + keys[0] + int(p)
	return time.Since(t0)
}
