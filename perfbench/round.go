package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"ulp"
	"ulp/internal/kern"
	"ulp/internal/pkt"
	"ulp/internal/stacks"
)

// inputs is everything the workload seed decides: the payload pattern and
// each client loop's start offset. The program sees only these.
type inputs struct {
	pat     []byte
	offsets []time.Duration
}

const (
	patPeriod   = 65521 // prime, so block contents never repeat in step with 4 KiB
	startSpread = 2 * time.Millisecond
	// After the last connection closes the audit waits out TIME_WAIT
	// (2MSL = 60 s), then up to maxQuiesceSteps more steps for the tables
	// to return to baseline.
	twoMSL          = 60 * time.Second
	quiesceStep     = 5 * time.Second
	maxQuiesceSteps = 60
	budget          = time.Hour // virtual-time guard on every wait; never reached
)

func newInputs(seed uint64, loops int) inputs {
	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	in := inputs{pat: make([]byte, patPeriod+blockSize), offsets: make([]time.Duration, loops)}
	for i := 0; i < patPeriod; i++ {
		in.pat[i] = byte(rng.Uint32())
	}
	copy(in.pat[patPeriod:], in.pat)
	for i := range in.offsets {
		in.offsets[i] = time.Duration(rng.Int64N(int64(startSpread)))
	}
	return in
}

// span is one Connect/Write/Read/Close call made by a workload thread.
type span struct {
	name       string
	op, parent int64
	v0, v1     time.Duration // virtual start and end
	w0, w1     time.Duration // wall start and end, from the run's origin
}

// round is one world built, warmed, timed, drained, audited and torn down.
type round struct {
	wl  *workload
	w   *ulp.World
	in  inputs
	srv *ulp.App

	traced bool
	origin time.Time // wall origin of span times
	spans  []span
	conns  []stacks.Conn // every connection, for the tcp counters (traced only)

	// corrupt is a test hook: the op verified as number corrupt (counting
	// from 1) has its received bytes flipped before the check.
	corrupt int

	listening         bool
	timing, stop      bool
	running           int // client loops not yet finished
	serving           int // server connection threads not yet finished
	loopOps           []int
	ops               int64 // op ids handed out
	want, counted     int
	vStart, vEnd      time.Duration
	lat, setupLat     []time.Duration
	payload           int64
	verified          int // ops checked, the corrupt hook's counter
	attempted, failed int
	errs              []string

	// bulk bookkeeping, per flow: write entry time and op id of every
	// block, and blocks accepted by Write.
	sentAt  [][]time.Duration
	sentOp  [][]int64
	written []int
}

func (r *round) nextOp() int64 { r.ops++; return r.ops }

// done records a verified op. It reports whether the op was one of the
// timed ones.
func (r *round) done(loop int, lat time.Duration, payload int) bool {
	r.attempted++
	r.loopOps[loop]++
	if !r.timing || r.counted >= r.want {
		return false
	}
	r.lat = append(r.lat, lat)
	r.payload += int64(payload)
	r.counted++
	if r.counted == r.want {
		r.vEnd = r.w.Now()
	}
	return true
}

func (r *round) fail(loop int, format string, args ...any) {
	r.attempted++
	r.failed++
	r.loopOps[loop]++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

func (r *round) corrupted() bool {
	r.verified++
	return r.verified == r.corrupt
}

func (r *round) fill(dst []byte, key uint64) {
	off := int(key % patPeriod)
	copy(dst, r.in.pat[off:off+len(dst)])
}

// fillBlock writes bulk block k of flow: its flow and number, then pattern.
func (r *round) fillBlock(dst []byte, flow, k int) {
	binary.BigEndian.PutUint32(dst, uint32(flow))
	binary.BigEndian.PutUint32(dst[4:], uint32(k))
	r.fill(dst[hdrSize:], uint64(flow)*1_000_003+uint64(k)*4099)
}

// fillMsg writes a request: the op id, then pattern.
func (r *round) fillMsg(dst []byte, op int64) {
	binary.BigEndian.PutUint64(dst, uint64(op))
	r.fill(dst[hdrSize:], uint64(op)*8191)
}

// fillResponse writes the 4 KiB content a fleet server owes op.
func (r *round) fillResponse(dst []byte, op int64) {
	r.fill(dst, uint64(op)*7919+12345)
}

// begin and end bracket a call into the stack; a traced round keeps a span.
func (r *round) begin() (time.Duration, time.Duration) {
	if !r.traced {
		return 0, 0
	}
	return r.w.Now(), time.Since(r.origin)
}

func (r *round) end(name string, op, parent int64, v0, w0 time.Duration) {
	if r.traced {
		r.spans = append(r.spans, span{name, op, parent, v0, r.w.Now(), w0, time.Since(r.origin)})
	}
}

func (r *round) connect(t *kern.Thread, app *ulp.App, op int64) (stacks.Conn, error) {
	v0, w0 := r.begin()
	c, err := app.Stack.Connect(t, r.w.Endpoint(0, 80), stacks.Options{})
	r.end("connect", op, 0, v0, w0)
	if err == nil && r.traced {
		r.conns = append(r.conns, c)
	}
	return c, err
}

func (r *round) write(t *kern.Thread, c stacks.Conn, p []byte, op, parent int64) error {
	v0, w0 := r.begin()
	_, err := c.Write(t, p)
	r.end("write", op, parent, v0, w0)
	return err
}

func (r *round) read(t *kern.Thread, c stacks.Conn, p []byte, op, parent int64) (int, error) {
	v0, w0 := r.begin()
	n, err := c.Read(t, p)
	r.end("read", op, parent, v0, w0)
	return n, err
}

func (r *round) close(t *kern.Thread, c stacks.Conn, op, parent int64) {
	v0, w0 := r.begin()
	_ = c.Close(t) // an orderly-release error leaves nothing to do; the audit sees leaks
	r.end("close", op, parent, v0, w0)
}

var errEOF = errors.New("end of stream inside a message")

// readFull reads exactly len(p) bytes.
func (r *round) readFull(t *kern.Thread, c stacks.Conn, p []byte, op, parent int64) error {
	for got := 0; got < len(p); {
		n, err := r.read(t, c, p[got:], op, parent)
		if err != nil {
			return err
		}
		if n == 0 {
			return errEOF
		}
		got += n
	}
	return nil
}

// readToEOF reads until end of stream and returns the byte count; bytes
// beyond len(p) are counted, not kept.
func (r *round) readToEOF(t *kern.Thread, c stacks.Conn, p []byte, op int64) (int, error) {
	got := 0
	var spill [512]byte
	for {
		dst := spill[:]
		if got < len(p) {
			dst = p[got:]
		}
		n, err := r.read(t, c, dst, op, 0)
		if err != nil || n == 0 {
			return got, err
		}
		got += n
	}
}

// census is one host's share of the state that must return to its
// baseline once every connection is gone.
type census struct {
	ports, owned, transferred, caps, pinned int
}

func takeCensus(w *ulp.World) []census {
	out := make([]census, w.Nodes())
	for i := range out {
		n := w.Node(i)
		c := &out[i]
		switch {
		case n.Fed != nil:
			c.ports, c.owned, c.transferred = n.Fed.PortsInUse(), n.Fed.OwnedConns(), n.Fed.TransferredConns()
		case n.Registry != nil:
			c.ports, c.owned, c.transferred = n.Registry.PortsInUse(), n.Registry.OwnedConns(), n.Registry.TransferredConns()
		}
		c.caps, c.pinned = n.Mod.LiveCapabilities(nil), n.Mod.PinnedRegions()
	}
	return out
}

func sameCensus(a, b []census) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func pktOutstanding() int64 {
	c := pkt.Counters()
	return c.Gets - c.Puts
}

// roundResult is what one round measured.
type roundResult struct {
	setup, wall   time.Duration // wall clock: build to end of warm-up; timed phase
	calib         time.Duration // calibration just before plus just after the timed phase
	heapLive      int64         // Go heap bytes live after the timed phase, less those before the world was built
	heapLiveEnd   int64         // the same at quiescence, every connection gone
	vspan         time.Duration // virtual duration of the timed phase
	ops           int
	cpuBusy       time.Duration // modeled CPU busy summed over hosts, timed phase
	lat, setupLat latSummary
	payload       int64
	events        int64 // engine events fired in the timed phase
	cpuPerWall    float64
	attempted     int
	failed        int
	errs          []string
	layer         *layerSample // traced rounds only
}

// runRound builds the workload's world and drives it through one round.
// wantOps scales the timed phase (0 = the workload's size). A traced round
// also profiles the timed phase and collects the per-layer counters.
func runRound(wl *workload, in inputs, wantOps int, traced bool, origin time.Time, corrupt int) (*roundResult, []span, error) {
	if wantOps == 0 {
		wantOps = wl.ops
	}
	loops := wl.clientHosts * wl.loopsPerHost
	r := &round{wl: wl, in: in, traced: traced, origin: origin, corrupt: corrupt,
		want: wantOps, loopOps: make([]int, loops),
		sentAt: make([][]time.Duration, loops), sentOp: make([][]int64, loops), written: make([]int, loops)}
	// The round's own bookkeeping is allocated before the heap baseline, so
	// heapLive counts the program's memory only.
	r.lat = make([]time.Duration, 0, wantOps)
	r.setupLat = make([]time.Duration, 0, wantOps)
	for i := range r.sentAt { // bulk's per-block records, room for uneven flows
		r.sentAt[i] = make([]time.Duration, 0, 2*(wantOps/loops+wl.warm))
		r.sentOp[i] = make([]int64, 0, cap(r.sentAt[i]))
	}
	// Every round starts from the same memory state: the last world freed
	// and its pages returned to the OS, as in a fresh process. Otherwise
	// the runtime's background scavenger decides how much of the round
	// pays page faults.
	debug.FreeOSMemory()
	heap0 := liveHeap()
	wall0 := time.Now()
	pkt0 := pktOutstanding()
	w := ulp.NewWorld(wl.cfg)
	r.w = w
	apps := []*ulp.App{w.Node(0).App("server")}
	r.srv = apps[0]
	r.srv.Go("accept", func(t *kern.Thread) {
		l, err := r.srv.Stack.Listen(t, 80, stacks.Options{Backlog: loops})
		if err != nil {
			r.fail(0, "listen: %v", err)
			return
		}
		r.listening = true
		for {
			c, err := l.Accept(t)
			if err != nil {
				r.fail(0, "accept: %v", err)
				return
			}
			if r.traced {
				r.conns = append(r.conns, c)
			}
			wl.serve(r, t, c)
		}
	})
	w.RunUntil(budget, func() bool { return r.listening })
	if !r.listening {
		return nil, nil, fmt.Errorf("%s: server never listened: %v", wl.name, r.errs)
	}
	base := takeCensus(w)
	for h := 1; h <= wl.clientHosts; h++ {
		app := w.Node(h).App("client")
		apps = append(apps, app)
		for j := 0; j < wl.loopsPerHost; j++ {
			loop := (h-1)*wl.loopsPerHost + j
			r.running++
			app.GoAfter(in.offsets[loop], "loop", func(t *kern.Thread) {
				wl.client(r, t, app, loop)
				r.running--
			})
		}
	}
	warmed := func() bool {
		for _, n := range r.loopOps {
			if n < wl.warm {
				return false
			}
		}
		return true
	}
	w.RunUntil(budget, warmed)
	if !warmed() {
		return nil, nil, fmt.Errorf("%s: warm-up stalled: %v", wl.name, r.errs)
	}

	res := &roundResult{setup: time.Since(wall0), ops: wantOps}
	runtime.GC()
	calib0 := calibrate()
	var lay *layerProbe
	if traced {
		lay = startLayerProbe(r)
	}
	busy0 := cpuBusy(w)
	fired0, _, _ := w.Sim.Counters()
	cpu0 := processCPU()
	r.timing, r.vStart = true, w.Now()
	wallT := time.Now()
	w.RunUntil(budget, func() bool { return r.counted >= r.want })
	res.wall = time.Since(wallT)
	res.cpuPerWall = (processCPU() - cpu0).Seconds() / res.wall.Seconds()
	if r.counted < r.want {
		return nil, nil, fmt.Errorf("%s: timed phase stalled at %d/%d ops: %v", wl.name, r.counted, r.want, r.errs)
	}
	fired1, _, _ := w.Sim.Counters()
	res.events = fired1 - fired0
	res.cpuBusy = cpuBusy(w) - busy0
	res.vspan = r.vEnd - r.vStart
	if lay != nil {
		lay.stopTimed(r)
	}
	// The live heap at the end of the timed phase, world still live: the
	// state the program holds for its connections (and, where it leaks,
	// for its history).
	res.heapLive = liveHeap() - heap0
	res.calib = calib0 + calibrate()

	// Drain: loops finish their op in flight and close; sinks read to EOF.
	r.stop = true
	w.RunUntil(budget, func() bool { return r.running == 0 && r.serving == 0 })
	if r.running != 0 || r.serving != 0 {
		r.fail(0, "drain: %d client loops and %d server threads never finished", r.running, r.serving)
	}
	// Quiesce: 2MSL first, then on until every table is back at baseline
	// (a saturated server CPU can still be working off its queue).
	w.Run(twoMSL)
	end := takeCensus(w)
	for i := 0; i < maxQuiesceSteps && !sameCensus(end, base); i++ {
		w.Run(quiesceStep)
		end = takeCensus(w)
	}
	for i := range base {
		if end[i] != base[i] {
			r.fail(0, "audit: host %d %+v at quiescence, %+v at baseline", i, end[i], base[i])
		}
	}
	res.heapLiveEnd = liveHeap() - heap0
	var err error
	leaked := pktOutstanding() - pkt0
	if leaked != 0 {
		r.fail(0, "audit: %d packet buffers outstanding at quiescence", leaked)
	}
	if lay != nil {
		if res.layer, err = lay.finish(r, end, leaked); err != nil {
			return nil, nil, err
		}
	}
	teardown(w, apps)

	res.lat, res.setupLat, res.payload = summarize(r.lat), summarize(r.setupLat), r.payload
	res.attempted, res.failed, res.errs = r.attempted, r.failed, r.errs
	return res, r.spans, nil
}

// teardown kills every domain so no simulated thread outlives its round:
// a parked thread would pin the whole world in memory.
func teardown(w *ulp.World, apps []*ulp.App) {
	for _, a := range apps {
		a.Crash()
	}
	for i := 0; i < w.Nodes(); i++ {
		n := w.Node(i)
		if n.Registry != nil {
			n.Registry.Crash()
		}
		if n.Fed != nil {
			for s := 0; s < n.Fed.Shards(); s++ {
				n.Fed.CrashShard(s)
			}
		}
	}
	w.RunUntil(time.Second, func() bool { return w.Sim.Procs() == 0 })
	if n := w.Sim.Procs(); n != 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d simulated threads outlived their round\n", n)
	}
}

// liveHeap is the Go heap in use after two collections; the second
// empties what sync.Pools kept through the first, which would otherwise
// depend on GC timing.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

func cpuBusy(w *ulp.World) time.Duration {
	var d time.Duration
	for i := 0; i < w.Nodes(); i++ {
		d += time.Duration(w.Node(i).Host.CPU.Busy())
	}
	return d
}

// latSummary is what the reports need of one round's latency samples; a
// run keeps it instead of every sample of every round, so the benchmark's
// own memory does not grow with the run.
type latSummary struct {
	n              int
	mean           time.Duration
	tail           time.Duration // mean of the slowest 1% (at least 10 samples)
	p50, p99, p999 quantile
}

type quantile struct {
	v time.Duration
	q float64 // the quantile actually reported, see pct
}

func summarize(d []time.Duration) latSummary {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	s := latSummary{n: len(d)}
	for _, x := range d {
		s.mean += x
	}
	s.mean /= time.Duration(max(len(d), 1))
	if k := min(max((len(d)+99)/100, 10), len(d)); k > 0 {
		for _, x := range d[len(d)-k:] {
			s.tail += x
		}
		s.tail /= time.Duration(k)
	}
	for _, e := range []struct {
		dst *quantile
		q   float64
	}{{&s.p50, 0.50}, {&s.p99, 0.99}, {&s.p999, 0.999}} {
		e.dst.v, e.dst.q = pct(d, e.q)
	}
	return s
}
