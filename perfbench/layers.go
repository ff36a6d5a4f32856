package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"syscall"
	"time"

	"ulp/internal/stats"
)

// layerSample is one traced round's per-layer numbers: named metrics and
// CPU-profile samples per layer.
type layerSample struct {
	metrics map[string]float64
	samples map[string]int
}

// layerProbe brackets a traced round's timed phase: counter snapshots, the
// Go runtime's own counters and a CPU profile.
type layerProbe struct {
	reg     *stats.Registry
	snap0   map[string]int64
	busy0   []time.Duration
	rt0     []metrics.Sample
	prof    bytes.Buffer
	profErr error
	out     *layerSample
}

const profileHz = 500

var runtimeMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeMetrics))
	for i, name := range runtimeMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	return s
}

func rtValue(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	case metrics.KindFloat64:
		return s.Value.Float64()
	}
	return math.NaN()
}

func hostBusy(r *round) []time.Duration {
	out := make([]time.Duration, r.w.Nodes())
	for i := range out {
		out[i] = time.Duration(r.w.Node(i).Host.CPU.Busy())
	}
	return out
}

func startLayerProbe(r *round) *layerProbe {
	p := &layerProbe{reg: r.w.StatsRegistry(), out: &layerSample{metrics: map[string]float64{}}}
	p.snap0 = p.reg.Snapshot()
	p.busy0 = hostBusy(r)
	p.rt0 = readRuntime()
	// pprof's default 100 Hz gives too few samples per round for a share
	// table; the rate set first wins, at the cost of a runtime warning.
	runtime.SetCPUProfileRate(profileHz)
	p.profErr = pprof.StartCPUProfile(&p.prof)
	return p
}

// stopTimed ends the profile at the last timed op and derives every
// counter that covers the timed phase.
func (p *layerProbe) stopTimed(r *round) {
	if p.profErr == nil {
		pprof.StopCPUProfile()
	}
	rt1 := readRuntime()
	snap1 := p.reg.Snapshot()
	busy1 := hostBusy(r)
	m := p.out.metrics
	ops := float64(r.want)
	span := (r.vEnd - r.vStart).Seconds()
	delta := func(key string) float64 { return float64(snap1[key] - p.snap0[key]) }
	// hosts sums a per-host counter's change over every host.
	hosts := func(ns, name string) float64 {
		sum := 0.0
		for i := 0; i < r.w.Nodes(); i++ {
			sum += delta(fmt.Sprintf("%s.h%d.%s", ns, i, name))
		}
		return sum
	}
	end := func(key string) float64 { return float64(snap1[key]) }

	events := delta("sim.events_fired")
	m["sim.events_per_op"] = events / ops
	m["sim.max_heap"] = end("sim.max_heap")

	util := func(i int) float64 { return (busy1[i] - p.busy0[i]).Seconds() / span }
	m["kern.cpu_util.server"] = util(0)
	for i := 1; i < len(busy1); i++ {
		m["kern.cpu_util.client_max"] = math.Max(m["kern.cpu_util.client_max"], util(i))
	}

	frames, wireBytes := delta("wire.frames_sent"), delta("wire.bytes_sent")
	cfg := r.w.Seg.Config()
	m["wire.frames_per_op"] = frames / ops
	m["wire.bytes_per_op"] = wireBytes / ops
	m["wire.link_util"] = (wireBytes + frames*float64(cfg.FrameOverhead)) * 8 / float64(cfg.BitsPerSec) / span
	m["wire.frames_dropped"] = delta("wire.frames_dropped")

	m["netdev.rx_frames_per_op"] = hosts("netdev", "rx_frames") / ops
	m["netdev.rx_dropped"] = hosts("netdev", "rx_dropped")

	if d := hosts("netio", "delivered"); d > 0 {
		m["netio.notifications_per_delivered"] = hosts("netio", "notifications") / d
	}
	m["netio.copied_bytes_per_op"] = hosts("netio", "copied_bytes") / ops
	m["netio.referenced_bytes_per_op"] = hosts("netio", "referenced_bytes") / ops
	for i := 0; i < r.w.Nodes(); i++ {
		m["netio.ring_high_water"] = math.Max(m["netio.ring_high_water"], end(fmt.Sprintf("netio.h%d.ring_high_water", i)))
	}
	m["netio.demux_default_per_op"] = hosts("netio", "demux_default") / ops
	m["netio.rx_dropped"] = hosts("netio", "rx_dropped")
	m["netio.send_rejected"] = hosts("netio", "send_rejected")

	m["registry.dedup_hits"] = hosts("registry", "dedup_hits")
	m["registry.admission_denied"] = hosts("registry", "admission_denied")
	syn := hosts("registry", "syn_dropped")
	for s := 0; s < r.wl.cfg.RegistryShards; s++ {
		syn += hosts("registry", fmt.Sprintf("shard%d.syn_dropped", s))
	}
	m["registry.syn_dropped"] = syn

	m["pkt.gets_per_op"] = delta("pkt.gets") / ops
	m["pkt.heap_allocs"] = delta("pkt.heap_allocs")
	m["checksum.bytes_per_op"] = delta("checksum.bytes_summed") / ops

	rt := func(i int) float64 { return rtValue(rt1[i]) - rtValue(p.rt0[i]) }
	m["go.alloc_bytes_per_op"] = rt(0) / ops
	m["go.mallocs_per_op"] = rt(1) / ops
	m["go.gc_cycles"] = rt(2)
	if total := rt(4); total > 0 {
		m["go.gc_cpu_share"] = rt(3) / total
	}

	var write, read time.Duration
	calls := 0
	for _, s := range r.spans {
		if s.v0 < r.vStart || s.v1 > r.vEnd {
			continue
		}
		calls++
		switch s.name {
		case "write":
			write += s.v1 - s.v0
		case "read":
			read += s.v1 - s.v0
		}
	}
	m["core.write_block_vus_per_op"] = float64(write.Microseconds()) / ops
	m["core.read_block_vus_per_op"] = float64(read.Microseconds()) / ops
	m["core.calls_per_op"] = float64(calls) / ops
}

// finish adds what is read at quiescence: control-plane tables, packet
// buffers and every connection's tcp counters.
func (p *layerProbe) finish(r *round, end []census, leaked int64) (*layerSample, error) {
	m := p.out.metrics
	for _, c := range end {
		m["registry.ports_in_use_end"] += float64(c.ports)
		m["registry.owned_conns_end"] += float64(c.owned)
		m["registry.transferred_end"] += float64(c.transferred)
	}
	m["pkt.outstanding_end"] = float64(leaked)

	var segs, acks, delayed, rexmits, timerOps float64
	for _, c := range r.conns {
		st := c.Stats()
		segs += float64(st.SegsSent)
		acks += float64(st.AcksSent)
		delayed += float64(st.DelayedAcks)
		rexmits += float64(st.Rexmits)
		timerOps += float64(st.TimerOps)
	}
	ops := float64(r.attempted)
	m["tcp.segs_per_op"] = segs / ops
	if data := segs - acks; data > 0 {
		m["tcp.acks_per_data_seg"] = acks / data
	}
	m["tcp.delayed_acks_per_op"] = delayed / ops
	m["tcp.rexmits"] = rexmits
	m["tcp.timer_ops_per_op"] = timerOps / ops

	if p.profErr != nil {
		return nil, fmt.Errorf("cpu profile: %w", p.profErr)
	}
	s, err := layerSamples(p.prof.Bytes())
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p.out.samples = s
	return p.out, nil
}

// processCPU is the process's user plus system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's maximum resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
