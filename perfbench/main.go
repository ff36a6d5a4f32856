// Command perfbench is the repository's benchmark. It drives closed-loop
// workloads through the public API (ulp.NewWorld, stacks.Stack, Listener,
// Conn), checks every operation's output, audits the control-plane and
// buffer tables for leaks, and reports end-to-end metrics in two clocks:
// virtual (the modeled 1993 system) and wall (the simulator process). A
// traced run reports per-layer metrics instead. See README.md.
//
//	bash perfbench/run.sh --workload rpc --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --all --seconds 20
//	bash perfbench/run.sh --probe
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: bulk, rpc, churn or fleet")
		seed    = flag.Uint64("seed", 1, "workload seed: payload bytes and client start offsets")
		seconds = flag.Float64("seconds", 20, "wall seconds to keep starting rounds")
		trace   = flag.Int("trace", 0, "1 = traced run: per-layer metrics instead of end-to-end ones")
		out     = flag.String("out", "", "directory for span files (empty = keep spans in memory only)")
		rounds  = flag.Int("rounds", 0, "run exactly this many rounds (0 = as many as --seconds allows)")
		all     = flag.Bool("all", false, "run every workload, each in its own process")
		probe   = flag.Bool("probe", false, "determinism probe: run every workload twice per seed and compare virtual metrics")
	)
	flag.Parse()
	switch {
	case *all:
		os.Exit(runAll(*seed, *seconds, *trace, *out))
	case *probe:
		os.Exit(runProbe(*seed))
	}
	wl := workloadByName(*name)
	if wl == nil || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload bulk|rpc|churn|fleet, --trace 0|1 and --seconds > 0\n")
		os.Exit(2)
	}
	res, err := run(wl, opts{seed: *seed, seconds: *seconds, traced: *trace == 1, rounds: *rounds, out: *out})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	res.print(os.Stdout)
	if !res.correct() {
		os.Exit(1)
	}
}

type opts struct {
	seed    uint64
	seconds float64
	traced  bool
	rounds  int
	out     string
	ops     int // test hook: timed ops per round (0 = the workload's size)
	corrupt int // test hook, see round.corrupt
}

// result is one run: every round, untraced and traced.
type result struct {
	wl        *workload
	o         opts
	plain     []*roundResult
	traced    []*roundResult
	rssMiB    float64
	attempted int
	failed    int
	errs      []string
}

func (r *result) correct() bool { return r.failed == 0 }

// run drives rounds until the time is spent. An untraced run uses every
// round for the end-to-end metrics; a traced run alternates untraced and
// traced rounds, so it can report the tracing overhead and check that
// tracing does not change virtual results.
func run(wl *workload, o opts) (*result, error) {
	in := newInputs(o.seed, wl.clientHosts*wl.loopsPerHost)
	origin := time.Now()
	res := &result{wl: wl, o: o}
	var spans *spanFile
	if o.traced && o.out != "" {
		var err error
		if spans, err = createSpanFile(filepath.Join(o.out, "spans", fmt.Sprintf("%s-seed%d.tsv", wl.name, o.seed))); err != nil {
			return nil, err
		}
		defer spans.f.Close() // the success path closes it and checks the error
	}
	// Round 0 warms the process (heap pages, caches) and is verified and
	// audited like every other, but enters no median.
	for i := 0; ; i++ {
		enough := o.rounds > 0 && i > o.rounds || o.rounds == 0 && i > 2 && time.Since(origin).Seconds() >= o.seconds
		if enough && (!o.traced || len(res.traced) > 0) {
			break
		}
		traced := o.traced && i%2 == 0 && i > 0
		rr, sp, err := runRound(wl, in, o.ops, traced, origin, o.corrupt)
		if err != nil {
			return nil, err
		}
		res.attempted += rr.attempted
		res.failed += rr.failed
		res.errs = append(res.errs, rr.errs...)
		switch {
		case i == 0:
		case traced:
			res.traced = append(res.traced, rr)
		default:
			res.plain = append(res.plain, rr)
		}
		// Spans are written between rounds, never during one, so the run
		// holds at most one round's spans.
		if spans != nil {
			spans.write(sp)
		}
	}
	res.rssMiB = peakRSSMiB()
	if o.traced && wl.repeatable {
		want := res.plain[0].virtual()
		for i, rr := range res.traced {
			if got := rr.virtual(); got != want {
				res.failed++
				res.errs = append(res.errs, fmt.Sprintf("traced round %d changed virtual results:\n  untraced %s\n  traced   %s", i, want, got))
			}
		}
	}
	if spans != nil {
		if err := spans.close(); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// spanFile is the traced run's span output, one tab-separated line per span.
type spanFile struct {
	f  *os.File
	bw *bufio.Writer
}

func createSpanFile(path string) (*spanFile, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	sf := &spanFile{f: f, bw: bufio.NewWriter(f)}
	fmt.Fprintln(sf.bw, "name\top\tparent\tvstart_ns\tvend_ns\twstart_ns\twend_ns")
	return sf, nil
}

// write buffers spans; a write error surfaces from close.
func (sf *spanFile) write(spans []span) {
	for _, s := range spans {
		fmt.Fprintf(sf.bw, "%s\t%d\t%d\t%d\t%d\t%d\t%d\n", s.name, s.op, s.parent, s.v0, s.v1, s.w0, s.w1)
	}
}

func (sf *spanFile) close() error {
	if err := sf.bw.Flush(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return sf.f.Close()
}

// pct is the nearest-rank q-quantile of sorted samples, lowered to the
// highest quantile that still has 10 samples beyond it. It returns the
// value and the quantile actually reported.
func pct(sorted []time.Duration, q float64) (time.Duration, float64) {
	n := len(sorted)
	if n == 0 {
		return 0, q
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if n-1-i < 10 {
		i = max(n-11, 0)
		q = float64(i+1) / float64(n)
	}
	return sorted[max(i, 0)], q
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func medianOf(rs []*roundResult, f func(*roundResult) float64) float64 {
	xs := make([]float64, len(rs))
	for i, r := range rs {
		xs[i] = f(r)
	}
	return median(xs)
}

// virtual renders every virtual-clock result of a round exactly, for the
// determinism probe and the traced-equals-untraced check.
func (rr *roundResult) virtual() string {
	l, st := rr.lat, rr.setupLat
	return fmt.Sprintf("ops=%d vspan_ns=%d cpu_busy_ns=%d payload=%d events=%d lat_ns=%d/%d/%d/%d/%d setup_ns=%d/%d",
		rr.ops, rr.vspan, rr.cpuBusy, rr.payload, rr.events, l.mean, l.tail, l.p50.v, l.p99.v, l.p999.v, st.p50.v, st.p99.v)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd is the untraced metric set, in BENCHMARK.json's order.
func (r *result) endToEnd() ([]string, map[string]metric) {
	rs := r.plain
	ms := map[string]metric{
		"setup_s": {medianOf(rs, func(x *roundResult) float64 {
			return x.setup.Seconds() * calibRef.Seconds() / x.calib.Seconds()
		}), "s"},
		"wall_rel":      {medianOf(rs, func(x *roundResult) float64 { return x.wall.Seconds() / x.calib.Seconds() }), "ratio"},
		"heap_live_mib": {medianOf(rs, func(x *roundResult) float64 { return float64(x.heapLive) / (1 << 20) }), "MiB"},
		"ops_per_vsec":  {medianOf(rs, func(x *roundResult) float64 { return float64(x.ops) / x.vspan.Seconds() }), "ops/s"},
		"cpu_us_per_op": {medianOf(rs, func(x *roundResult) float64 {
			return float64(x.cpuBusy.Nanoseconds()) / 1e3 / float64(x.ops)
		}), "us"},
		"op_mean_ms": {medianOf(rs, func(x *roundResult) float64 { return ms(x.lat.mean) }), "ms"},
		"op_tail_ms": {medianOf(rs, func(x *roundResult) float64 { return ms(x.lat.tail) }), "ms"},
	}
	return []string{"setup_s", "wall_rel", "heap_live_mib", "ops_per_vsec", "cpu_us_per_op", "op_mean_ms", "op_tail_ms"}, ms
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func (r *result) print(w io.Writer) {
	rs := r.plain
	fmt.Fprintf(w, "workload %s  seed %d  rounds %d untraced, %d traced  ops/round %d  GOMAXPROCS %d\n",
		r.wl.name, r.o.seed, len(r.plain), len(r.traced), rs[0].ops, runtime.GOMAXPROCS(0))
	fmt.Fprintf(w, "virtual %s\n", rs[0].virtual())
	fmt.Fprintf(w, "rounds wall_s")
	for _, x := range rs {
		fmt.Fprintf(w, " %.4f", x.wall.Seconds())
	}
	fmt.Fprintf(w, "\nrounds setup_s")
	for _, x := range rs {
		fmt.Fprintf(w, " %.5f", x.setup.Seconds())
	}
	fmt.Fprintln(w)
	var out map[string]metric
	if r.o.traced {
		out = r.printLayers(w)
	} else {
		var names []string
		names, out = r.endToEnd()
		for _, n := range names {
			fmt.Fprintf(w, "  %-16s %14.6g %s\n", n, out[n].Value, out[n].Unit)
		}
		r.printWorkloadMetrics(w)
	}
	fmt.Fprintf(w, "  %-16s %14.6g ratio (%d failed of %d attempted)\n", "error_rate",
		float64(r.failed)/float64(max(r.attempted, 1)), r.failed, r.attempted)
	for _, e := range r.errs {
		fmt.Fprintf(w, "  FAILED: %s\n", e)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, out})
	if err != nil {
		panic(err) // finite floats and plain strings always marshal
	}
	fmt.Fprintf(w, "%s\n", line)
}

// printWorkloadMetrics prints the metrics that exist on one workload only,
// each percentile with the quantile reported and its sample count.
func (r *result) printWorkloadMetrics(w io.Writer) {
	rs := r.plain
	pctLine := func(name string, unit string, scale float64, f func(*roundResult) (quantile, int)) {
		var qs, ns []float64
		v := medianOf(rs, func(x *roundResult) float64 {
			p, n := f(x)
			qs, ns = append(qs, p.q), append(ns, float64(n))
			return float64(p.v.Nanoseconds()) / scale
		})
		fmt.Fprintf(w, "  %-16s %14.6g %s (p%.4g of %.0f samples per round)\n", name, v, unit, 100*median(qs), median(ns))
	}
	p50 := func(x *roundResult) (quantile, int) { return x.lat.p50, x.lat.n }
	p99 := func(x *roundResult) (quantile, int) { return x.lat.p99, x.lat.n }
	switch r.wl.name {
	case "bulk":
		fmt.Fprintf(w, "  %-16s %14.6g Mb/s\n", "goodput_mbps", medianOf(rs, func(x *roundResult) float64 {
			return float64(x.payload) * 8 / x.vspan.Seconds() / 1e6
		}))
		pctLine("deliver_p50_ms", "ms", 1e6, p50)
		pctLine("deliver_p99_ms", "ms", 1e6, p99)
	case "rpc":
		pctLine("rtt_p50_us", "us", 1e3, p50)
		pctLine("rtt_p999_us", "us", 1e3, func(x *roundResult) (quantile, int) { return x.lat.p999, x.lat.n })
	case "churn":
		pctLine("setup_p50_ms", "ms", 1e6, p50)
		pctLine("setup_p99_ms", "ms", 1e6, p99)
	case "fleet":
		pctLine("setup_p50_ms", "ms", 1e6, func(x *roundResult) (quantile, int) { return x.setupLat.p50, x.setupLat.n })
		pctLine("setup_p99_ms", "ms", 1e6, func(x *roundResult) (quantile, int) { return x.setupLat.p99, x.setupLat.n })
		pctLine("txn_p50_ms", "ms", 1e6, p50)
		pctLine("txn_p99_ms", "ms", 1e6, p99)
	}
	fmt.Fprintf(w, "  %-16s %14.6g MiB (process max RSS over the run)\n", "peak_rss_mib", r.rssMiB)
	fmt.Fprintf(w, "  %-16s %14.6g s (raw wall time of the timed phase)\n", "wall_s",
		medianOf(rs, func(x *roundResult) float64 { return x.wall.Seconds() }))
	fmt.Fprintf(w, "  %-16s %14.6g s (raw wall time of the setup; setup_s is calibrated)\n", "setup_wall_s",
		medianOf(rs, func(x *roundResult) float64 { return x.setup.Seconds() }))
	fmt.Fprintf(w, "  %-16s %14.6g s (calibration around the timed phase)\n", "calib_s",
		medianOf(rs, func(x *roundResult) float64 { return x.calib.Seconds() }))
	fmt.Fprintf(w, "  %-16s %14.6g cpu-s/wall-s (process CPU over the timed phase; <1 means starved)\n",
		"cpu_per_wall", medianOf(rs, func(x *roundResult) float64 { return x.cpuPerWall }))
}

// printLayers prints the traced run's layer table and returns the
// per-layer metric set.
func (r *result) printLayers(w io.Writer) map[string]metric {
	out := map[string]metric{}
	total := 0
	samples := map[string]int{}
	for _, rr := range r.traced {
		for l, n := range rr.layer.samples {
			samples[l] += n
			total += n
		}
	}
	fmt.Fprintf(w, "  %-12s %8s %8s\n", "layer", "wall%", "samples")
	sum := 0.0
	for _, l := range layerNames {
		share := 100 * float64(samples[l]) / float64(max(total, 1))
		sum += share
		out[l+".wall_share"] = metric{share, "%"}
		fmt.Fprintf(w, "  %-12s %8.2f %8d\n", l, share, samples[l])
	}
	fmt.Fprintf(w, "  %-12s %8.2f %8d\n", "total", sum, total)
	out["bench.profile_samples"] = metric{float64(total), "count"}

	plainWall := medianOf(r.plain, func(x *roundResult) float64 { return x.wall.Seconds() })
	tracedWall := medianOf(r.traced, func(x *roundResult) float64 { return x.wall.Seconds() })
	out["bench.trace_overhead_s"] = metric{tracedWall - plainWall, "s"}
	fmt.Fprintf(w, "  tracing overhead %+.4f s (traced wall_s %.4f, untraced %.4f)\n", tracedWall-plainWall, tracedWall, plainWall)
	if r.wl.repeatable {
		fmt.Fprintf(w, "  traced virtual results checked against untraced (probe: repeatable)\n")
	} else {
		fmt.Fprintf(w, "  traced virtual results not compared (probe: not repeatable)\n")
	}

	out["go.heap_live_end_mib"] = metric{medianOf(r.plain, func(x *roundResult) float64 {
		return float64(x.heapLiveEnd) / (1 << 20)
	}), "MiB"}
	out["sim.ns_per_event"] = metric{medianOf(r.plain, func(x *roundResult) float64 {
		return float64(x.wall.Nanoseconds()) / float64(x.events)
	}), "ns"}
	all := append(append([]*roundResult(nil), r.plain...), r.traced...)
	out["go.cpu_per_wall"] = metric{medianOf(all, func(x *roundResult) float64 { return x.cpuPerWall }), "ratio"}
	var keys []string
	for k := range r.traced[0].layer.metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		out[k] = metric{medianOf(r.traced, func(x *roundResult) float64 { return x.layer.metrics[k] }), layerUnit(k)}
	}
	names := make([]string, 0, len(out))
	for k := range out {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "  counters (median of traced rounds; sim.ns_per_event and go.heap_live_end_mib of untraced ones):\n")
	for _, k := range names {
		if !strings.HasSuffix(k, ".wall_share") {
			fmt.Fprintf(w, "    %-36s %14.6g %s\n", k, out[k].Value, out[k].Unit)
		}
	}
	return out
}

// layerUnit is the unit of a per-layer counter, read off its name.
func layerUnit(k string) string {
	switch {
	case strings.HasSuffix(k, "_mib"):
		return "MiB"
	case strings.HasSuffix(k, "vus_per_op"):
		return "us"
	case strings.HasSuffix(k, "bytes_per_op"):
		return "bytes"
	case strings.HasSuffix(k, "_per_op"), strings.HasSuffix(k, "_per_delivered"), strings.HasSuffix(k, "_per_data_seg"):
		return "ratio"
	case strings.Contains(k, "util"), strings.HasSuffix(k, "_share"):
		return "ratio"
	}
	return "count"
}

// runAll runs every workload in its own process and reports whether all
// of them verified.
func runAll(seed uint64, seconds float64, trace int, out string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	bad := 0
	for _, wl := range workloads {
		cmd := exec.Command(self, "--workload", wl.name, "--seed", fmt.Sprint(seed),
			"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace), "--out", out)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Printf("workload %s FAILED: %v\n", wl.name, err)
			bad++
		}
	}
	fmt.Printf("all: %d workloads, %d failed\n", len(workloads), bad)
	if bad > 0 {
		return 1
	}
	return 0
}

// runProbe runs every workload twice with one seed, one round each, in
// separate processes, and compares the exact virtual results.
func runProbe(seed uint64) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	virtual := func(wl string) (string, error) {
		var buf bytes.Buffer
		cmd := exec.Command(self, "--workload", wl, "--seed", fmt.Sprint(seed), "--rounds", "1")
		cmd.Stdout, cmd.Stderr = &buf, os.Stderr
		if err := cmd.Run(); err != nil {
			return "", fmt.Errorf("%s: %w", wl, err)
		}
		for _, line := range strings.Split(buf.String(), "\n") {
			if v, ok := strings.CutPrefix(line, "virtual "); ok {
				return v, nil
			}
		}
		return "", fmt.Errorf("%s: no virtual line", wl)
	}
	for _, wl := range workloads {
		a, err := virtual(wl.name)
		if err == nil {
			var b string
			if b, err = virtual(wl.name); err == nil {
				if a == b {
					fmt.Printf("probe %-5s seed %d: repeatable\n  %s\n", wl.name, seed, a)
				} else {
					fmt.Printf("probe %-5s seed %d: NOT repeatable\n  run 1: %s\n  run 2: %s\n", wl.name, seed, a, b)
				}
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	return 0
}
