// Command perfbench is the repository's benchmark: it drives the bdps
// layers from outside on seeded, generated inputs, checks their outputs,
// and prints every metric by name and unit. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. With -trace 0 the metrics are the end-to-end ones; with
// -trace 1 the run is repeated with spans recorded around every call the
// benchmark makes into a layer, and the metrics are the per-layer ones
// (the spans are written under .bench_build/perfbench/).
//
// Usage (from the repository root, after building):
//
//	perfbench --workload live-churn --seed 1 --seconds 45 --trace 0
//
// METRICS.md documents every workload and metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	grt "runtime"
	rtm "runtime/metrics"
	"sort"
	"sync"
	"time"
)

// setupRepeats is how many times a run sets its workload up, each time
// from a freshly collected heap; setup_s is the median.
const setupRepeats = 5

// traceEvery samples the live and replay spans: one message in
// traceEvery is traced, so the span buffers stay small.
const traceEvery = 64

// outDir holds the benchmark's scratch state and trace files, relative
// to the checkout root the benchmark runs from.
var outDir = filepath.Join(".bench_build", "perfbench")

// outcome is one run's measurements and output-check verdicts.
type outcome struct {
	e2e       map[string]float64
	layer     map[string]float64
	attempted int64
	failed    int64
	checks    []string // failed output checks
	samples   int      // delay samples behind the delay percentiles
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (o *outcome) fail(why string) { o.checks = append(o.checks, why) }

// metric names and units, in print order.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"slo_rate_msgs_per_s", "msgs/s"},
	{"delivery_rate", "ratio"},
	{"earning", "k"},
	{"allocs_per_msg", "allocs"},
	{"heap_peak_mb", "MB"},
}

var perLayer = []struct{ name, unit string }{
	{"sim_msgs_per_s", "msgs/s"},
	{"delay_p50_ms", "ms"},
	{"delay_p99_ms", "ms"},
	{"msg.encode_ns", "ns"},
	{"msg.decode_ns", "ns"},
	{"msg.allocs_per_op", "allocs"},
	{"livenet.publish_ns", "ns"},
	{"livenet.receptions_per_msg", "count"},
	{"livenet.peak_queue", "count"},
	{"livenet.client_dropped", "count"},
	{"livenet.frames_lost", "count"},
	{"livenet.retransmits", "count"},
	{"livenet.retx_per_loss", "ratio"},
	{"livenet.dropped_deadline", "count"},
	{"routing.match_ns", "ns"},
	{"routing.matches_per_msg", "count"},
	{"routing.install_ns", "ns"},
	{"routing.remove_ns", "ns"},
	{"durable.append_ns", "ns"},
	{"durable.wal_bytes", "bytes"},
	{"broker.process_ns", "ns"},
	{"core.pick_ns", "ns"},
	{"core.prune_ns", "ns"},
	{"core.drops_hopeless", "count"},
	{"core.drops_expired", "count"},
	{"simnet.cell_s", "s"},
	{"simnet.receptions_per_cell", "count"},
	{"simnet.allocs_per_cell", "allocs"},
	{"runtime.plan_ms", "ms"},
	{"topology.build_ms", "ms"},
	{"loadgen.lag_p99_ms", "ms"},
	{"loadgen.backlog_slope", "ratio"},
	{"error_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

// spanMetrics maps per-layer metrics to the span whose median duration
// they report, with the divisor that converts nanoseconds to the unit.
var spanMetrics = map[string]struct {
	span string
	div  float64
}{
	"msg.encode_ns":      {"msg.AppendMessageFrame", 1},
	"msg.decode_ns":      {"msg.DecodeMessageInto", 1},
	"livenet.publish_ns": {"livenet.Publish", 1},
	"routing.match_ns":   {"routing.MatchAppend", 1},
	"routing.install_ns": {"routing.InstallSub", 1},
	"routing.remove_ns":  {"routing.RemoveSubAll", 1},
	"durable.append_ns":  {"durable.AppendEntry", 1},
	"broker.process_ns":  {"broker.Process", 1},
	"core.pick_ns":       {"core.PopNext", 1},
	"core.prune_ns":      {"core.Prune", 1},
	"simnet.cell_s":      {"simnet.Run", 1e9},
	"runtime.plan_ms":    {"runtime.NewPlan", 1e6},
	"topology.build_ms":  {"topology.BuildLayered", 1e6},
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload: live-forward, live-churn or sim-paper")
		seed    = flag.Uint64("seed", 1, "input generator seed")
		seconds = flag.Float64("seconds", 45, "measurement budget in seconds")
		traced  = flag.Int("trace", 0, "1: record spans and report the per-layer metrics")
	)
	flag.Parse()
	if *name != "sim-paper" && liveSpecs[*name] == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	exec := func(seconds float64, tr *tracer) (*outcome, error) {
		if *name == "sim-paper" {
			return runSim(*seed, seconds, tr)
		}
		return runLive(liveSpecs[*name], *seed, seconds, tr)
	}

	o, err := exec(*seconds, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	printTable(*name, "end-to-end", o.e2e, endToEnd, o)
	metrics := pick(o.e2e, endToEnd)

	if *traced == 1 {
		tr := newTracer()
		to, err := exec(*seconds, tr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		printTable(*name, "end-to-end, traced", to.e2e, endToEnd, to)
		summary := tr.summarize()
		for m, s := range spanMetrics {
			if st, ok := summary[s.span]; ok {
				to.layer[m] = st.MedianNs / s.div
			}
		}
		if v := to.e2e["sim_msgs_per_s"]; v > 0 {
			to.layer["trace.overhead_frac"] = o.e2e["sim_msgs_per_s"]/v - 1
		}
		to.layer["error_frac"] = frac(to.failed, to.attempted)
		to.layer["sim_msgs_per_s"] = o.e2e["sim_msgs_per_s"]
		to.layer["delay_p50_ms"] = o.e2e["delay_p50_ms"]
		to.layer["delay_p99_ms"] = o.e2e["delay_p99_ms"]
		path := filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.jsonl", *name, *seed))
		if err := tr.write(path, summary); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		printSpans(summary)
		printTable(*name, "per-layer", to.layer, perLayer, to)
		fmt.Printf("spans: %s\n", path)
		metrics = pick(to.layer, perLayer)
		o.attempted += to.attempted
		o.failed += to.failed
		o.checks = append(o.checks, to.checks...)
	}

	for _, c := range o.checks {
		fmt.Fprintln(os.Stderr, "perfbench: output check failed:", c)
	}
	out := struct {
		Correct   bool                      `json:"correct"`
		Attempted int64                     `json:"attempted"`
		Failed    int64                     `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{len(o.checks) == 0, o.attempted, o.failed, metrics}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	if len(o.checks) > 0 {
		return 1
	}
	return 0
}

func frac(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// pick renders the named metrics in the JSON result's shape; a metric the
// workload does not exercise reads 0.
func pick(vals map[string]float64, names []struct{ name, unit string }) map[string]map[string]any {
	out := make(map[string]map[string]any, len(names))
	for _, m := range names {
		v := vals[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[m.name] = map[string]any{"value": v, "unit": m.unit}
	}
	return out
}

func printTable(workload, kind string, vals map[string]float64, names []struct{ name, unit string }, o *outcome) {
	fmt.Printf("%s — %s metrics\n", workload, kind)
	for _, m := range names {
		fmt.Printf("  %-28s %16.6g %s\n", m.name, vals[m.name], m.unit)
	}
	if kind != "per-layer" {
		fmt.Printf("  %-28s %16.6g msgs/s\n", "sim_msgs_per_s", vals["sim_msgs_per_s"])
		fmt.Printf("  %-28s %16.6g ms (%d samples)\n", "delay_p50_ms", vals["delay_p50_ms"], o.samples)
		fmt.Printf("  %-28s %16.6g ms\n", "delay_p99_ms", vals["delay_p99_ms"])
		fmt.Printf("  %-28s %16.6g ratio (%d failed of %d attempted)\n", "error_frac", frac(o.failed, o.attempted), o.failed, o.attempted)
	}
}

func printSpans(summary map[string]layerStat) {
	names := make([]string, 0, len(summary))
	for n := range summary {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Println("spans (count, median, median self time):")
	for _, n := range names {
		s := summary[n]
		fmt.Printf("  %-28s %9d %12.0f ns %12.0f ns\n", n, s.Count, s.MedianNs, s.MedianSelf)
	}
}

// heapAllocs is the process's cumulative heap allocation count.
func heapAllocs() uint64 {
	s := []rtm.Sample{{Name: "/gc/heap/allocs:objects"}}
	rtm.Read(s)
	return s[0].Value.Uint64()
}

// heapSampler tracks the peak live heap over a run: the bytes the last
// completed GC cycle found reachable, sampled every 10 ms. Unlike the
// allocated-object total it does not depend on when collections happen
// to run.
type heapSampler struct {
	stopc chan struct{}
	once  sync.Once
	wg    sync.WaitGroup
	peak  float64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []rtm.Sample{{Name: "/gc/heap/live:bytes"}}
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			rtm.Read(s)
			if v := float64(s[0].Value.Uint64()); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stopc:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak in bytes; it may be called
// more than once.
func (h *heapSampler) stop() float64 {
	h.once.Do(func() { close(h.stopc) })
	h.wg.Wait()
	return h.peak
}

// runLive is a live workload: replay the generated inputs through the
// layers without sockets, set the cluster up several times, measure the
// reference rung, then climb the offered-rate ladder for the rest of the
// budget.
func runLive(spec *liveSpec, seed uint64, seconds float64, tr *tracer) (*outcome, error) {
	o := newOutcome()
	in := generate(spec, seed, 2)
	measureStart := time.Now()

	// The socket-free replay of the same inputs, before any cluster runs.
	rp, err := newReplayer(spec, in, outDir, tr.log())
	if err != nil {
		return nil, err
	}
	st, err := rp.run(tr.log())
	rp.close()
	if err != nil {
		o.fail(err.Error())
	}
	o.e2e["sim_msgs_per_s"] = st.rate

	grt.GC()
	hs := startHeapSampler()
	defer hs.stop()
	var setups []float64
	var r *rig
	for i := 0; i < setupRepeats; i++ {
		grt.GC()
		start := time.Now()
		rg, err := startRig(spec, in, seed, outDir, tr)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if i < setupRepeats-1 {
			rg.stop()
		} else {
			r = rg
		}
	}
	o.e2e["setup_s"] = median(setups)

	grt.GC()
	allocs0, pub0 := heapAllocs(), r.published
	ref := r.rung(spec.refRate, time.Duration(spec.refSeconds*float64(time.Second)))
	allocs := heapAllocs() - allocs0
	published := r.published - pub0
	o.e2e["heap_peak_mb"] = hs.stop() / (1 << 20)
	// The ladder gets what the replay, set-up and reference rung leave of
	// the budget (set-up time is not counted against it).
	var setupTotal float64
	for _, s := range setups {
		setupTotal += s
	}
	left := seconds - time.Since(measureStart).Seconds() + setupTotal
	slo, best, rungs := r.ladder(&ref, time.Duration(left*float64(time.Second)))
	stats := r.c.TotalStats()
	peakQueue := r.c.PeakQueue()
	dropped := r.clientDropped()
	walBytes := r.walBytes()
	r.stop()

	o.e2e["slo_rate_msgs_per_s"] = slo
	o.e2e["delay_p50_ms"] = ref.p50
	o.e2e["delay_p99_ms"] = ref.p99
	o.samples = ref.samples
	o.e2e["delivery_rate"] = ref.deliveryRate()
	// Eq. 2 with PSD's unit price: one per on-time delivery.
	o.e2e["earning"] = float64(ref.onTime) / 1000
	o.e2e["allocs_per_msg"] = float64(allocs) / float64(published)

	fmt.Printf("%s rungs (offered msgs/s: delivery, p50, p99 ms, lag p99 ms, backlog slope, generator kept up, pass):\n", spec.name)
	for _, x := range append([]rungResult{ref}, rungs...) {
		fmt.Printf("  %9.0f: %.4f %7.3f %7.3f %7.3f %+.4f %-5v %v\n", x.rate, x.deliveryRate(), x.p50, x.p99, x.lagP99, x.slope, x.valid, x.pass)
	}

	// Output checks: no duplicate, no delivery outside the filter, and no
	// delivery lost without a counted cause.
	var missing, stale int64
	for _, x := range append([]rungResult{ref}, rungs...) {
		missing += int64(x.missing)
	}
	for _, rec := range r.recs {
		if n := rec.unmatched.Load(); n > 0 {
			o.fail(fmt.Sprintf("subscriber %d received %d messages its filter rejects", rec.idx, n))
		}
		if n := rec.dups.Load(); n > 0 {
			o.fail(fmt.Sprintf("subscriber %d received %d duplicates", rec.idx, n))
		}
		stale += rec.stale.Load()
	}
	drops := int64(stats.DropsExpired+stats.DropsHopeless+stats.DropsArrival+stats.DroppedDeadline+stats.DropsShed+stats.PubsRejected) * int64(len(in.measured))
	if missing > dropped+drops+stale {
		o.fail(fmt.Sprintf("%d deliveries missing, only %d explained (client drops %d, broker drops %d, late %d)", missing, dropped+drops+stale, dropped, drops, stale))
	}

	o.attempted = r.published + r.churnOps.Load() + int64(len(in.measured)+len(in.residents))
	o.failed = r.pubFails + r.churnFails.Load()

	if tr != nil {
		o.layer["livenet.receptions_per_msg"] = float64(stats.Receptions) / float64(r.published)
		o.layer["livenet.peak_queue"] = float64(peakQueue)
		o.layer["livenet.client_dropped"] = float64(dropped)
		o.layer["livenet.frames_lost"] = float64(stats.FramesLost)
		o.layer["livenet.retransmits"] = float64(stats.Retransmits)
		if stats.FramesLost > 0 {
			o.layer["livenet.retx_per_loss"] = float64(stats.Retransmits) / float64(stats.FramesLost)
		}
		o.layer["livenet.dropped_deadline"] = float64(stats.DroppedDeadline)
		o.layer["core.drops_hopeless"] = float64(stats.DropsHopeless)
		o.layer["core.drops_expired"] = float64(stats.DropsExpired)
		o.layer["durable.wal_bytes"] = float64(walBytes)
		o.layer["routing.matches_per_msg"] = float64(st.matches) / float64(st.traced)
		o.layer["msg.allocs_per_op"] = codecAllocs(in, spec)
		at := best
		if at == nil {
			at = &ref
		}
		o.layer["loadgen.lag_p99_ms"] = at.lagP99
		o.layer["loadgen.backlog_slope"] = at.slope
	}
	return o, nil
}
