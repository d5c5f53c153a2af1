package main

import (
	"fmt"
	"reflect"
	grt "runtime"
	"sort"
	"time"

	"bdps/internal/core"
	"bdps/internal/metrics"
	"bdps/internal/msg"
	"bdps/internal/runtime"
	"bdps/internal/simnet"
	"bdps/internal/topology"
	"bdps/internal/trace"
	"bdps/internal/vtime"
	"bdps/internal/workload"
)

// simRate is the top of the paper's publishing-rate sweep, msgs/min per
// publisher; simWindow is the paper's publishing window.
const (
	simRate   = 15
	simWindow = 2 * vtime.Hour
)

// simSeeds is how many topology-and-workload seeds one run averages
// over, as the paper averages its figures over seeds: each run's cells
// use seeds derived from --seed, so delivery and earning describe the
// strategies rather than one random overlay.
const simSeeds = 4

// simCells are the sim-paper workload's cells for one derived seed: PSD
// and SSD under each of the paper's strategies, in a fixed order.
func simCells(seed uint64, ov *topology.Overlay) []simnet.Config {
	strategies := []core.Strategy{core.FIFO{}, core.RL{}, core.MaxEB{}, core.MaxEBPC{R: 0.7}}
	var cfgs []simnet.Config
	for _, sc := range []msg.Scenario{msg.PSD, msg.SSD} {
		for _, s := range strategies {
			params := core.DefaultParams()
			switch s.(type) {
			case core.FIFO, core.RL:
				// Traditional strategies detect no invalid messages (ε = 0).
				params.Epsilon = 0
			}
			cfgs = append(cfgs, simnet.Config{
				Seed:     seed,
				Scenario: sc,
				Strategy: s,
				Params:   params,
				Workload: workload.Config{RatePerMin: simRate, Duration: simWindow},
				Overlay:  ov,
			})
		}
	}
	return cfgs
}

// probeCell is the cell whose simulated delays the delay metrics report:
// PSD under EBPC, on the first derived seed.
const probeCell = 3

// simSetup builds every derived seed's overlay and every cell's plan,
// timed as the workload's set-up. It returns the cell configs and the
// probe cell's plan.
func simSetup(seed uint64, tl *spanLog) ([]simnet.Config, *runtime.Plan, time.Duration, error) {
	start := time.Now()
	var cfgs []simnet.Config
	for k := uint64(0); k < simSeeds; k++ {
		s := seed*simSeeds + k + 1
		sp := tl.begin("topology.BuildLayered", 0, s)
		ov, err := topology.BuildLayered(topology.LayeredConfig{Seed: s})
		tl.end(sp)
		if err != nil {
			return nil, nil, 0, err
		}
		cfgs = append(cfgs, simCells(s, ov)...)
	}
	var probe *runtime.Plan
	for i, cfg := range cfgs {
		sp := tl.begin("runtime.NewPlan", 0, uint64(i))
		p, err := runtime.NewPlan(cfg)
		tl.end(sp)
		if err != nil {
			return nil, nil, 0, err
		}
		if i == probeCell {
			probe = p
		}
	}
	return cfgs, probe, time.Since(start), nil
}

// delayProbe is a simulator tracer that records the simulated delay of
// every valid delivery, judged against the plan's publications.
type delayProbe struct {
	pubs   map[uint64]*msg.Message
	delays []float64
}

func (d *delayProbe) Emit(e trace.Event) {
	if e.Kind != trace.Deliver {
		return
	}
	if m := d.pubs[e.MsgID]; m != nil && e.T-m.Published <= m.Allowed {
		d.delays = append(d.delays, e.T-m.Published)
	}
}

// simPass is one sequential run of every cell.
type simPass struct {
	results []metrics.Result
	wall    []time.Duration
	allocs  uint64
}

// runSimPass runs every cell once, sequentially.
func runSimPass(cfgs []simnet.Config, tl *spanLog) (simPass, error) {
	var p simPass
	a0 := heapAllocs()
	for i, cfg := range cfgs {
		sp := tl.begin("simnet.Run", 0, uint64(i))
		start := time.Now()
		r, err := simnet.Run(cfg)
		p.wall = append(p.wall, time.Since(start))
		tl.end(sp)
		if err != nil {
			return p, fmt.Errorf("cell %d: %w", i, err)
		}
		p.results = append(p.results, r)
	}
	p.allocs = heapAllocs() - a0
	return p, nil
}

// rate is the pass's published messages per wall second.
func (p simPass) rate() float64 {
	var n int
	var w time.Duration
	for i, r := range p.results {
		n += r.Published
		w += p.wall[i]
	}
	return float64(n) / w.Seconds()
}

// runSim is the sim-paper workload: set up several times, run every cell
// in passes while whole passes fit the budget (at least one), then run
// two cells again — the probe cell traced — whose results must repeat
// exactly.
func runSim(seed uint64, seconds float64, tr *tracer) (*outcome, error) {
	o := newOutcome()
	tl := tr.log()
	hs := startHeapSampler()
	defer hs.stop()
	var setups []float64
	var cfgs []simnet.Config
	var probe *runtime.Plan
	for i := 0; i < setupRepeats; i++ {
		grt.GC()
		c, p, dt, err := simSetup(seed, tl)
		if err != nil {
			return nil, err
		}
		cfgs, probe = c, p
		setups = append(setups, dt.Seconds())
	}
	o.e2e["setup_s"] = median(setups)

	budget := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	var passes []simPass
	for {
		p, err := runSimPass(cfgs, tl)
		o.attempted += int64(len(cfgs))
		if err != nil {
			o.failed++
			return nil, err
		}
		passes = append(passes, p)
		if took := time.Since(start); took+took/time.Duration(len(passes)) > budget {
			break
		}
	}
	psd := func(i int) bool { return cfgs[i].Scenario == msg.PSD }
	var all, allocs []float64
	for _, p := range passes {
		all = append(all, p.rate())
		allocs = append(allocs, float64(p.allocs))
	}
	first := passes[0]
	var valid, targets, published, psdCells int
	var earning float64
	for i, r := range first.results {
		published += r.Published
		if psd(i) {
			valid += r.ValidDeliveries
			targets += r.TotalTargets
			psdCells++
		} else {
			earning += r.EarningK()
		}
	}
	o.e2e["sim_msgs_per_s"] = median(all)
	// Throughput at the SLO in simulated time: deliveries made within
	// their bound per simulated second, averaged over the PSD cells.
	o.e2e["slo_rate_msgs_per_s"] = float64(valid) / float64(psdCells) / vtime.Seconds(simWindow)
	o.e2e["delivery_rate"] = float64(valid) / float64(targets)
	o.e2e["earning"] = earning / simSeeds
	o.e2e["allocs_per_msg"] = median(allocs) / float64(published)
	o.e2e["heap_peak_mb"] = hs.stop() / (1 << 20)

	// Determinism: an SSD cell again untraced, and the probe cell again
	// with the delay probe attached; both must reproduce their results.
	again := len(cfgs)/simSeeds - 1
	r, err := simnet.Run(cfgs[again])
	o.attempted++
	if err != nil {
		o.failed++
		return nil, err
	}
	if !reflect.DeepEqual(r, first.results[again]) {
		o.fail(fmt.Sprintf("cell %d (%s) is not reproducible: %v vs %v", again, r.Label, r, first.results[again]))
	}
	dp := &delayProbe{pubs: make(map[uint64]*msg.Message, len(probe.Pubs))}
	for _, m := range probe.Pubs {
		dp.pubs[uint64(m.ID)] = m
	}
	cfg := cfgs[probeCell]
	cfg.Tracer = dp
	r, err = simnet.Run(cfg)
	o.attempted++
	if err != nil {
		o.failed++
		return nil, err
	}
	if !reflect.DeepEqual(r, first.results[probeCell]) {
		o.fail("the traced probe cell's result differs from its untraced run")
	}
	if len(dp.delays) != r.ValidDeliveries {
		o.fail(fmt.Sprintf("probe saw %d valid deliveries, the result counts %d", len(dp.delays), r.ValidDeliveries))
	}
	o.e2e["delay_p50_ms"] = quantile(dp.delays, 0.50)
	o.e2e["delay_p99_ms"] = quantile(dp.delays, 0.99)
	o.samples = len(dp.delays)

	if tr != nil {
		var recs, drH, drE float64
		for _, r := range first.results {
			recs += float64(r.Receptions)
			drH += float64(r.DropsHopeless)
			drE += float64(r.DropsExpired)
		}
		n := float64(len(cfgs))
		o.layer["simnet.receptions_per_cell"] = recs / n
		o.layer["simnet.allocs_per_cell"] = median(allocs) / n
		o.layer["core.drops_hopeless"] = drH
		o.layer["core.drops_expired"] = drE
		if err := simLayerReplay(probe, tl); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// simLayerReplay drives the probe plan's first publications through their
// ingress brokers and pops every entry they enqueue, so the traced run
// times broker processing, matching and the strategy's picks on the
// paper's workload.
func simLayerReplay(p *runtime.Plan, tl *spanLog) error {
	pubs := append([]*msg.Message(nil), p.Pubs...)
	sort.Slice(pubs, func(i, j int) bool { return pubs[i].Published < pubs[j].Published })
	if len(pubs) > 4096 {
		pubs = pubs[:4096]
	}
	params := p.Cfg.Params
	strat := p.Cfg.Strategy
	for _, m := range pubs {
		b := p.Brokers[m.Ingress]
		trace := uint64(m.ID)
		sp := tl.begin("routing.MatchAppend", 0, trace)
		b.Table().Match(m)
		tl.end(sp)
		sp = tl.begin("broker.Process", 0, trace)
		res := b.Process(m, m.Published)
		tl.end(sp)
		for _, hop := range res.EnqueuedHops {
			q := b.Queue(hop)
			sp := tl.begin("core.Prune", 0, trace)
			drops := q.Prune(m.Published, params)
			tl.end(sp)
			sp = tl.begin("core.PopNext", 0, trace)
			e, more := q.PopNext(strat, m.Published, params)
			tl.end(sp)
			for _, d := range append(drops, more...) {
				d.Entry.Release()
			}
			if e != nil {
				e.Release()
			}
		}
	}
	return nil
}
