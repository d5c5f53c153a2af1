package main

import (
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	grt "runtime"
	"sync"
	"sync/atomic"
	"time"

	"bdps/internal/core"
	"bdps/internal/livenet"
	"bdps/internal/msg"
	"bdps/internal/runtime"
	"bdps/internal/stats"
	"bdps/internal/topology"
	"bdps/internal/vtime"
)

// liveSpec fixes one live workload: the overlay's optional features, the
// generated inputs and the offered-rate ladder.
type liveSpec struct {
	name string
	// bound is the PSD allowed delay stamped on every message: the brokers
	// drop on it and the SLO judges delivery against it.
	bound   vtime.Millis
	sizeKB  float64 // emulated size the brokers' link-rate beliefs use
	payload int     // real payload bytes per message

	wildcards   int     // measured subscribers matching everything
	selective   float64 // share matched by one selective measured subscriber (0: none)
	residents   int     // filters installed at the edge through Node.Subscribe
	churnPerSec float64 // subscribe and unsubscribe operations per second
	loss        float64 // per-frame loss probability on every link
	wal         bool    // give every broker a state directory (WAL)

	refRate    float64 // reference rung: offered msgs/s, well below saturation
	refSeconds float64 // reference rung length
	replayMsgs int     // messages the socket-free replay carries
}

var liveSpecs = map[string]*liveSpec{
	"live-forward": {
		name: "live-forward", bound: 100, sizeKB: 1.0 / 1024,
		wildcards: 2,
		refRate:   5000, refSeconds: 5, replayMsgs: 2_800_000,
	},
	"live-churn": {
		name: "live-churn", bound: 200, sizeKB: 1, payload: 1024,
		selective: 0.25, residents: 2000, churnPerSec: 200,
		loss: 0.02, wal: true,
		refRate: 2000, refSeconds: 6, replayMsgs: 30_000,
	},
}

const (
	// churnLive is how many churn subscriptions are alive at once.
	churnLive = 64
	// rungDur is the length of one ladder rung.
	rungDur = time.Second
	// tick is the generator's send period: every message due by a tick
	// goes out in that tick's batch.
	tick = 250 * time.Microsecond
	// sampleEvery is the backlog sampling period within a rung.
	sampleEvery = 50 * time.Millisecond
	// drainLimit bounds the wait for a rung's stragglers; a delivery not
	// received by then counts as missing (and so as a failure in
	// delivery_rate).
	drainLimit = 2 * time.Second
	// sloDelivery is the SLO's attainment target.
	sloDelivery = 0.95
	// growthLimit is the backlog slope, as a share of the offered
	// delivery rate, beyond which a rung's backlog counts as growing.
	growthLimit = 0.05
	// The ladder's shape: see rig.ladder.
	ladderFirst = 4 // first rung, as a multiple of the reference rate
	ladderStep  = 1.15
	refineSteps = 2
)

// rig is one running live cluster with its clients.
type rig struct {
	spec *liveSpec
	in   *inputs
	t0   time.Time

	c         *livenet.Cluster
	edge      msg.NodeID
	stateRoot string
	pub       *livenet.Publisher
	subs      []*livenet.Subscriber
	recs      []*recorder
	counter   *deliveryCounter // nil: the edge's own counters suffice

	churnConn  net.Conn
	churnOps   atomic.Int64
	churnFails atomic.Int64
	churnStop  chan struct{}
	wg         sync.WaitGroup

	seq       uint32 // next publisher sequence number
	published int64
	pubFails  int64
	lagMs     []float64 // per-batch generator lag of the current rung
	tr        *spanLog  // generator-goroutine spans (nil untraced)

	// Per-rung scratch, reused so the rungs after the warm-up allocate
	// nothing the heap metric would see.
	cum    []int32
	delays []float64
}

// grow returns (*buf)[:n], reallocating only when the capacity is short.
func grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// recorder drains one subscriber's channel into preallocated per-rung
// slots; the receive path allocates nothing.
type recorder struct {
	idx     int
	matches []bool
	t0      time.Time

	mu      sync.Mutex
	base    int64 // sequence number of the rung's first message
	n       int64 // messages in the rung (0: no rung open)
	start   int64 // rung start, ns since t0
	period  float64
	delayUs []int32 // per rung slot: delay µs + 1, 0 = not received

	receipts  atomic.Int64 // every receipt, for the client-drop count
	inRung    atomic.Int64
	stale     atomic.Int64 // receipts of an earlier rung's message
	unmatched atomic.Int64 // receipts the filter does not match
	dups      atomic.Int64
}

func (r *recorder) run(ch <-chan *msg.Message, tr *spanLog) {
	for m := range ch {
		now := int64(time.Since(r.t0))
		r.receipts.Add(1)
		seq := int64(uint32(m.ID))
		if !r.matches[seq%poolSize] {
			r.unmatched.Add(1)
			continue
		}
		r.mu.Lock()
		i := seq - r.base
		if i < 0 || i >= r.n {
			r.mu.Unlock()
			r.stale.Add(1)
			continue
		}
		due := r.start + int64(float64(i)*r.period)
		if r.delayUs[i] != 0 {
			r.mu.Unlock()
			r.dups.Add(1)
			continue
		}
		d := (now - due) / 1000
		if d < 0 {
			d = 0
		}
		r.delayUs[i] = int32(d) + 1
		r.mu.Unlock()
		r.inRung.Add(1)
		if tr != nil && seq%traceEvery == 0 {
			tr.add("livenet.receive", 0, uint64(m.ID), due, now)
		}
	}
}

// open starts a rung window.
func (r *recorder) open(base, n, start int64, period float64) {
	r.mu.Lock()
	r.base, r.n, r.start, r.period = base, n, start, period
	clear(grow(&r.delayUs, int(n)))
	r.mu.Unlock()
	r.inRung.Store(0)
}

// close ends the rung window; later receipts of its messages are stale.
func (r *recorder) close() {
	r.mu.Lock()
	r.n = 0
	r.mu.Unlock()
}

// deliveryCounter is a runtime.Sink that counts the brokers' deliveries
// to the measured (connected) subscriptions, where residents and churn
// subscriptions share the edge broker's delivery counters.
type deliveryCounter struct {
	lo, hi int32
	n      atomic.Int64
}

func (d *deliveryCounter) DeliveredTo(sub int32, _ float64, _ vtime.Millis, _ bool) {
	if sub >= d.lo && sub < d.hi {
		d.n.Add(1)
	}
}
func (d *deliveryCounter) DeliveredAt(sub int32, p float64, _, l vtime.Millis, v bool) {
	d.DeliveredTo(sub, p, l, v)
}
func (*deliveryCounter) Reception()                 {}
func (*deliveryCounter) DroppedExpired(int)         {}
func (*deliveryCounter) DroppedHopeless(int)        {}
func (*deliveryCounter) DroppedOnArrival(int)       {}
func (*deliveryCounter) DroppedCrashed(int)         {}
func (*deliveryCounter) Detection(vtime.Millis)     {}
func (*deliveryCounter) Rerouted(int)               {}
func (*deliveryCounter) Renegotiated(int, int, int) {}
func (*deliveryCounter) Reflooded(int)              {}
func (*deliveryCounter) FrameLost(int)              {}
func (*deliveryCounter) Retransmit(int)             {}
func (*deliveryCounter) DupSuppressed(int)          {}
func (*deliveryCounter) ReorderHealed(int)          {}
func (*deliveryCounter) DroppedDeadline(int)        {}
func (*deliveryCounter) FloodSuppressed(int)        {}
func (*deliveryCounter) DroppedShed(int)            {}
func (*deliveryCounter) SubReplayed(int)            {}
func (*deliveryCounter) SessionResumed(int)         {}
func (*deliveryCounter) MsgReplayed(int)            {}
func (*deliveryCounter) StaleEpoch(int)             {}

// chain builds the 3-broker ingress → relay → edge overlay. Link beliefs
// are loopback-fast (0.01 ms/KB), so the emulated transfer time of a
// message is small against the bound.
func chain() (*topology.Overlay, error) {
	g := topology.NewGraph(3)
	for i := 0; i < 2; i++ {
		if err := g.AddLink(msg.NodeID(i), msg.NodeID(i+1), stats.Normal{Mean: 0.01, Sigma: 0.001}); err != nil {
			return nil, err
		}
	}
	return &topology.Overlay{Graph: g, Ingress: []msg.NodeID{0}, Edges: []msg.NodeID{2}}, nil
}

// startRig starts the cluster, installs every subscription and warms the
// path up. The caller stops the rig.
func startRig(spec *liveSpec, in *inputs, seed uint64, dir string, tr *tracer) (*rig, error) {
	ov, err := chain()
	if err != nil {
		return nil, err
	}
	r := &rig{spec: spec, in: in, t0: time.Now(), edge: 2, churnStop: make(chan struct{}), tr: tr.log()}
	refMsgs := int(spec.refRate * spec.refSeconds)
	grow(&r.cum, refMsgs+1)
	grow(&r.delays, refMsgs*len(in.measured))
	cfg := livenet.ClusterConfig{
		Overlay:   ov,
		Scenario:  msg.PSD,
		Strategy:  core.MaxEB{},
		TimeScale: 1e-9, // pacing off: emulated sleeps round to zero
		Seed:      seed,
		Shards:    grt.GOMAXPROCS(0),
	}
	if spec.residents > 0 || spec.churnPerSec > 0 {
		r.counter = &deliveryCounter{lo: measuredBase, hi: measuredBase + int32(len(in.measured))}
		cfg.Sink = r.counter
	}
	if spec.loss > 0 {
		cfg.LinkLoss = &runtime.LinkLoss{From: msg.None, To: msg.None, Rate: spec.loss}
	}
	if spec.wal {
		r.stateRoot, err = os.MkdirTemp(dir, "state-")
		if err != nil {
			return nil, err
		}
		cfg.StateRoot = r.stateRoot
	}
	sp := r.tr.begin("livenet.StartCluster", 0, 0)
	r.c, err = livenet.StartCluster(cfg)
	r.tr.end(sp)
	if err != nil {
		r.stop()
		return nil, err
	}
	edge := r.c.Node(r.edge)
	for _, s := range in.residents {
		sp := r.tr.begin("livenet.Node.Subscribe", 0, uint64(s.ID))
		edge.Subscribe(s)
		r.tr.end(sp)
	}
	for i, s := range in.measured {
		sp := r.tr.begin("livenet.DialSubscriber", 0, uint64(s.ID))
		sub, err := livenet.DialSubscriber(r.c.Addr(r.edge), s)
		r.tr.end(sp)
		if err != nil {
			r.stop()
			return nil, fmt.Errorf("subscribe %d: %w", s.ID, err)
		}
		r.subs = append(r.subs, sub)
		rec := &recorder{idx: i, matches: in.matches[i], t0: r.t0, delayUs: make([]int32, 0, refMsgs)}
		r.recs = append(r.recs, rec)
		r.wg.Add(1)
		go func(log *spanLog) {
			defer r.wg.Done()
			rec.run(sub.C(), log)
		}(tr.log())
	}
	r.pub, err = livenet.DialPublisher(r.c.Addr(0), 0)
	if err != nil {
		r.stop()
		return nil, err
	}
	r.pub.Clock = r.c.Clock()
	if spec.churnPerSec > 0 {
		if err := r.startChurn(tr.log()); err != nil {
			r.stop()
			return nil, err
		}
	}
	// Warm-up: low-rate rungs until the subscription floods have reached
	// the ingress and every measured subscriber receives its whole share.
	for try := 0; ; try++ {
		res := r.rung(spec.refRate/4, 300*time.Millisecond)
		if res.missing == 0 && res.expected > 0 {
			break
		}
		if try == 20 {
			r.stop()
			return nil, fmt.Errorf("warm-up: %d of %d deliveries still missing", res.missing, res.expected)
		}
	}
	return r, nil
}

// startChurn opens the churn connection: a subscriber-role client that
// subscribes and unsubscribes churn filters at a fixed rate for the
// whole run. A reader drains the deliveries its subscriptions attract.
func (r *rig) startChurn(tr *spanLog) error {
	conn, err := net.Dial("tcp", r.c.Addr(r.edge))
	if err != nil {
		return err
	}
	r.churnConn = conn
	if err := msg.WriteFrame(conn, msg.FrameHello, msg.AppendHello(nil, msg.RoleSubscriber, msg.NodeID(churnBase), 0)); err != nil {
		return err
	}
	r.wg.Add(2)
	go func() {
		defer r.wg.Done()
		fr := msg.NewFrameReader(conn)
		var fb msg.FrameBuf
		for {
			if _, _, err := fr.Next(&fb); err != nil {
				return
			}
		}
	}()
	go func() {
		defer r.wg.Done()
		period := time.Duration(float64(time.Second) / r.spec.churnPerSec)
		var buf []byte
		live := make([]msg.SubID, 0, churnLive+1)
		next := time.Now()
		for k := 0; ; k++ {
			select {
			case <-r.churnStop:
				return
			default:
			}
			if len(live) < churnLive || k%2 == 0 {
				s := r.in.churn[k%len(r.in.churn)]
				var err error
				buf, err = msg.AppendSubscription(buf[:0], s)
				if err != nil {
					r.churnFails.Add(1)
					continue
				}
				live = append(live, s.ID)
				sp := tr.begin("churn.subscribe", 0, uint64(s.ID))
				err = msg.WriteFrame(conn, msg.FrameSubscribe, buf)
				tr.end(sp)
				r.count(err)
			} else {
				id := live[0]
				live = append(live[:0], live[1:]...)
				buf = msg.AppendUnsubscribe(buf[:0], id)
				sp := tr.begin("churn.unsubscribe", 0, uint64(id))
				err := msg.WriteFrame(conn, msg.FrameUnsubscribe, buf)
				tr.end(sp)
				r.count(err)
			}
			next = next.Add(period)
			if d := time.Until(next); d > 0 {
				time.Sleep(d)
			}
		}
	}()
	return nil
}

func (r *rig) count(err error) {
	r.churnOps.Add(1)
	if err != nil {
		r.churnFails.Add(1)
	}
}

// stop tears the rig down and waits for every goroutine it started.
func (r *rig) stop() {
	close(r.churnStop)
	if r.churnConn != nil {
		r.churnConn.Close()
	}
	if r.pub != nil {
		r.pub.Close()
	}
	for _, s := range r.subs {
		s.Close()
	}
	if r.c != nil {
		r.c.Stop()
	}
	r.wg.Wait()
	if r.stateRoot != "" {
		os.RemoveAll(r.stateRoot)
	}
}

// connectedDeliveries is the brokers' count of deliveries to the
// measured subscriptions.
func (r *rig) connectedDeliveries() int64 {
	if r.counter != nil {
		return r.counter.n.Load()
	}
	return int64(r.c.Node(r.edge).Stats().Deliveries)
}

func (r *rig) receipts() int64 {
	var n int64
	for _, rec := range r.recs {
		n += rec.receipts.Load()
	}
	return n
}

// clientDropped is deliveries the edge broker wrote to the measured
// subscribers that their clients never handed over.
func (r *rig) clientDropped() int64 { return r.connectedDeliveries() - r.receipts() }

// counted failures the brokers report (every drop kind).
func (r *rig) brokerDrops() int64 {
	s := r.c.TotalStats()
	return int64(s.DropsExpired + s.DropsHopeless + s.DropsArrival + s.DroppedDeadline + s.DropsShed + s.PubsRejected)
}

// rungResult is one offered rate's outcome.
type rungResult struct {
	rate     float64
	sent     int
	expected int // deliveries due to the measured subscribers
	onTime   int
	missing  int
	samples  int     // received deliveries behind p50 and p99
	p50, p99 float64 // ms from due instant to receipt
	lagP99   float64 // ms
	slope    float64 // backlog growth, share of offered deliveries per second
	valid    bool    // the generator kept up
	pass     bool
}

func (x *rungResult) deliveryRate() float64 {
	if x.expected == 0 {
		return 0
	}
	return float64(x.onTime) / float64(x.expected)
}

// rung offers `rate` msgs/s for `dur`, open loop: every message has a due
// instant, and each tick sends every message that is due.
func (r *rig) rung(rate float64, dur time.Duration) rungResult {
	n := int64(rate * dur.Seconds())
	period := 1e9 / rate
	base := int64(r.seq)
	start := int64(time.Since(r.t0)) + int64(tick)
	for _, rec := range r.recs {
		rec.open(base, n, start, period)
	}
	// Expected deliveries among the first k messages of the rung.
	cum := grow(&r.cum, int(n+1))
	cum[0] = 0
	for i := int64(0); i < n; i++ {
		c := int32(0)
		for _, rec := range r.recs {
			if rec.matches[(base+i)%poolSize] {
				c++
			}
		}
		cum[i+1] = cum[i] + c
	}
	r.lagMs = r.lagMs[:0]
	var ts, backlog []float64
	drops0 := r.brokerDrops()
	nextSample := start
	allowed := r.spec.bound
	sent := int64(0)
	for sent < n {
		now := int64(time.Since(r.t0))
		if now >= nextSample {
			due := int64(0)
			if now >= start {
				due = min(n, int64(float64(now-start)/period)+1)
			}
			var got int64
			for _, rec := range r.recs {
				got += rec.inRung.Load()
			}
			ts = append(ts, float64(now-start)/1e9)
			backlog = append(backlog, float64(int64(cum[due])-got-(r.brokerDrops()-drops0)))
			nextSample += int64(sampleEvery)
		}
		if now >= start {
			k := min(n, int64(float64(now-start)/period)+1)
			if sent < k {
				r.lagMs = append(r.lagMs, float64(now-start-int64(float64(sent)*period))/1e6)
			}
			for ; sent < k; sent++ {
				seq := base + sent
				var sp int
				if r.tr != nil && seq%traceEvery == 0 {
					sp = r.tr.begin("livenet.Publish", 0, uint64(msg.MakeID(0, uint32(seq))))
				}
				_, err := r.pub.Publish(0, r.in.attrs[seq%poolSize], r.spec.sizeKB, allowed, r.in.payload)
				if r.tr != nil && seq%traceEvery == 0 {
					r.tr.end(sp)
				}
				if err != nil {
					r.pubFails++
				}
			}
		}
		time.Sleep(tick)
	}
	r.seq += uint32(n)
	r.published += n
	r.drain()
	for _, rec := range r.recs {
		rec.close()
	}

	res := rungResult{rate: rate, expected: int(cum[n])}
	delays := grow(&r.delays, res.expected)[:0]
	for _, rec := range r.recs {
		rec.mu.Lock()
		for i := int64(0); i < n; i++ {
			if !rec.matches[(base+i)%poolSize] {
				continue
			}
			if v := rec.delayUs[i]; v != 0 {
				d := float64(v-1) / 1000
				delays = append(delays, d)
				if d <= allowed {
					res.onTime++
				}
			} else {
				res.missing++
			}
		}
		rec.mu.Unlock()
	}
	res.samples = len(delays)
	res.p50 = quantile(delays, 0.50)
	res.p99 = quantile(delays, 0.99)
	res.lagP99 = quantile(r.lagMs, 0.99)
	offered := float64(res.expected) / dur.Seconds()
	if offered > 0 {
		res.slope = slope(ts, backlog) / offered
	}
	r.judge(&res)
	return res
}

// judge applies the SLO: the generator kept up (its lag p99 within half
// the bound), attainment at least sloDelivery, p99 delay within the
// bound, and no growing backlog.
func (r *rig) judge(x *rungResult) {
	x.valid = x.lagP99 <= r.spec.bound/2
	x.pass = x.valid && x.deliveryRate() >= sloDelivery && x.p99 <= r.spec.bound && x.slope <= growthLimit
}

// drain waits until the cluster is quiescent and the subscribers have
// taken every delivery the edge wrote, or until drainLimit.
func (r *rig) drain() {
	deadline := time.Now().Add(drainLimit)
	for time.Now().Before(deadline) && !r.c.Quiescent(int(r.published)) {
		time.Sleep(time.Millisecond)
	}
	last, stableSince := r.receipts(), time.Now()
	for time.Now().Before(deadline) {
		if r.receipts() >= r.connectedDeliveries() {
			return
		}
		time.Sleep(time.Millisecond)
		if got := r.receipts(); got != last {
			last, stableSince = got, time.Now()
		} else if time.Since(stableSince) > 20*time.Millisecond {
			return // the rest were dropped by the client
		}
	}
}

// ladder searches for the highest offered rate that meets the SLO, in
// climbs for as long as the budget lasts. A climb runs rungs from
// its start rate up by ladderStep until one misses the SLO (a failed
// climbing rung is retried once), then bisects refineSteps times between
// the highest pass so far (at worst the reference rung) and that fail.
// The first climb starts at ladderFirst times the reference rate,
// a later one at the highest pass so far, so a climb cut short by a
// stall of the machine is retried from where it stood. It returns the
// highest passing rate and its rung.
func (r *rig) ladder(ref *rungResult, budget time.Duration) (float64, *rungResult, []rungResult) {
	end := time.Now().Add(budget)
	var all []rungResult
	// try runs one rung, and once more if it fails and retry is set; it
	// reports false when the budget has no room for the rung.
	try := func(rate float64, retry bool) (rungResult, bool) {
		var res rungResult
		for attempt := 0; attempt < 2; attempt++ {
			if time.Until(end) < rungDur {
				return res, attempt > 0
			}
			res = r.rung(rate, rungDur)
			all = append(all, res)
			if res.pass || !retry {
				break
			}
		}
		return res, true
	}
	var best *rungResult
	lo := 0.0
	if ref.pass {
		lo, best = ref.rate, ref
	}
	start := r.spec.refRate * ladderFirst
	for {
		hi := 0.0
		for rate := start; ; rate *= ladderStep {
			res, ok := try(rate, true)
			if !ok {
				return lo, best, all
			}
			if !res.pass {
				hi = rate
				break
			}
			if rate > lo {
				lo, best = rate, &res
			}
		}
		for i := 0; i < refineSteps && lo > 0 && hi > lo; i++ {
			mid := math.Sqrt(lo * hi)
			res, ok := try(mid, false)
			if !ok {
				return lo, best, all
			}
			if res.pass {
				lo, best = mid, &res
			} else {
				hi = mid
			}
		}
		if lo > 0 {
			start = lo
		}
	}
}

// walBytes totals the brokers' state directories.
func (r *rig) walBytes() int64 {
	if r.stateRoot == "" {
		return 0
	}
	var n int64
	filepath.Walk(r.stateRoot, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && !fi.IsDir() {
			n += fi.Size()
		}
		return nil
	})
	return n
}
