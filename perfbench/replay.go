package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"bdps/internal/broker"
	"bdps/internal/core"
	"bdps/internal/durable"
	"bdps/internal/msg"
	"bdps/internal/routing"
	"bdps/internal/topology"
)

// replayStats is the outcome of the socket-free replay: the live
// workload's generated messages and filters driven hop by hop through
// the layers the live path crosses, with the sockets taken away.
type replayStats struct {
	msgs    int
	rate    float64 // median over replayChunk-long chunks, msgs/s
	traced  int     // messages whose edge match was timed
	matches int     // routing entries those matched at the edge
}

// replayer holds the in-process chain the replay drives: one broker per
// overlay node, tables built from the workload's subscriptions.
type replayer struct {
	spec    *liveSpec
	in      *inputs
	ov      *topology.Overlay
	tables  map[msg.NodeID]*routing.Table
	brokers []*broker.Broker
	procs   []*broker.Processor
	store   *durable.Store
	params  core.Params

	// want[slot] is the benchmark's own count of the measured and
	// resident subscriptions matching attrs[slot].
	want []int

	frame   []byte
	rd      bytes.Reader
	fr      *msg.FrameReader
	dec     msg.Decoder
	matched []*routing.Entry
	churn   []*msg.Subscription // churn subscriptions installed, oldest first
	nextSub int
}

func newReplayer(spec *liveSpec, in *inputs, dir string, tl *spanLog) (*replayer, error) {
	ov, err := chain()
	if err != nil {
		return nil, err
	}
	rp := &replayer{spec: spec, in: in, ov: ov, params: core.DefaultParams()}
	rp.fr = msg.NewFrameReader(&rp.rd)
	subs := append(append([]*msg.Subscription(nil), in.measured...), in.residents...)
	sp := tl.begin("routing.Build", 0, 0)
	rp.tables, err = routing.Build(ov, subs, routing.Options{})
	tl.end(sp)
	if err != nil {
		return nil, err
	}
	for id := 0; id < ov.Graph.N(); id++ {
		nid := msg.NodeID(id)
		t := rp.tables[nid]
		t.EnableIndex()
		means := make(map[msg.NodeID]float64)
		for _, e := range ov.Graph.Neighbors(nid) {
			means[e.To] = e.Rate.Mean
		}
		b, err := broker.New(broker.Config{
			ID: nid, Scenario: msg.PSD, Params: rp.params, Strategy: core.MaxEB{},
			Table: t, LinkMeans: means,
		})
		if err != nil {
			return nil, err
		}
		rp.brokers = append(rp.brokers, b)
		rp.procs = append(rp.procs, b.NewProcessor())
	}
	if spec.wal {
		wdir := filepath.Join(dir, "replay-wal")
		if err := os.RemoveAll(wdir); err != nil {
			return nil, err
		}
		if rp.store, err = durable.Open(wdir); err != nil {
			return nil, err
		}
	}
	rp.want = make([]int, poolSize)
	for slot, a := range in.attrs {
		for _, s := range subs {
			if s.Filter.Match(a) {
				rp.want[slot]++
			}
		}
	}
	return rp, nil
}

func (rp *replayer) close() {
	if rp.store != nil {
		rp.store.Close()
	}
}

// replayChunk is the length of one replay throughput sample; the
// reported rate is the median over the chunks.
const replayChunk = 250 * time.Millisecond

// run replays spec.replayMsgs messages — a fixed amount of work, since
// sustained churn makes later messages slower — and checks every edge
// delivery set against the benchmark's own filter evaluation.
func (rp *replayer) run(tl *spanLog) (replayStats, error) {
	var st replayStats
	churnEvery := 0
	if rp.spec.churnPerSec > 0 {
		churnEvery = int(rp.spec.refRate / rp.spec.churnPerSec)
	}
	src := &msg.Message{Publisher: 0, Ingress: 0, Allowed: rp.spec.bound, SizeKB: rp.spec.sizeKB, Payload: rp.in.payload}
	period := 1000 / rp.spec.refRate // virtual ms between publications
	start := time.Now()
	chunk, chunkMsgs := start, 0
	var rates []float64
	for i := 0; i < rp.spec.replayMsgs; i++ {
		if i%64 == 0 {
			if now := time.Now(); now.Sub(chunk) >= replayChunk {
				rates = append(rates, float64(st.msgs-chunkMsgs)/now.Sub(chunk).Seconds())
				chunk, chunkMsgs = now, st.msgs
			}
		}
		if churnEvery > 0 && i%churnEvery == 0 {
			if err := rp.churnOp(tl); err != nil {
				return st, err
			}
		}
		slot := i % poolSize
		src.ID = msg.MakeID(0, uint32(i))
		src.Published = float64(i) * period
		src.Attrs = rp.in.attrs[slot]
		var tlm *spanLog
		if i%traceEvery == 0 {
			tlm = tl
		}
		n, got, err := rp.forward(src, tlm)
		if err != nil {
			return st, err
		}
		if got != rp.want[slot] {
			return st, fmt.Errorf("replay: message %d delivered to %d measured/resident subscriptions, filters match %d", i, got, rp.want[slot])
		}
		if tlm != nil {
			st.traced++
			st.matches += n
		}
		st.msgs++
	}
	if len(rates) == 0 {
		rates = append(rates, float64(st.msgs)/time.Since(start).Seconds())
	}
	st.rate = median(rates)
	return st, nil
}

// forward carries one message through the chain: at every broker the
// frame is encoded, decoded, matched and processed, and the entry
// enqueued toward the next hop is popped by the workload's strategy. It
// returns the edge's matched entries (traced messages only) and its
// deliveries to measured and resident subscriptions.
func (rp *replayer) forward(src *msg.Message, tl *spanLog) (int, int, error) {
	trace := uint64(src.ID)
	root := tl.begin("replay.message", 0, trace)
	defer tl.end(root)
	parent := tl.id(root)
	cur := src
	var prev *core.Entry
	now := src.Published
	matched, delivered := 0, 0
	for node := range rp.brokers {
		sp := tl.begin("msg.AppendMessageFrame", parent, trace)
		var err error
		rp.frame, err = msg.AppendMessageFrame(rp.frame[:0], cur)
		tl.end(sp)
		if err != nil {
			return 0, 0, err
		}
		if prev != nil {
			prev.Release()
			cur.Release()
		}
		rp.rd.Reset(rp.frame)
		fb := msg.GetFrameBuf()
		_, body, err := rp.fr.Next(fb)
		if err != nil {
			return 0, 0, err
		}
		m := msg.GetMessage()
		sp = tl.begin("msg.DecodeMessageInto", parent, trace)
		took, err := rp.dec.DecodeMessageInto(m, body, fb)
		tl.end(sp)
		if !took {
			fb.Release()
		}
		if err != nil {
			return 0, 0, err
		}
		if tl != nil && node == len(rp.brokers)-1 {
			// Traced runs time the edge table's match on its own; Process
			// below matches again as part of its work.
			sp = tl.begin("routing.MatchAppend", parent, trace)
			rp.matched = rp.tables[msg.NodeID(node)].MatchAppend(m, rp.matched[:0])
			tl.end(sp)
			matched = len(rp.matched)
		}
		sp = tl.begin("broker.Process", parent, trace)
		res := rp.procs[node].Process(m, now)
		tl.end(sp)
		if node == len(rp.brokers)-1 {
			for _, d := range res.Deliveries {
				if d.SubID < churnBase {
					delivered++
				} else if s := rp.churnSub(d.SubID); s == nil || !s.Filter.Match(m.Attrs) {
					return 0, 0, fmt.Errorf("replay: churn subscription %d got a message its filter rejects", d.SubID)
				}
			}
			m.Release()
			return matched, delivered, nil
		}
		switch len(res.EnqueuedHops) {
		case 0:
			// No subscription downstream matches: the message stops here.
			m.Release()
			return 0, 0, nil
		case 1:
		default:
			m.Release()
			return 0, 0, fmt.Errorf("replay: broker %d enqueued toward %d hops, the chain has one", node, len(res.EnqueuedHops))
		}
		q := rp.brokers[node].Queue(res.EnqueuedHops[0])
		q.Lock()
		sp = tl.begin("core.Prune", parent, trace)
		drops := q.Prune(now, rp.params)
		tl.end(sp)
		sp = tl.begin("core.PopNext", parent, trace)
		e, more := q.PopNext(core.MaxEB{}, now, rp.params)
		tl.end(sp)
		q.Unlock()
		if e == nil || len(drops)+len(more) > 0 {
			m.Release()
			return 0, 0, fmt.Errorf("replay: broker %d dropped a message with its whole bound left", node)
		}
		prev, cur = e, e.Data.(*msg.Message)
	}
	return matched, delivered, nil
}

func (rp *replayer) churnSub(id msg.SubID) *msg.Subscription {
	for _, s := range rp.churn {
		if s.ID == id {
			return s
		}
	}
	return nil
}

// churnOp mirrors one live churn operation on the replay tables: install
// a churn subscription on every broker and log its entries, or remove the
// oldest one, alternating once churnLive are installed.
func (rp *replayer) churnOp(tl *spanLog) error {
	k := rp.nextSub
	rp.nextSub++
	if len(rp.churn) < churnLive || k%2 == 0 {
		s := rp.in.churn[k%len(rp.in.churn)]
		trace := uint64(s.ID)
		sp := tl.begin("routing.InstallSub", 0, trace)
		routing.InstallSub(rp.tables, rp.ov, s, routing.Options{})
		tl.end(sp)
		rp.churn = append(rp.churn, s)
		if rp.store == nil {
			return nil
		}
		for _, t := range rp.tables {
			for _, src := range t.Sources() {
				for _, e := range t.Entries(src) {
					if e.Sub.ID != s.ID {
						continue
					}
					sp := tl.begin("durable.AppendEntry", 0, trace)
					err := rp.store.AppendEntry(durable.Entry{
						Sub: e.Sub, Source: e.Source, Next: e.Next, Hops: e.Hops, PathID: e.PathID,
						RateMean: e.Rate.Mean, RateSigma: e.Rate.Sigma, Relaxed: e.Relaxed,
					})
					tl.end(sp)
					if err != nil {
						return err
					}
				}
			}
		}
		return nil
	}
	s := rp.churn[0]
	rp.churn = append(rp.churn[:0], rp.churn[1:]...)
	sp := tl.begin("routing.RemoveSubAll", 0, uint64(s.ID))
	routing.RemoveSubAll(rp.tables, s.ID)
	tl.end(sp)
	if rp.store != nil {
		return rp.store.RemoveSub(s.ID)
	}
	return nil
}

// codecAllocs is the heap allocations of one message round trip through
// the codec (frame encode, then decode into a pooled message).
func codecAllocs(in *inputs, spec *liveSpec) float64 {
	const n = 10000
	src := &msg.Message{Allowed: spec.bound, SizeKB: spec.sizeKB, Payload: in.payload}
	var (
		buf []byte
		rd  bytes.Reader
		dec msg.Decoder
	)
	fr := msg.NewFrameReader(&rd)
	roundTrip := func(i int) {
		src.ID = msg.MakeID(0, uint32(i))
		src.Attrs = in.attrs[i%poolSize]
		buf, _ = msg.AppendMessageFrame(buf[:0], src)
		rd.Reset(buf)
		fb := msg.GetFrameBuf()
		_, body, _ := fr.Next(fb)
		m := msg.GetMessage()
		if took, _ := dec.DecodeMessageInto(m, body, fb); !took {
			fb.Release()
		}
		m.Release()
	}
	for i := 0; i < n; i++ {
		roundTrip(i) // warm the pools and the intern table
	}
	a0 := heapAllocs()
	for i := 0; i < n; i++ {
		roundTrip(i)
	}
	return float64(heapAllocs()-a0) / n
}
