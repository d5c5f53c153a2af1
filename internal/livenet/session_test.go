package livenet

import (
	"fmt"
	"net"
	grt "runtime"
	"sync"
	"testing"
	"time"

	"bdps/internal/core"
	"bdps/internal/filter"
	"bdps/internal/msg"
	"bdps/internal/runtime"
	"bdps/internal/vtime"
)

// collectDeliveries drains the subscriber into ids until want distinct
// messages arrived or the deadline passes, asserting every delivery is
// unique and within its bound.
func collectDeliveries(t *testing.T, s *Subscriber, ids map[msg.ID]bool, want int, deadline time.Duration) {
	t.Helper()
	until := time.Now().Add(deadline)
	for len(ids) < want {
		m, err := s.Receive(time.Until(until))
		if err != nil {
			t.Fatalf("after %d of %d deliveries: %v", len(ids), want, err)
		}
		if ids[m.ID] {
			t.Fatalf("message %d delivered twice: resume must be exactly-once", m.ID)
		}
		if !s.Valid(m, msg.PSD) {
			t.Fatalf("message %d delivered past its bound: a resumed session must never replay late", m.ID)
		}
		ids[m.ID] = true
	}
}

// TestSessionResumeUnderLoss is the client-facing half of session
// resumption, on a lossy network: a real subscriber receives a prefix of
// the stream, drops its connection mid-run while publications continue
// against the per-link loss/dup adversary, then reattaches with its
// resume token. The edge broker replays the retained window and the
// client's cursor dedups the seam — across the whole run every published
// message arrives exactly once, none past its bound, and the cluster
// shuts down without leaking a goroutine.
func TestSessionResumeUnderLoss(t *testing.T) {
	baseline := grt.NumGoroutine()

	c, err := StartCluster(ClusterConfig{
		Overlay:   tinyOverlay(t),
		Scenario:  msg.PSD,
		Strategy:  core.MaxEB{},
		TimeScale: 0.002,
		Seed:      1,
		// The same deterministic adversary the crossval tests use: every
		// arc drops a fifth of its frames and duplicates a twentieth; the
		// reliable channel retransmits and dedups underneath the session.
		LinkLoss: &runtime.LinkLoss{From: msg.None, To: msg.None, Rate: 0.2, Dup: 0.05},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	sub := &msg.Subscription{ID: 1, Edge: 2, Filter: &filter.Filter{}}
	s, err := DialSubscriber(c.Addr(2), sub)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // subscription flood

	p, err := DialPublisher(c.Addr(0), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	attrs := msg.NumAttrs(map[string]float64{"A1": 1, "A2": 2})
	publish := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			// A generous bound: loss retries must never push a delivery
			// past it, so "zero late deliveries" is asserted absolutely.
			if _, err := p.Publish(0, attrs, 1, 5*vtime.Minute, nil); err != nil {
				t.Fatal(err)
			}
		}
	}

	got := make(map[msg.ID]bool)
	publish(10)
	collectDeliveries(t, s, got, 10, 10*time.Second)

	// The session drops: the subscriber's connection dies, but the broker
	// keeps matching — deliveries land in the session's replay ring.
	tok := s.Token()
	s.Close()
	publish(10)
	time.Sleep(300 * time.Millisecond) // let the in-flight tail reach the ring

	// Resume: the broker replays the retained window past the token; the
	// client cursor drops anything it already saw.
	r, err := ResumeSubscriber(c.Addr(2), sub, tok)
	if err != nil {
		t.Fatal(err)
	}
	collectDeliveries(t, r, got, 20, 10*time.Second)

	// The resumed session keeps receiving live traffic after the replay.
	publish(5)
	collectDeliveries(t, r, got, 25, 10*time.Second)
	r.Close()

	total := c.TotalStats()
	if total.MsgsReplayed == 0 {
		t.Error("edge broker replayed nothing: deliveries during the outage should come from the ring")
	}
	if total.SessionsResumed != 1 {
		t.Errorf("sessions resumed = %d, want 1", total.SessionsResumed)
	}
	if total.FramesLost == 0 {
		t.Error("adversary lost nothing: the loss path was not exercised")
	}

	c.Stop()
	deadline := time.Now().Add(5 * time.Second)
	for grt.NumGoroutine() > baseline+2 {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := grt.Stack(buf, true)
			t.Fatalf("goroutines leaked after Stop: %d > baseline %d\n%s",
				grt.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSessionResumeAcrossBrokerRestart drives the full crash-restart
// story with real clients: the edge broker crashes (taking the replay
// ring and the subscriber's connection with it), restarts warm from its
// WAL, and the client reattaches with its resume token against the new
// incarnation. The recovered routing table must keep matching without
// any re-subscription, and the seam stays exactly-once.
func TestSessionResumeAcrossBrokerRestart(t *testing.T) {
	c, err := StartCluster(ClusterConfig{
		Overlay:   tinyOverlay(t),
		Scenario:  msg.PSD,
		Strategy:  core.MaxEB{},
		TimeScale: 0.002,
		Seed:      1,
		StateRoot: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	sub := &msg.Subscription{ID: 1, Edge: 2, Filter: &filter.Filter{}}
	s, err := DialSubscriber(c.Addr(2), sub)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // subscription flood (logged to the WAL)

	p, err := DialPublisher(c.Addr(0), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	attrs := msg.NumAttrs(map[string]float64{"A1": 1, "A2": 2})

	got := make(map[msg.ID]bool)
	for i := 0; i < 5; i++ {
		if _, err := p.Publish(0, attrs, 1, 5*vtime.Minute, nil); err != nil {
			t.Fatal(err)
		}
	}
	collectDeliveries(t, s, got, 5, 10*time.Second)

	// Crash the edge: the subscriber's session dies with it.
	tok := s.Token()
	s.Close()
	oldEpoch := c.Node(2).Epoch()
	c.Node(2).Crash()
	n, err := c.RestartNode(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st, ok := n.Restarted(); !ok || len(st.Entries) == 0 {
		t.Fatal("restarted edge recovered no durable entries")
	}
	if n.Epoch() <= oldEpoch {
		t.Errorf("epoch did not advance across restart: %d → %d", oldEpoch, n.Epoch())
	}

	// Resume against the new incarnation: the ring died with the crash,
	// so nothing replays, but the recovered table keeps matching and the
	// resumed session receives everything published from here on.
	r, err := ResumeSubscriber(c.Addr(2), sub, tok)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	time.Sleep(100 * time.Millisecond) // resume handshake
	for i := 0; i < 5; i++ {
		if _, err := p.Publish(0, attrs, 1, 5*vtime.Minute, nil); err != nil {
			t.Fatal(err)
		}
	}
	collectDeliveries(t, r, got, 10, 10*time.Second)

	if n := c.Node(2).Stats().SessionsResumed; n != 1 {
		t.Errorf("sessions resumed at the new incarnation = %d, want 1", n)
	}
}

// TestRestartResumeSoak cycles the edge broker through five
// crash→restart→resume rounds on one WAL. Every round must recover the
// routing state from the log, reattach the same client session under a
// strictly rising incarnation epoch, and deliver the round's traffic
// exactly once; after the final Stop the goroutine count returns to the
// pre-cluster baseline — five rebirths leak nothing.
func TestRestartResumeSoak(t *testing.T) {
	baseline := grt.NumGoroutine()

	c, err := StartCluster(ClusterConfig{
		Overlay:   tinyOverlay(t),
		Scenario:  msg.PSD,
		Strategy:  core.MaxEB{},
		TimeScale: 0.002,
		Seed:      1,
		StateRoot: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	sub := &msg.Subscription{ID: 1, Edge: 2, Filter: &filter.Filter{}}
	s, err := DialSubscriber(c.Addr(2), sub)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // subscription flood (logged to the WAL)

	p, err := DialPublisher(c.Addr(0), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	attrs := msg.NumAttrs(map[string]float64{"A1": 1, "A2": 2})

	got := make(map[msg.ID]bool)
	epoch := c.Node(2).Epoch()
	for round := 1; round <= 5; round++ {
		tok := s.Token()
		s.Close()
		c.Node(2).Crash()
		n, err := c.RestartNode(2, nil)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if st, ok := n.Restarted(); !ok || len(st.Entries) == 0 {
			t.Fatalf("round %d: restarted edge recovered no durable entries", round)
		}
		if e := n.Epoch(); e <= epoch {
			t.Fatalf("round %d: epoch did not advance: %d → %d", round, epoch, e)
		} else {
			epoch = e
		}
		s, err = ResumeSubscriber(c.Addr(2), sub, tok)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		time.Sleep(100 * time.Millisecond) // resume handshake
		for i := 0; i < 3; i++ {
			if _, err := p.Publish(0, attrs, 1, 5*vtime.Minute, nil); err != nil {
				t.Fatal(err)
			}
		}
		collectDeliveries(t, s, got, 3*round, 10*time.Second)
	}
	s.Close()
	if n := len(got); n != 15 {
		t.Errorf("delivered %d distinct messages across 5 rounds, want 15", n)
	}

	c.Stop()
	deadline := time.Now().Add(5 * time.Second)
	for grt.NumGoroutine() > baseline+2 {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := grt.Stack(buf, true)
			t.Fatalf("goroutines leaked after 5 restart cycles: %d > baseline %d\n%s",
				grt.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSessionRingBounded pins the replay ring's memory bound: with far
// more deliveries retained than SessionRingLimit, a resume replays only
// the newest window — never an unbounded backlog.
func TestSessionRingBounded(t *testing.T) {
	c, err := StartCluster(ClusterConfig{
		Overlay:   tinyOverlay(t),
		Scenario:  msg.PSD,
		Strategy:  core.MaxEB{},
		TimeScale: 1e-9, // pacing off: this is a volume test
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	sub := &msg.Subscription{ID: 1, Edge: 2, Filter: &filter.Filter{}}
	s, err := DialSubscriber(c.Addr(2), sub)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	if _, err := s.Receive(0); err == nil {
		t.Fatal("unexpected delivery before any publication")
	}
	tok := s.Token()
	s.Close()

	p, err := DialPublisher(c.Addr(0), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	attrs := msg.NumAttrs(map[string]float64{"A1": 1, "A2": 2})
	over := runtime.SessionRingLimit + 100
	for i := 0; i < over; i++ {
		if _, err := p.Publish(0, attrs, 0.001, vtime.Hour, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Quiesce: every publication must have reached the edge's ring.
	deadline := time.Now().Add(10 * time.Second)
	for !c.Quiescent(over) {
		if time.Now().After(deadline) {
			t.Fatalf("cluster did not quiesce:\n%s", c.LoadReport())
		}
		time.Sleep(5 * time.Millisecond)
	}

	r, err := ResumeSubscriber(c.Addr(2), sub, tok)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got := 0
	for {
		if _, err := r.Receive(2 * time.Second); err != nil {
			break
		}
		got++
	}
	if got > runtime.SessionRingLimit {
		t.Errorf("resume replayed %d messages, want ≤ the ring bound %d", got, runtime.SessionRingLimit)
	}
	if got < runtime.SessionRingLimit/2 {
		t.Errorf("resume replayed only %d messages, want a full-ish ring (limit %d)", got, runtime.SessionRingLimit)
	}
	if n := c.Node(2).Stats().MsgsReplayed; n != got {
		t.Errorf("broker counted %d replays, client saw %d", n, got)
	}
}

// TestSessionResumeCrossShard resumes one sessionful subscriber fed by
// two publication streams that land on different shards at the edge:
// the subscriber receives a prefix of both streams, disconnects while
// both keep publishing, and resumes with its token. Each stream must
// arrive exactly once and in publication order across the seam — the
// replay, then live traffic — with no delivery late.
func TestSessionResumeCrossShard(t *testing.T) {
	c, err := StartCluster(ClusterConfig{
		Overlay:  tinyOverlay(t),
		Scenario: msg.PSD,
		// FIFO: per-queue service order equals arrival order, so any
		// reordering can only come from the shards or the session.
		Strategy:  core.FIFO{},
		TimeScale: 0.002,
		Seed:      1,
		Shards:    4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	sub := &msg.Subscription{ID: 1, Edge: 2, Filter: &filter.Filter{}}
	s, err := DialSubscriber(c.Addr(2), sub)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // subscription flood

	var pubs []*Publisher
	for id := msg.NodeID(0); id < 2; id++ {
		p, err := DialPublisher(c.Addr(0), id)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		pubs = append(pubs, p)
	}
	const perPhase = 20
	injected := 0
	publish := func() {
		t.Helper()
		for i := 0; i < perPhase; i++ {
			for _, p := range pubs {
				if _, err := p.Publish(0, msg.NumAttrs(map[string]float64{"A1": float64(i)}),
					2, 60*vtime.Second, nil); err != nil {
					t.Fatal(err)
				}
				injected++
			}
		}
	}
	got := make(map[msg.NodeID][]uint32)
	receive := func(s *Subscriber, want int) {
		t.Helper()
		for n := len(got[0]) + len(got[1]); n < want; n++ {
			m, err := s.Receive(5 * time.Second)
			if err != nil {
				t.Fatalf("delivery %d/%d: %v", n, want, err)
			}
			if !s.Valid(m, msg.PSD) {
				t.Fatalf("message %d delivered past its bound", m.ID)
			}
			got[m.Publisher] = append(got[m.Publisher], uint32(uint64(m.ID)))
		}
	}

	publish()
	receive(s, 2*perPhase)
	tok := s.Token()
	s.Close()
	publish()
	deadline := time.Now().Add(10 * time.Second)
	for !c.Quiescent(injected) {
		if time.Now().After(deadline) {
			t.Fatalf("cluster did not quiesce:\n%s", c.LoadReport())
		}
		time.Sleep(5 * time.Millisecond)
	}
	r, err := ResumeSubscriber(c.Addr(2), sub, tok)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	publish()
	receive(r, 6*perPhase)
	if m, err := r.Receive(200 * time.Millisecond); err == nil {
		t.Fatalf("extra delivery %d after every message arrived", m.ID)
	}

	for id := msg.NodeID(0); id < 2; id++ {
		seqs := got[id]
		if len(seqs) != 3*perPhase {
			t.Fatalf("publisher %d: %d deliveries, want %d", id, len(seqs), 3*perPhase)
		}
		for i, seq := range seqs {
			if seq != uint32(i) {
				t.Fatalf("publisher %d: delivery %d is message %d: stream not exactly once in order", id, i, seq)
			}
		}
	}
	total := c.TotalStats()
	if total.SessionsResumed != 1 || total.MsgsReplayed != 2*perPhase {
		t.Errorf("resumed %d sessions replaying %d messages, want 1 and %d",
			total.SessionsResumed, total.MsgsReplayed, 2*perPhase)
	}
	if total.DroppedDeadline != 0 {
		t.Errorf("%d deliveries dropped on deadline, want 0", total.DroppedDeadline)
	}
}

// TestSessionConcurrentDeliveryWireOrder pins the session's wire order:
// shard workers deliver to one session concurrently, and the client
// drops any frame at or below its cursor, so frames must leave in
// sequence order — numbering, recording and writing under one lock.
func TestSessionConcurrentDeliveryWireOrder(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	s := &session{peer: &peerConn{conn: a}}
	tmpl, err := msg.AppendDataFrame(nil, 0, 0, 1, &msg.Message{ID: 1, Allowed: vtime.Hour})
	if err != nil {
		t.Fatal(err)
	}
	const workers, each = 4, 500
	done := make(chan error, 1)
	go func() {
		defer b.Close() // a failed check unblocks the writers
		fr := msg.NewFrameReader(b)
		var fb msg.FrameBuf
		for want := uint64(1); want <= workers*each; want++ {
			_, body, err := fr.Next(&fb)
			if err != nil {
				done <- err
				return
			}
			if seq, _, _, _, err := msg.DecodeDataHeader(body); err != nil || seq != want {
				done <- fmt.Errorf("frame %d on the wire carries seq %d (err %v)", want, seq, err)
				return
			}
		}
		done <- nil
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				s.deliver(tmpl, 0, vtime.Hour)
			}
		}()
	}
	wg.Wait()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestSessionRecordAllocFree pins the replay ring's steady state: once
// the ring is full, recording a delivery reuses the oldest slot and its
// frame storage — no allocation — and the slot holds the complete
// FrameData frame stamped with the delivery's sequence.
func TestSessionRecordAllocFree(t *testing.T) {
	m := &msg.Message{
		ID: 1, Publisher: 1, Published: 0, Allowed: vtime.Hour, SizeKB: 1,
		Attrs:   msg.NumAttrs(map[string]float64{"A1": 1}),
		Payload: make([]byte, 512),
	}
	tmpl, err := msg.AppendDataFrame(nil, 0, 0, 7, m)
	if err != nil {
		t.Fatal(err)
	}
	s := new(session)
	for i := 0; i < sessionRingDefault; i++ {
		s.record(tmpl, 0, vtime.Hour)
	}
	if allocs := testing.AllocsPerRun(1000, func() { s.record(tmpl, 0, vtime.Hour) }); allocs != 0 {
		t.Fatalf("record on a full ring: %.1f allocs, want 0", allocs)
	}
	if len(s.ring) != sessionRingDefault {
		t.Fatalf("ring holds %d slots, want %d", len(s.ring), sessionRingDefault)
	}
	next := s.seq - uint64(sessionRingDefault) + 1
	replayed, _ := s.replay(0, 0, func(f []byte) {
		seq, base, epoch, body, err := msg.DecodeDataHeader(f[8:]) // past the frame header
		if err != nil || seq != next || base != seq || epoch != 7 {
			t.Fatalf("slot frame: seq %d base %d epoch %d err %v, want seq %d", seq, base, epoch, err, next)
		}
		if _, err := msg.DecodeMessage(body); err != nil {
			t.Fatalf("slot %d body: %v", seq, err)
		}
		next++
	})
	if replayed != sessionRingDefault || next != s.seq+1 {
		t.Fatalf("replayed %d slots ending before %d, want %d ending at %d", replayed, next, sessionRingDefault, s.seq)
	}
}
