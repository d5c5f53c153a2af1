package livenet

import (
	"sync"

	"bdps/internal/msg"
	"bdps/internal/runtime"
	"bdps/internal/vtime"
)

// This file is the broker side of resumable client sessions. Every
// locally attached subscriber has a session: each delivery travels to it
// as a FrameData frame carrying a per-session delivery sequence number,
// and the complete frame is retained in a bounded circular replay ring.
// A subscriber that loses its connection (client crash, edge network
// blip) redials and sends a FrameResume with its resume token
// (subscription id + last delivered sequence); the broker reattaches the
// connection and replays the ring entries past the token through the
// deadline gate: a retained delivery whose bound has already expired is
// dropped as DroppedDeadline — a resumed subscriber never receives a
// late message, and the sequence numbers make redelivery exactly-once.
//
// Shard workers deliver to one session concurrently (two publication
// streams land on different shards), and the client drops any frame at
// or below its cursor, so wire order must equal sequence order: the
// session mutex is held across the sequence assignment, the ring record
// and the write to the peer.

// sessionRingDefault bounds the per-session replay ring (shared with
// the simulator's session model so the resume ledgers agree).
const sessionRingDefault = runtime.SessionRingLimit

// sessionRingInit is the ring's first allocation. Short-lived sessions
// (subscription churn) retain a handful of deliveries and pay one ring
// allocation; long-lived ones grow by doubling to the bound.
const sessionRingInit = 16

// routes reports whether one of this broker's routing entries names the
// subscription. Caller holds n.mu; the scan is linear in the table —
// resumes are control-plane rare.
func (n *Node) routes(id msg.SubID) bool {
	for _, src := range n.table.Sources() {
		for _, e := range n.table.Entries(src) {
			if e.Sub.ID == id {
				return true
			}
		}
	}
	return false
}

// sessSlot is one retained delivery: its session sequence, the deadline
// data the resume gate needs, and the stamped FrameData wire frame
// (empty for plan-mode deliveries, which have no wire). The frame's
// storage is sized once and reused each time the ring wraps onto it.
type sessSlot struct {
	seq       uint64
	published vtime.Millis
	allowed   vtime.Millis
	frame     []byte
}

// session is one subscriber's resumable delivery state, guarded by mu.
// A nil peer marks a plan-mode suspended
// session: deliveries keep their sequence and deadline data for the
// resume accounting but have no wire to travel. lastAck is the
// plan-mode resume token: the sequence last delivered before a
// scheduled suspension (real clients carry their token themselves).
type session struct {
	mu      sync.Mutex
	peer    *peerConn
	seq     uint64 // last assigned delivery sequence
	lastAck uint64
	ring    []sessSlot // circular once full; head is the oldest slot
	head    int
}

// attach points the session at a new subscriber connection.
func (s *session) attach(peer *peerConn) {
	s.mu.Lock()
	s.peer = peer
	s.mu.Unlock()
}

// record assigns the next delivery sequence and retains the delivery in
// the replay ring, overwriting the oldest slot once the ring is full.
// tmpl is the delivery's FrameData frame with zero sequence numbers;
// it is copied into the slot and stamped there, and the slot's frame is
// returned. A nil tmpl records sequence and deadline data only. Caller
// holds s.mu.
func (s *session) record(tmpl []byte, published, allowed vtime.Millis) []byte {
	s.seq++
	var d *sessSlot
	if len(s.ring) < sessionRingDefault {
		if s.ring == nil {
			s.ring = make([]sessSlot, 0, sessionRingInit)
		}
		s.ring = append(s.ring, sessSlot{})
		d = &s.ring[len(s.ring)-1]
	} else {
		d = &s.ring[s.head]
		s.head = (s.head + 1) % len(s.ring)
	}
	d.seq, d.published, d.allowed = s.seq, published, allowed
	if cap(d.frame) < len(tmpl) {
		d.frame = make([]byte, len(tmpl))
	}
	d.frame = d.frame[:len(tmpl)]
	if len(tmpl) == 0 {
		return nil
	}
	copy(d.frame, tmpl)
	msg.StampDataFrame(d.frame, s.seq, s.seq)
	return d.frame
}

// deliver records one delivery and writes its frame to the attached
// subscriber, all under the session mutex. A failed write leaves the
// frame in the ring for the next resume.
func (s *session) deliver(tmpl []byte, published, allowed vtime.Millis) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.peer == nil {
		s.record(nil, published, allowed)
		return
	}
	if f := s.record(tmpl, published, allowed); f != nil {
		_ = s.peer.writeBuf(f) // dead subscribers are fine
	}
}

// replay walks the retained deliveries past token, oldest first. The
// deadline gate: at the edge the residual path is the local client
// connection — zero modeled delay, σ = 0 — so the admission CDF
// degenerates to "slack ≥ 0": a delivery whose bound still holds at now
// is passed to fn (when non-nil) and counted as replayed; an expired
// one is counted instead of arriving late. Caller holds s.mu.
func (s *session) replay(token uint64, now vtime.Millis, fn func(frame []byte)) (replayed, expired int) {
	for i := range s.ring {
		d := &s.ring[(s.head+i)%len(s.ring)]
		if d.seq <= token {
			continue // already delivered before the disconnect
		}
		if d.allowed <= 0 || now-d.published > d.allowed {
			expired++
			continue
		}
		replayed++
		if fn != nil {
			fn(d.frame)
		}
	}
	return replayed, expired
}

// accountResume charges one session resume and its replay outcome to
// the node counters and the metrics sink.
func (n *Node) accountResume(replayed, expired int) {
	n.cnt.sessionsResumed.Add(1)
	if n.sink != nil {
		n.sink.SessionResumed(1)
	}
	if expired > 0 {
		n.cnt.droppedDeadline.Add(int64(expired))
		if n.sink != nil {
			n.sink.DroppedDeadline(expired)
		}
	}
	n.cnt.msgsReplayed.Add(int64(replayed))
	if n.sink != nil && replayed > 0 {
		n.sink.MsgReplayed(replayed)
	}
}

// handleResume reattaches a reconnected subscriber and replays the
// retained deliveries past its resume token through the deadline gate.
// The peer swap and the replay writes happen under the session mutex, so
// every live delivery after the resume follows the replayed frames on
// the wire.
func (n *Node) handleResume(id msg.SubID, lastSeq uint64, peer *peerConn) {
	now := n.clock.Now()
	n.mu.Lock()
	sess, ok := n.sessions[id]
	if !ok {
		// A restarted incarnation lost its replay rings with the crash,
		// but the WAL reinstalled the routing entry: if this broker still
		// routes the subscription, reattach under a fresh session that
		// continues the client's sequence numbering — the retained window
		// died with the old process, so nothing replays, but later
		// deliveries must not fall below the client's dedup cursor.
		if !n.routes(id) {
			n.mu.Unlock()
			return // unknown subscription: nothing to reattach or replay
		}
		sess = &session{peer: peer}
		sess.seq = lastSeq
		n.sessions[id] = sess
	}
	n.mu.Unlock()

	sess.mu.Lock()
	defer sess.mu.Unlock()
	sess.peer = peer
	alive := true
	replayed, expired := sess.replay(lastSeq, now, func(f []byte) {
		if alive && len(f) > 0 && peer.writeBuf(f) != nil {
			alive = false // the reconnect died already; the next resume replays
		}
	})
	n.accountResume(replayed, expired)
}

// SessionSuspend begins broker-side delivery retention for one static
// subscription: the plan-mode half of a SessionDown fault, standing in
// for a real subscriber losing its connection. The current delivery
// sequence becomes the resume token SessionResume gates against.
func (n *Node) SessionSuspend(sub *msg.Subscription) {
	n.mu.Lock()
	s, ok := n.sessions[sub.ID]
	if !ok {
		s = new(session)
		n.sessions[sub.ID] = s
	}
	n.mu.Unlock()
	s.mu.Lock()
	s.lastAck = s.seq
	s.mu.Unlock()
}

// SessionResume ends a plan-mode session outage with the accounting a
// real client's FrameResume produces — session resumed, retained
// deliveries past the token replayed while their bound still holds,
// expired ones charged to DroppedDeadline — without any wire writes.
// A suspended session is dropped afterwards, so retention restarts
// fresh at the next suspension.
func (n *Node) SessionResume(id msg.SubID) {
	now := n.clock.Now()
	n.mu.Lock()
	defer n.mu.Unlock()
	sess, ok := n.sessions[id]
	if !ok {
		return
	}
	sess.mu.Lock()
	replayed, expired := sess.replay(sess.lastAck, now, nil)
	if sess.peer == nil {
		delete(n.sessions, id)
	}
	sess.mu.Unlock()
	n.accountResume(replayed, expired)
}
