package livenet

import (
	"fmt"
	"net"
	"net/http"
	"sort"
	"strings"
	"time"
)

// SLO observability: a hand-rolled text /metrics endpoint over the
// cluster's counters, in the Prometheus exposition format (name,
// optional labels, value per line) — scrapable by anything without
// pulling an instrumentation dependency into the tree.

// MetricsServer serves a cluster's counters over HTTP.
type MetricsServer struct {
	srv  *http.Server
	addr string
}

// Addr returns the bound listen address (useful with ":0").
func (s *MetricsServer) Addr() string { return s.addr }

// Close shuts the metrics listener down.
func (s *MetricsServer) Close() error { return s.srv.Close() }

// ServeMetrics binds addr and serves GET /metrics with the cluster's
// aggregate and per-node counters as plain text. The server runs until
// Close; scrape errors never touch the data plane.
func (c *Cluster) ServeMetrics(addr string) (*MetricsServer, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		w.Write([]byte(c.RenderMetrics()))
	})
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	ms := &MetricsServer{srv: srv, addr: l.Addr().String()}
	go srv.Serve(l)
	return ms, nil
}

// RenderMetrics renders the exposition text: cluster-wide totals, then
// per-broker gauges for the load signals an operator watches during an
// overload (queue occupancy, peak queue, shed and rejection counts). It
// reads a snapshot of the node set, so scrapes are safe while brokers
// restart.
func (c *Cluster) RenderMetrics() string {
	var b strings.Builder
	renderCounters(&b, c.TotalStats())
	nodes := c.snapshotNodes()
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].ID() < nodes[j].ID() })
	fmt.Fprintf(&b, "# HELP bdps_queue_depth Current output-queue occupancy per broker.\n# TYPE bdps_queue_depth gauge\n")
	for _, n := range nodes {
		fmt.Fprintf(&b, "bdps_queue_depth{broker=\"%d\"} %d\n", n.ID(), n.egress.Load())
	}
	fmt.Fprintf(&b, "# HELP bdps_queue_peak Largest output-queue occupancy per broker.\n# TYPE bdps_queue_peak gauge\n")
	for _, n := range nodes {
		fmt.Fprintf(&b, "bdps_queue_peak{broker=\"%d\"} %d\n", n.ID(), n.PeakQueue())
	}
	fmt.Fprintf(&b, "# HELP bdps_broker_up Whether the broker is running.\n# TYPE bdps_broker_up gauge\n")
	for _, n := range nodes {
		up := 1
		if n.Stopped() {
			up = 0
		}
		fmt.Fprintf(&b, "bdps_broker_up{broker=\"%d\"} %d\n", n.ID(), up)
	}
	return b.String()
}

// renderCounters writes one exposition counter per Stats field.
func renderCounters(b *strings.Builder, t Stats) {
	counter := func(name, help string, v int) {
		fmt.Fprintf(b, "# HELP bdps_%s %s\n# TYPE bdps_%s counter\nbdps_%s %d\n",
			name, help, name, name, v)
	}
	counter("receptions_total", "Messages received by brokers.", t.Receptions)
	counter("deliveries_total", "Messages delivered to subscribers.", t.Deliveries)
	counter("deliveries_valid_total", "Deliveries within their delay bound.", t.ValidDeliver)
	counter("drops_expired_total", "Queue entries dropped past their deadline.", t.DropsExpired)
	counter("drops_hopeless_total", "Queue entries dropped as unmeetable.", t.DropsHopeless)
	counter("drops_arrival_total", "Messages dropped on arrival.", t.DropsArrival)
	counter("drops_shed_total", "Queue entries shed under pressure (worst first).", t.DropsShed)
	counter("pubs_rejected_total", "Publications rejected by admission control.", t.PubsRejected)
	counter("duplicates_total", "Duplicate receptions suppressed.", t.Duplicates)
	counter("frames_lost_total", "Wire frames lost to the injected adversary.", t.FramesLost)
	counter("retransmits_total", "Frames retransmitted by the reliable channel.", t.Retransmits)
	counter("dups_suppressed_total", "Duplicate wire frames dropped by the reliable channel.", t.DupsSuppressed)
	counter("reordered_healed_total", "Out-of-order wire frames restored to FIFO order.", t.ReorderedHealed)
	counter("dropped_deadline_total", "Messages abandoned because no retry or replay could meet their bound.", t.DroppedDeadline)
	counter("floods_suppressed_total", "Subscribe floods covered by aggregation.", t.FloodsSuppressed)
	counter("stale_epoch_frames_total", "Data frames rejected as sent by a dead broker incarnation.", t.StaleEpochFrames)
	counter("sessions_resumed_total", "Subscriber sessions resumed after a reattach.", t.SessionsResumed)
	counter("msgs_replayed_total", "Messages replayed to resumed sessions.", t.MsgsReplayed)
}
