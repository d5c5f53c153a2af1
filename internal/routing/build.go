package routing

import (
	"fmt"

	"bdps/internal/msg"
	"bdps/internal/stats"
	"bdps/internal/topology"
)

// RateFunc supplies the per-KB rate distribution a broker believes a link
// has. The default uses the true distributions from the overlay graph
// (the paper assumes known parameters); the estimation ablation passes
// measured estimates instead.
type RateFunc func(from, to msg.NodeID) stats.Normal

// Options configures a routing build.
type Options struct {
	// Rates overrides the link-rate beliefs; nil means the overlay's true
	// distributions.
	Rates RateFunc
	// Multipath installs up to K paths per (ingress, subscription) when
	// K > 1. K = 0 or 1 is single-path (the paper's default).
	Multipath int
}

// Build computes the per-broker subscription tables for an overlay and a
// subscription population. Every subscription's edge broker must be listed
// in ov.Edges; every table is returned even if empty, so brokers can be
// constructed uniformly.
func Build(ov *topology.Overlay, subs []*msg.Subscription, opts Options) (map[msg.NodeID]*Table, error) {
	rates := opts.Rates
	if rates == nil {
		rates = func(from, to msg.NodeID) stats.Normal {
			r, ok := ov.Graph.Rate(from, to)
			if !ok {
				// Unreachable: Build only asks for rates of arcs on paths
				// returned by the graph itself.
				panic(fmt.Sprintf("routing: no arc %d->%d", from, to))
			}
			return r
		}
	}

	tables := make(map[msg.NodeID]*Table, ov.Graph.N())
	for id := 0; id < ov.Graph.N(); id++ {
		tables[msg.NodeID(id)] = NewTable(msg.NodeID(id))
	}

	edgeSet := make(map[msg.NodeID]bool, len(ov.Edges))
	for _, e := range ov.Edges {
		edgeSet[e] = true
	}

	k := opts.Multipath
	if k < 1 {
		k = 1
	}

	for _, src := range ov.Ingress {
		// One Dijkstra per ingress covers all single-path routes.
		dist, prev := ov.Graph.ShortestPaths(src)
		for _, sub := range subs {
			if !edgeSet[sub.Edge] {
				return nil, fmt.Errorf("routing: subscription %d attaches to non-edge broker %d", sub.ID, sub.Edge)
			}
			var paths [][]msg.NodeID
			if k == 1 {
				p, ok := pathVia(dist, prev, src, sub.Edge)
				if !ok {
					return nil, fmt.Errorf("routing: no path %d->%d for subscription %d", src, sub.Edge, sub.ID)
				}
				paths = [][]msg.NodeID{p}
			} else {
				paths = ov.Graph.KShortestPaths(src, sub.Edge, k)
				if len(paths) == 0 {
					return nil, fmt.Errorf("routing: no path %d->%d for subscription %d", src, sub.Edge, sub.ID)
				}
			}
			for pathID, path := range paths {
				installPath(tables, path, sub, src, pathID, rates)
			}
		}
	}
	return tables, nil
}

// Installer installs subscriptions into a table set after the bulk
// build — the churn path. It amortizes one Dijkstra per ingress across
// every Install call on the (static) overlay, exactly as the bulk Build
// amortizes it across the whole population, so a churn event stream
// costs path reconstruction, not a shortest-path computation per event.
type Installer struct {
	ov    *topology.Overlay
	rates RateFunc
	k     int
	// cached single-path Dijkstra state per ingress, computed lazily
	dist map[msg.NodeID][]float64
	prev map[msg.NodeID][]msg.NodeID
}

// NewInstaller prepares a churn installer for one overlay and build
// options.
func NewInstaller(ov *topology.Overlay, opts Options) *Installer {
	rates := opts.Rates
	if rates == nil {
		rates = func(from, to msg.NodeID) stats.Normal {
			r, _ := ov.Graph.Rate(from, to)
			return r
		}
	}
	k := opts.Multipath
	if k < 1 {
		k = 1
	}
	return &Installer{
		ov:    ov,
		rates: rates,
		k:     k,
		dist:  make(map[msg.NodeID][]float64),
		prev:  make(map[msg.NodeID][]msg.NodeID),
	}
}

// ingress returns (computing once) the Dijkstra state rooted at one
// ingress broker.
func (ins *Installer) ingress(src msg.NodeID) ([]float64, []msg.NodeID) {
	dist, ok := ins.dist[src]
	if !ok {
		dist, ins.prev[src] = ins.ov.Graph.ShortestPaths(src)
		ins.dist[src] = dist
	}
	return dist, ins.prev[src]
}

// Paths exposes the delivery path set the installer uses from one
// ingress to an edge broker (nil when unreachable). The topology-repair
// layer diffs these across graph mutations to find the routes a failure
// actually moved.
func (ins *Installer) Paths(src, edge msg.NodeID) [][]msg.NodeID {
	return ins.paths(src, edge)
}

// paths returns the delivery path set from one ingress to an edge (one
// cached-Dijkstra path, or K shortest paths in multipath mode); nil when
// unreachable.
func (ins *Installer) paths(src, edge msg.NodeID) [][]msg.NodeID {
	if ins.k == 1 {
		dist, prev := ins.ingress(src)
		p, ok := pathVia(dist, prev, src, edge)
		if !ok {
			return nil
		}
		return [][]msg.NodeID{p}
	}
	return ins.ov.Graph.KShortestPaths(src, edge, ins.k)
}

// Install adds one subscription's entries at every broker along its
// delivery paths: for each ingress the same deterministic min-mean path
// (or K shortest paths) the bulk build would have chosen. Tables with
// an enabled match index absorb the additions incrementally.
// Unreachable (ingress, edge) pairs are skipped, mirroring the live
// overlay's dynamic flood behavior. Returns the entries installed.
func (ins *Installer) Install(tables map[msg.NodeID]*Table, sub *msg.Subscription) int {
	installed := 0
	for _, src := range ins.ov.Ingress {
		for pathID, path := range ins.paths(src, sub.Edge) {
			installPath(tables, path, sub, src, pathID, ins.rates)
			installed += len(path)
		}
	}
	return installed
}

// InstallAt adds only the entries belonging to one broker along the
// subscription's paths — the live overlay's per-node flood handler,
// where every broker independently computes its own slice of the route.
// Returns the entries installed.
func (ins *Installer) InstallAt(id msg.NodeID, table *Table, sub *msg.Subscription) int {
	installed := 0
	for _, src := range ins.ov.Ingress {
		for pathID, path := range ins.paths(src, sub.Edge) {
			for i, at := range path {
				if at != id {
					continue
				}
				table.Add(EntryAt(path, i, sub, src, pathID, ins.rates))
				installed++
			}
		}
	}
	return installed
}

// InstallExcept is Install skipping one broker — the aggregation layer's
// re-exposure path, where a subscription already holds its local entries
// at its edge broker and only the forwarding entries elsewhere must
// materialize. Returns the entries installed.
func (ins *Installer) InstallExcept(tables map[msg.NodeID]*Table, sub *msg.Subscription, skip msg.NodeID) int {
	installed := 0
	for _, src := range ins.ov.Ingress {
		for pathID, path := range ins.paths(src, sub.Edge) {
			for i, at := range path {
				if at == skip {
					continue
				}
				tables[at].Add(EntryAt(path, i, sub, src, pathID, ins.rates))
				installed++
			}
		}
	}
	return installed
}

// InstallSub is the one-shot form of Installer.Install, for callers
// installing a single subscription.
func InstallSub(tables map[msg.NodeID]*Table, ov *topology.Overlay, sub *msg.Subscription, opts Options) int {
	return NewInstaller(ov, opts).Install(tables, sub)
}

// RemoveSubAll removes a subscription from every table — the churn
// counterpart of InstallSub — returning the total entries removed.
func RemoveSubAll(tables map[msg.NodeID]*Table, id msg.SubID) int {
	removed := 0
	for _, t := range tables {
		removed += t.RemoveSub(id)
	}
	return removed
}

// pathVia reconstructs the shortest path from precomputed Dijkstra state.
func pathVia(dist []float64, prev []msg.NodeID, src, dst msg.NodeID) ([]msg.NodeID, bool) {
	const unreachable = 1.7e308
	if dist[dst] > unreachable {
		return nil, false
	}
	var rev []msg.NodeID
	for at := dst; ; at = prev[at] {
		rev = append(rev, at)
		if at == src {
			break
		}
		if prev[at] == msg.None {
			return nil, false
		}
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev, true
}

// installPath writes one entry per broker along the path.
func installPath(tables map[msg.NodeID]*Table, path []msg.NodeID, sub *msg.Subscription, src msg.NodeID, pathID int, rates RateFunc) {
	for i := range path {
		tables[path[i]].Add(EntryAt(path, i, sub, src, pathID, rates))
	}
}

// EntryAt builds the routing entry for the broker at position i of a
// delivery path. The residual path is path[i..end]: Hops counts its
// links (each terminating at a broker that must still process the
// message, which is the paper's NN_p), and Rate sums the believed link
// distributions. Static table builds and the live overlay's dynamic
// subscription floods share this one definition.
func EntryAt(path []msg.NodeID, i int, sub *msg.Subscription, src msg.NodeID, pathID int, rates RateFunc) *Entry {
	l := len(path)
	e := &Entry{Sub: sub, Source: src, PathID: pathID}
	if i == l-1 {
		e.Next = msg.None
		e.Hops = 0
		e.Rate = stats.Normal{}
	} else {
		e.Next = path[i+1]
		e.Hops = l - 1 - i
		parts := make([]stats.Normal, 0, l-1-i)
		for j := i; j < l-1; j++ {
			parts = append(parts, rates(path[j], path[j+1]))
		}
		e.Rate = stats.SumNormal(parts...)
	}
	return e
}
