package main

import (
	"math"
	"math/rand/v2"

	"bdps/internal/filter"
	"bdps/internal/msg"
)

// poolSize is the number of distinct generated attribute sets. Message
// sequence number s carries attrs[s % poolSize], so the expected match of
// every (subscription, message) pair is a table lookup on the receive
// path instead of a filter evaluation.
const poolSize = 4096

// Generated messages carry the numeric attributes A1 and A2, uniform on
// (0, attrHi). Resident and churn filters each match residentShare of
// them; churnPool distinct churn subscriptions are generated.
const (
	attrHi        = 10.0
	residentShare = 0.01
	churnPool     = 1 << 16
)

// inputs is everything a live workload feeds the system, generated from
// the seed alone.
type inputs struct {
	attrs   []msg.AttrSet
	payload []byte

	// measured are the connected subscribers whose deliveries the
	// benchmark judges; matches[i][slot] is the benchmark's own
	// evaluation of measured[i]'s filter on attrs[slot].
	measured []*msg.Subscription
	matches  [][]bool

	// residents are installed at the edge broker through Node.Subscribe;
	// churn is the pool the subscribe/unsubscribe churn draws from.
	residents []*msg.Subscription
	churn     []*msg.Subscription
}

// Subscription id ranges, disjoint so a delivery's id says which
// population it belongs to.
const (
	measuredBase = 1
	residentBase = 1 << 20
	churnBase    = 1 << 24
)

// generate builds a live workload's inputs.
func generate(spec *liveSpec, seed uint64, edge msg.NodeID) *inputs {
	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	in := &inputs{attrs: make([]msg.AttrSet, poolSize)}
	for i := range in.attrs {
		in.attrs[i] = msg.NewAttrSet(
			msg.Attr{Name: "A1", Val: filter.Num(rng.Float64() * attrHi)},
			msg.Attr{Name: "A2", Val: filter.Num(rng.Float64() * attrHi)},
		)
	}
	if spec.payload > 0 {
		in.payload = make([]byte, spec.payload)
		for i := range in.payload {
			in.payload[i] = byte(rng.Uint32())
		}
	}
	for i := 0; i < spec.wildcards; i++ {
		in.measured = append(in.measured, &msg.Subscription{
			ID: msg.SubID(measuredBase + i), Edge: edge, Filter: &filter.Filter{},
		})
	}
	if spec.selective > 0 {
		in.measured = append(in.measured, &msg.Subscription{
			ID: msg.SubID(measuredBase + len(in.measured)), Edge: edge,
			Filter: band(rng, spec.selective),
		})
	}
	for _, s := range in.measured {
		row := make([]bool, poolSize)
		for slot := range row {
			row[slot] = s.Filter.Match(in.attrs[slot])
		}
		in.matches = append(in.matches, row)
	}
	for i := 0; i < spec.residents; i++ {
		in.residents = append(in.residents, &msg.Subscription{
			ID: msg.SubID(residentBase + i), Edge: edge, Filter: band(rng, residentShare),
		})
	}
	for i := 0; spec.churnPerSec > 0 && i < churnPool; i++ {
		in.churn = append(in.churn, &msg.Subscription{
			ID: msg.SubID(churnBase + i), Edge: edge, Filter: band(rng, residentShare),
		})
	}
	return in
}

// band draws a box filter "lo1 < A1 < hi1 && lo2 < A2 < hi2" whose area
// is `share` of the attribute square, so it matches that share of the
// uniformly generated messages.
func band(rng *rand.Rand, share float64) *filter.Filter {
	side := attrHi * math.Sqrt(share)
	lo1 := rng.Float64() * (attrHi - side)
	lo2 := rng.Float64() * (attrHi - side)
	return filter.And(
		filter.Gt("A1", lo1), filter.Lt("A1", lo1+side),
		filter.Gt("A2", lo2), filter.Lt("A2", lo2+side),
	)
}
