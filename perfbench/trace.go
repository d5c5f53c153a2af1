package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Spans of one message (or one churn op, or one sim cell) share
// Trace; Parent is the enclosing span's ID (0 for a root).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Trace  uint64 `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory, one log per recording goroutine so the
// hot paths take no lock, and writes them out at exit. A nil *tracer
// records nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	t0     time.Time
	nextID atomic.Uint64
	mu     sync.Mutex
	logs   []*spanLog
}

// maxSpans caps one log, so a long replay keeps its first spans instead
// of growing the trace file without bound.
const maxSpans = 1 << 16

// spanLog is one goroutine's span buffer.
type spanLog struct {
	tr    *tracer
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// log returns a new per-goroutine span buffer (nil on a nil tracer).
func (t *tracer) log() *spanLog {
	if t == nil {
		return nil
	}
	l := &spanLog{tr: t, spans: make([]span, 0, 1<<14)}
	t.mu.Lock()
	t.logs = append(t.logs, l)
	t.mu.Unlock()
	return l
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span and returns its index in the log (-1 when off or
// full).
func (l *spanLog) begin(name string, parent, trace uint64) int {
	if l == nil || len(l.spans) >= maxSpans {
		return -1
	}
	l.spans = append(l.spans, span{
		ID: l.tr.nextID.Add(1), Parent: parent, Trace: trace, Name: name, Start: l.tr.now(),
	})
	return len(l.spans) - 1
}

// end closes the span begin returned.
func (l *spanLog) end(i int) {
	if l == nil || i < 0 {
		return
	}
	l.spans[i].End = l.tr.now()
}

// id returns the ID of the span at index i (0 when off), for children.
func (l *spanLog) id(i int) uint64 {
	if l == nil || i < 0 {
		return 0
	}
	return l.spans[i].ID
}

// add records an already-measured interval (start and end in tracer
// time), for spans whose ends are observed on different goroutines.
func (l *spanLog) add(name string, parent, trace uint64, start, end int64) {
	if l == nil || len(l.spans) >= maxSpans {
		return
	}
	l.spans = append(l.spans, span{
		ID: l.tr.nextID.Add(1), Parent: parent, Trace: trace, Name: name, Start: start, End: end,
	})
}

// layerStat summarizes the spans of one name.
type layerStat struct {
	Count      int     `json:"count"`
	MedianNs   float64 `json:"median_ns"`
	MedianSelf float64 `json:"median_self_ns"`
	TotalNs    float64 `json:"total_ns"`
}

// summarize computes per-name duration and self-time medians. Self time
// is a span's duration minus the part of it its children cover.
func (t *tracer) summarize() map[string]layerStat {
	if t == nil {
		return nil
	}
	all := t.all()
	children := make(map[uint64][]int, len(all)/2)
	for i, s := range all {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	durs := make(map[string][]float64)
	selfs := make(map[string][]float64)
	for _, s := range all {
		d := float64(s.End - s.Start)
		durs[s.Name] = append(durs[s.Name], d)
		selfs[s.Name] = append(selfs[s.Name], d-covered(s, all, children[s.ID]))
	}
	out := make(map[string]layerStat, len(durs))
	for name, ds := range durs {
		var total float64
		for _, d := range ds {
			total += d
		}
		out[name] = layerStat{Count: len(ds), MedianNs: median(ds), MedianSelf: median(selfs[name]), TotalNs: total}
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(p span, all []span, kids []int) float64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		s, e := all[k].Start, all[k].End
		if s < p.Start {
			s = p.Start
		}
		if e > p.End {
			e = p.End
		}
		if e > s {
			iv = append(iv, [2]int64{s, e})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, curS, curE int64
	for i, v := range iv {
		if i == 0 || v[0] > curE {
			sum += curE - curS
			curS, curE = v[0], v[1]
		} else if v[1] > curE {
			curE = v[1]
		}
	}
	sum += curE - curS
	return float64(sum)
}

func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, l := range t.logs {
		n += len(l.spans)
	}
	out := make([]span, 0, n)
	for _, l := range t.logs {
		out = append(out, l.spans...)
	}
	return out
}

// write stores every span as one JSON line in path, followed by the
// per-name summary in path + ".summary.json".
func (t *tracer) write(path string, summary map[string]layerStat) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.all() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	b, err := json.MarshalIndent(summary, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path+".summary.json", b, 0o644); err != nil {
		return fmt.Errorf("write trace summary: %w", err)
	}
	return nil
}
