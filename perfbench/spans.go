package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"time"

	"xenic"
)

// span is one timed call into a layer, recorded by the benchmark around the
// public function it calls. High-frequency calls (Generator.Next, the
// Populate emit callback) are folded into one aggregate span per parent:
// Count calls whose durations sum to SumNs.
type span struct {
	ID     int            `json:"id"`
	Parent int            `json:"parent"` // 0: root
	Trace  string         `json:"trace"`  // shared by every span of one run
	Name   string         `json:"name"`
	Start  int64          `json:"start_ns"` // since the run started
	End    int64          `json:"end_ns"`
	Count  int64          `json:"count,omitempty"`
	SumNs  int64          `json:"sum_ns,omitempty"`
	Attrs  map[string]any `json:"attrs,omitempty"`
	agg    map[string]int // aggregate child spans by name
	parent *span
}

// spans keeps every span of a run in memory until write.
type spans struct {
	trace string
	t0    time.Time
	all   []*span
}

func newSpans(trace string) *spans { return &spans{trace: trace, t0: time.Now()} }

func (s *spans) now() int64 { return int64(time.Since(s.t0)) }

func (s *spans) begin(name string, parent *span) *span {
	sp := &span{ID: len(s.all) + 1, Trace: s.trace, Name: name, Start: s.now(), parent: parent}
	if parent != nil {
		sp.Parent = parent.ID
	}
	s.all = append(s.all, sp)
	return sp
}

func (s *spans) end(sp *span) { sp.End = s.now() }

// add folds one call of d into parent's aggregate child span name.
func (s *spans) add(parent *span, name string, start time.Time, d time.Duration) {
	if parent.agg == nil {
		parent.agg = map[string]int{}
	}
	i, ok := parent.agg[name]
	if !ok {
		sp := s.begin(name, parent)
		sp.Start = int64(start.Sub(s.t0))
		i = len(s.all) - 1
		parent.agg[name] = i
	}
	sp := s.all[i]
	sp.Count++
	sp.SumNs += int64(d)
	sp.End = int64(start.Sub(s.t0) + d)
}

// sum totals the duration of every span called name (SumNs for aggregates).
func (s *spans) sum(name string) (time.Duration, int64) {
	var d, n int64
	for _, sp := range s.all {
		if sp.Name != name {
			continue
		}
		if sp.Count > 0 {
			d += sp.SumNs
			n += sp.Count
		} else {
			d += sp.End - sp.Start
			n++
		}
	}
	return time.Duration(d), n
}

func (s *spans) write(path string) error {
	b, err := json.MarshalIndent(s.all, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// tracedGen wraps a workload generator, timing the calls the system makes
// into the workload layer: Populate (with its emit callback, i.e. the store
// inserts) during set-up and Next during the run. All other methods pass
// through, so the system sees the same inputs.
type tracedGen struct {
	xenic.Workload
	sp     *spans
	parent *span // span the next calls are children of
}

func (g *tracedGen) Populate(shard, nodes int, emit func(key uint64, value []byte)) {
	p := g.sp.begin("workload.populate", g.parent)
	p.Attrs = map[string]any{"shard": shard}
	g.Workload.Populate(shard, nodes, func(key uint64, value []byte) {
		t := time.Now()
		emit(key, value)
		g.sp.add(p, "store.insert", t, time.Since(t))
	})
	g.sp.end(p)
}

func (g *tracedGen) Next(node, thread int, rng *rand.Rand) *xenic.Txn {
	t := time.Now()
	d := g.Workload.Next(node, thread, rng)
	g.sp.add(g.parent, "workload.next", t, time.Since(t))
	return d
}
