package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strings"

	"xenic"
)

// telemetryInterval is the traced run's sampling period in simulated time.
const telemetryInterval = 50 * xenic.Microsecond

// snapshot is a flattened stats-registry snapshot: "cluster.txn.committed",
// "node3.nic.frames.tx_frames", ... -> value.
type snapshot map[string]float64

func takeSnapshot(reg *xenic.StatsRegistry) (snapshot, error) {
	b, err := reg.MarshalSnapshot()
	if err != nil {
		return nil, fmt.Errorf("stats snapshot: %w", err)
	}
	var doc map[string]any
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("stats snapshot: %w", err)
	}
	out := snapshot{}
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		switch v := v.(type) {
		case float64:
			out[prefix] = v
		case map[string]any:
			for k, x := range v {
				walk(prefix+"."+k, x)
			}
		}
	}
	for k, v := range doc {
		walk(k, v)
	}
	return out, nil
}

// nodes sums a per-node counter ("nic.frames.tx_frames") over every node.
func (s snapshot) nodes(suffix string) float64 {
	var v float64
	for i := 0; i < nodes; i++ {
		v += s[fmt.Sprintf("node%d.%s", i, suffix)]
	}
	return v
}

// traced is everything the traced run measures beyond the modeled results.
type traced struct {
	Model   modeled
	Window  window
	Spans   *spans
	Setup   *span    // the system constructor
	Warm    snapshot // registry at the end of warmup
	End     snapshot // registry at the end of the window
	Tel     *xenic.TelemetrySet
	Shares  map[string]float64
	Check   *xenic.CheckReport
	CheckS  float64
	Audit   error
	Drained bool
	Profile []byte
}

// runTraced runs one cell with the stats registry, telemetry sampler and
// history recorder attached, a CPU profile running over set-up and the run,
// and spans around every call the benchmark makes into the program.
func runTraced(w *workload, seed int64, runID string) (*traced, error) {
	runtime.GC()
	t := &traced{Spans: newSpans(runID)}
	sp := t.Spans
	reg := xenic.NewStatsRegistry()
	tel := xenic.NewTelemetry(telemetryInterval)
	hist := xenic.NewHistory()
	g := &tracedGen{Workload: w.gen(), sp: sp}

	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	root := sp.begin("cell", nil)
	root.Attrs = map[string]any{"workload": w.name, "seed": seed}
	setup := sp.begin(w.system+".new", root)
	g.parent = setup
	sys, err := w.build(g, seed, xenic.WithStats(reg), xenic.WithTelemetry(tel), xenic.WithHistory(hist))
	sp.end(setup)
	t.Setup = setup
	if err != nil {
		pprof.StopCPUProfile()
		return nil, fmt.Errorf("%s: build: %w", w.name, err)
	}
	warm := sp.begin("system.warmup", root)
	g.parent = warm
	var win *span
	var snapErr error
	t.Model, t.Window = measure(w, sys, false, func() {
		sp.end(warm)
		t.Warm, snapErr = takeSnapshot(reg)
		win = sp.begin("system.measure", root)
		g.parent = win
	})
	sp.end(win)
	pprof.StopCPUProfile()
	if snapErr != nil {
		return nil, snapErr
	}
	if t.End, err = takeSnapshot(reg); err != nil {
		return nil, err
	}
	t.Profile = prof.Bytes()

	dr := sp.begin("system.drain", root)
	g.parent = dr
	t.Drained = sys.Drain(drainDeadline)
	sp.end(dr)
	ck := sp.begin("check.history", root)
	t.Check = hist.Check()
	sp.end(ck)
	t.CheckS = float64(ck.End-ck.Start) / 1e9
	au := sp.begin("check.audit", root)
	t.Audit = sys.AuditHistory()
	sp.end(au)
	sp.end(root)

	t.Tel = tel.Set()
	// Telemetry ticks are engine events of their own; take them out so the
	// count is comparable with an untraced run.
	t.Model.Events -= uint64(t.ticks(w))
	if t.Shares, err = foldProfile(t.Profile); err != nil {
		return nil, err
	}
	return t, nil
}

// inWindow reports whether a sampler tick at ts (µs) falls inside the
// measurement window: Run(warm) ran every event up to and including warm.
func inWindow(w *workload, ts float64) bool {
	return ts > w.warm.Micros() && ts <= (w.warm+w.window).Micros()
}

// ticks counts sampler ticks inside the measurement window.
func (t *traced) ticks(w *workload) int {
	n := 0
	for _, ts := range t.Tel.TimesUs {
		if inWindow(w, ts) {
			n++
		}
	}
	return n
}

// windowMean averages every series whose name ends in suffix over the
// ticks inside the measurement window (and over nodes).
func (t *traced) windowMean(w *workload, suffix string) float64 {
	var sum float64
	var n int
	for _, se := range t.Tel.Series {
		if !strings.HasSuffix(se.Name, suffix) {
			continue
		}
		for i, ts := range t.Tel.TimesUs {
			if inWindow(w, ts) && i < len(se.Vals) {
				sum += se.Vals[i]
				n++
			}
		}
	}
	return ratio(sum, float64(n))
}

// delta is a counter's growth over the window, summed over nodes.
func (t *traced) delta(suffix string) float64 { return t.End.nodes(suffix) - t.Warm.nodes(suffix) }

// hitRate is the NIC index's useful outcomes (cache hits) over attempts
// (lookups) between two snapshots.
func hitRate(a, b snapshot) float64 {
	return ratio(b.nodes("nicindex.cache_hits")-a.nodes("nicindex.cache_hits"),
		b.nodes("nicindex.lookups")-a.nodes("nicindex.lookups"))
}
