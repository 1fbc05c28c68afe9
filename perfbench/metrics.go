package main

import (
	"fmt"
	"slices"
	"time"
)

// metric is one named, unit-carrying number the benchmark reports.
type metric struct {
	Name  string  `json:"-"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricList []metric

func (l *metricList) add(name, unit string, v float64) {
	*l = append(*l, metric{Name: name, Value: v, Unit: unit})
}

func (l metricList) byName() map[string]metric {
	out := make(map[string]metric, len(l))
	for _, m := range l {
		out[m.Name] = m
	}
	return out
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// endToEnd is what a user of the simulator sees, from untraced cells: the
// simulator's cost (medians over the cells of the run) and the modeled
// system's results in simulated time (identical in every cell).
func endToEnd(cells []cell, peakRSS int64) metricList {
	var setup []float64
	for _, c := range cells {
		setup = append(setup, c.setupRefS())
	}
	m := cells[0].Model
	var l metricList
	l.add("setup_s", "s", median(setup))
	l.add("peak_rss_mb", "MB", float64(peakRSS)/(1<<20))
	l.add("tput_per_server", "txn/s", m.Tput)
	l.add("mean_us", "us", m.Result.Mean.Micros())
	l.add("attempts_per_commit", "count", m.attemptsPerCommit())
	return l
}

// rates is the simulator's speed over the window: commits per wall second
// and per reference second (medians over cells). Host phases move both by
// up to 30% between runs, more than any end-to-end bound allows, so they
// are per-layer metrics, not gated ones.
func rates(cells []cell) metricList {
	var wall, ref []float64
	for _, c := range cells {
		wall = append(wall, c.commitsPerWallS())
		ref = append(ref, c.commitsPerRefS())
	}
	var l metricList
	l.add("commits_per_wall_s", "1/s", median(wall))
	l.add("commits_per_ref_s", "1/s", median(ref))
	return l
}

// reportOnly are end-to-end numbers printed in the report and the result
// file but kept out of the JSON metrics: the raw set-up time (the JSON
// setup_s is scaled by the reference task), the simulator's
// speed (see rates), and modeled numbers that cannot gate. The latency
// quantiles come from log histograms with 8 sub-buckets per octave and read
// the same bucket for every seed; abort_rate spreads by about 30% across
// seeds where aborts are rare (attempts_per_commit carries it steadily);
// and failed_frac is zero on these workloads.
func reportOnly(cells []cell) metricList {
	var setup []float64
	for _, c := range cells {
		setup = append(setup, c.Setup.Seconds())
	}
	m := cells[0].Model
	var l metricList
	l.add("setup_wall_s", "s", median(setup))
	l = append(l, rates(cells)...)
	l.add("abort_rate", "frac", m.abortRate())
	l.add("p50_us", "us", m.P50us)
	l.add("p99_us", "us", m.P99us)
	l.add("latency_samples", "count", float64(m.Samples))
	l.add("failed_frac", "frac", ratio(float64(m.FailedOps), float64(m.Attempted)))
	return l
}

var phases = []string{"execute", "validate", "log", "commit", "shipped", "host-exec"}

// perLayer derives every layer's metrics from the traced run t, with the
// untraced cells u of the same seed supplying the Go runtime's accounting
// and the overhead baseline. Layers a workload bypasses report 0.
func perLayer(w *workload, t *traced, u []cell) metricList {
	var l metricList
	m := t.Model
	commits := float64(m.Committed)
	per := func(x float64) float64 { return ratio(x, commits) }
	res := m.Result
	attempts := float64(res.Committed + res.Aborts)

	var evps, allocs, bytes, gcs, gccpu, cpws []float64
	for _, c := range u {
		evps = append(evps, c.eventsPerWallS())
		allocs = append(allocs, ratio(float64(c.Runtime.Mallocs), float64(c.Model.Committed)))
		bytes = append(bytes, ratio(float64(c.Runtime.Bytes), float64(c.Model.Committed)))
		gcs = append(gcs, float64(c.Runtime.GCCycles))
		gccpu = append(gccpu, c.Runtime.GCCPU)
		cpws = append(cpws, c.commitsPerWallS())
	}
	l = append(l, rates(u)...)
	l.add("sim.events_per_commit", "count", m.eventsPerCommit())
	l.add("sim.events_per_wall_s", "1/s", median(evps))

	setupD := time.Duration(t.Setup.End - t.Setup.Start)
	popD, _ := t.Spans.sum("workload.populate")
	storeD, records := t.Spans.sum("store.insert")
	l.add("setup.populate_store_s", "s", storeD.Seconds())
	l.add("setup.populate_gen_s", "s", (popD - storeD).Seconds())
	l.add("setup.other_s", "s", (setupD - popD).Seconds())
	l.add("setup.records", "count", float64(records))

	l.add("runtime.allocs_per_commit", "count", median(allocs))
	l.add("runtime.bytes_per_commit", "B", median(bytes))
	l.add("runtime.gc_cycles", "count", median(gcs))
	l.add("runtime.gc_cpu_frac", "frac", median(gccpu))

	for _, mod := range modules {
		l.add("wall_share."+mod, "frac", t.Shares[mod])
	}

	nextD, nexts := t.Spans.sum("workload.next")
	l.add("workload.next_ns", "ns", ratio(float64(nextD.Nanoseconds()), float64(nexts)))

	xenicSys := w.system == "xenic"
	for _, ph := range phases {
		l.add("core.phase."+ph+"_mean_us", "us", t.End["cluster.phase."+ph+".mean_us"])
	}
	abort := func(n int64) float64 {
		if !xenicSys {
			return 0
		}
		return ratio(float64(n), attempts)
	}
	l.add("core.abort.locked_per_attempt", "frac", abort(res.AbortLocked))
	l.add("core.abort.version_per_attempt", "frac", abort(res.AbortVersion))
	l.add("core.abort.missing_per_attempt", "frac", abort(res.AbortMissing))
	l.add("core.abort.snapshot_per_attempt", "frac", abort(res.AbortSnapshot))
	inline := t.End["cluster.txn.snap_inline"] - t.Warm["cluster.txn.snap_inline"]
	walks := t.End["cluster.txn.snap_walks"] - t.Warm["cluster.txn.snap_walks"]
	l.add("core.snap_inline_frac", "frac", ratio(inline, inline+walks))
	l.add("core.snap_walks_per_ro", "count", ratio(walks, float64(res.SnapCommitted)))

	l.add("nicrt.msgs_per_frame", "count", ratio(t.delta("nic.frames.tx_msgs"), t.delta("nic.frames.tx_frames")))
	l.add("nicrt.occupancy", "frac", t.windowMean(w, ".nic.occupancy"))
	l.add("nicrt.queue_depth", "count", t.windowMean(w, ".nic.queue_depth"))
	l.add("nicrt.host_msgs_per_commit", "count", per(t.delta("nic.frames.host_rx_msgs")+t.delta("nic.frames.host_tx_msgs")))
	l.add("nicrt.dma_retries", "count", t.delta("nic.frames.dma_retries"))

	subs := t.delta("nic.pcie.submissions")
	l.add("pcie.submissions_per_commit", "count", per(subs))
	l.add("pcie.elements_per_submission", "count", ratio(t.delta("nic.pcie.elements"), subs))
	l.add("pcie.bytes_per_commit", "B", per(t.delta("nic.pcie.bytes")))
	l.add("pcie.occupancy", "frac", t.windowMean(w, ".dma.occupancy"))
	l.add("pcie.backlog", "us", t.windowMean(w, ".dma.backlog_us"))

	l.add("nicindex.hit_rate", "frac", hitRate(t.Warm, t.End))
	l.add("nicindex.hit_rate_warmup", "frac", hitRate(snapshot{}, t.Warm))
	l.add("nicindex.dma_lookups_per_commit", "count", per(t.delta("nicindex.dma_lookups")))
	l.add("nicindex.evictions_per_commit", "count", per(t.delta("nicindex.evictions")))

	l.add("simnet.frames_per_commit", "count", per(t.delta("nic.frames.tx_frames")))
	l.add("simnet.tx_occupancy", "frac", t.windowMean(w, ".net.tx_occupancy"))

	l.add("hostrt.occupancy", "frac", t.windowMean(w, ".host.occupancy"))
	l.add("hostrt.queue_depth", "count", t.windowMean(w, ".host.queue_depth"))

	for _, v := range []string{"reads", "writes", "sends", "atomics"} {
		l.add("rdma."+v+"_per_commit", "count", per(t.End["cluster.rdma."+v]-t.Warm["cluster.rdma."+v]))
	}
	l.add("rdma.bytes_per_commit", "B", per(t.End["cluster.rdma.bytes_out"]-t.Warm["cluster.rdma.bytes_out"]))

	babort := func(n int64) float64 {
		if xenicSys {
			return 0
		}
		return ratio(float64(n), attempts)
	}
	l.add("baseline.abort.locked_per_attempt", "frac", babort(res.AbortLocked))
	l.add("baseline.abort.version_per_attempt", "frac", babort(res.AbortVersion))

	ld := m.Load
	l.add("openloop.admitted_frac", "frac", ratio(float64(ld.Admitted), float64(ld.Offered)))
	l.add("openloop.inflight", "count", t.windowMean(w, "load.inflight"))

	l.add("check.s", "s", t.CheckS)
	l.add("check.txns", "count", float64(t.Check.Txns))
	l.add("check.edges", "count", float64(t.Check.Edges))

	tracedCPWS := ratio(commits, t.Window.Wall.Seconds())
	l.add("trace.overhead", "frac", ratio(median(cpws), tracedCPWS)-1)
	return l
}

// reportOnlyLayer are per-layer numbers kept out of the JSON
// metrics: with no admission limit the open loop never queues, so the
// admission-queue delay is zero by construction.
func reportOnlyLayer(t *traced) metricList {
	var l metricList
	l.add("openloop.queue_delay_p99_us", "us", t.Model.Load.QueueDelayP99.Micros())
	return l
}

func (m metric) String() string { return fmt.Sprintf("%-40s %16.6g %s", m.Name, m.Value, m.Unit) }
