// Package runner is the run skeleton shared by the Xenic cluster
// (internal/core) and the baseline clusters (internal/baseline): the load
// state and Start/StopLoad/Run/Drain, the Measure window, and observer
// attachment together with the stats entries and telemetry series both
// systems expose. Each cluster embeds a Skeleton and supplies only what is
// really its own — how it drains, its extra counters and its
// system-specific probes — through the hooks in Parts.
package runner

import (
	"fmt"

	"xenic/internal/check"
	"xenic/internal/fault"
	"xenic/internal/hostrt"
	"xenic/internal/load"
	"xenic/internal/metrics"
	"xenic/internal/sim"
	"xenic/internal/simnet"
	"xenic/internal/telemetry"
	"xenic/internal/trace"
	"xenic/internal/txnmodel"
	"xenic/internal/wire"
)

// Counters are the per-node transaction counters every system keeps. Both
// systems' Stats structs embed them, so the skeleton measures and observes
// either system through the same fields.
type Counters struct {
	Committed int64 // committed transactions
	Measured  int64 // committed transactions the workload counts (e.g. new orders)
	Failed    int64 // transactions abandoned after MaxRetries
	Aborts    int64 // abort events (each triggers a retry until the cap)
	// UpdateKeysCommitted counts update keys across committed transactions;
	// correctness tests compare it against observable state (e.g. counter
	// sums) to detect lost or duplicated updates.
	UpdateKeysCommitted int64
	Latency             *metrics.Histogram
	// AbortReasons breaks Aborts down by wire.Status.
	AbortReasons [wire.NumStatuses]int64
}

// Observers are what a system attaches at construction, each optional: a
// load source that replaces the built-in closed loop, a tracer, a stats
// registry, a transaction-history recorder and a telemetry sampler.
type Observers struct {
	Load      load.Source
	Tracer    *trace.Tracer
	Stats     *metrics.Registry
	History   *check.History
	Telemetry *telemetry.Sampler
}

// Parts are the pieces of a constructed system the skeleton drives and
// observes, plus the hooks for the system-specific rest. Window and
// TxnExtra may be nil; the other hooks are required.
type Parts struct {
	Engine   *sim.Engine
	Network  *simnet.Network
	Injector *fault.Injector // nil on fault-free runs
	Hosts    []*hostrt.Host  // node i's host runtime
	Counters []*Counters     // node i's counters
	// Driver is what an attached load source injects into: the system.
	Driver load.Driver

	// Quiesced reports whether the system has fully drained.
	Quiesced func() bool
	// Inflight reports node i's outstanding transactions.
	Inflight func(node int) int
	// Window opens the system's own part of a measurement window: it
	// snapshots and resets the system's extra counters and returns the
	// function that adds their deltas to the result when the window closes.
	Window func() func(*txnmodel.Result)
	// TxnExtra returns node i's extra counters for the "txn" stats entries,
	// or nil when there are none to report; the cluster entry sums them.
	TxnExtra func(node int) map[string]int64
	// Tracer, Stats and Telemetry attach the system's own probes, after
	// the shared ones.
	Tracer    func(*trace.Tracer)
	Stats     func(*metrics.Registry)
	Telemetry func(*telemetry.Sampler)
}

// Skeleton is the run lifecycle a cluster embeds. Its methods are the
// lifecycle half of xenic.System and the engine half of load.Driver.
type Skeleton struct {
	p      Parts
	src    load.Source // nil: the built-in closed loop drives the system
	srcOn  bool        // the attached source has been started
	loadOn bool        // the built-in closed loop has been started
}

// Init binds the skeleton to a constructed system and attaches obs in one
// fixed order: load source, tracer, stats, history, telemetry. The history
// recorder is read only by each system's own protocol code, so the system
// keeps it; the telemetry sampler starts ticking last. Source attach errors
// (a misconfigured offered rate, say) surface here.
func (s *Skeleton) Init(p Parts, obs Observers) error {
	s.p = p
	if obs.Load != nil {
		if err := obs.Load.Attach(p.Driver); err != nil {
			return err
		}
		s.src = obs.Load
	}
	if obs.Tracer != nil {
		if p.Injector != nil {
			p.Injector.SetTracer(obs.Tracer)
		}
		p.Tracer(obs.Tracer)
	}
	if obs.Stats != nil {
		s.registerStats(obs.Stats)
	}
	if obs.Telemetry != nil {
		s.registerTelemetry(obs.Telemetry)
		obs.Telemetry.Attach(p.Engine)
	}
	return nil
}

// Engine exposes the simulation engine.
func (s *Skeleton) Engine() *sim.Engine { return s.p.Engine }

// Nodes returns the node count.
func (s *Skeleton) Nodes() int { return len(s.p.Counters) }

// Start begins load generation: the attached load source if there is one,
// otherwise the built-in closed loop on every application thread.
func (s *Skeleton) Start() {
	if s.src != nil {
		s.srcOn = true
		s.src.Start()
		return
	}
	s.loadOn = true
	for _, h := range s.p.Hosts {
		h.WakeAll()
	}
}

// StopLoad stops generating new transactions; in-flight ones drain.
func (s *Skeleton) StopLoad() {
	if s.src != nil {
		s.srcOn = false
		s.src.Stop()
		return
	}
	s.loadOn = false
}

// ClosedLoop reports whether the built-in closed loop is generating:
// application threads top their windows up only while it is.
func (s *Skeleton) ClosedLoop() bool { return s.loadOn }

// OfferedLoad snapshots the attached load source's admission and session
// counters; all-zero when the built-in closed loop is driving.
func (s *Skeleton) OfferedLoad() load.Stats {
	if s.src == nil {
		return load.Stats{}
	}
	return s.src.Stats()
}

// Run advances simulated time by d.
func (s *Skeleton) Run(d sim.Time) { s.p.Engine.Run(s.p.Engine.Now() + d) }

// Drain stops load and runs until quiesced (or the deadline elapses),
// reporting success.
func (s *Skeleton) Drain(deadline sim.Time) bool {
	s.StopLoad()
	end := s.p.Engine.Now() + deadline
	for s.p.Engine.Now() < end {
		if s.p.Quiesced() {
			return true
		}
		s.Run(100 * sim.Microsecond)
	}
	return s.p.Quiesced()
}

// Measure runs warmup, resets statistics, runs the measurement window, and
// sums the per-node deltas into one cluster-wide result. Whatever generator
// is attached — closed loop or a load source — is the one started here if
// none is running; Measure never falls back to the closed loop when a
// source is driving (pinned by TestMeasureStartsAttachedSource).
func (s *Skeleton) Measure(warmup, window sim.Time) txnmodel.Result {
	running := s.loadOn
	if s.src != nil {
		running = s.srcOn
	}
	if !running {
		s.Start()
	}
	s.Run(warmup)
	snaps := make([]Counters, len(s.p.Counters))
	for i, c := range s.p.Counters {
		snaps[i] = *c
		c.Latency.Reset()
	}
	var finish func(*txnmodel.Result)
	if s.p.Window != nil {
		finish = s.p.Window()
	}
	s.Run(window)
	res := txnmodel.Result{Duration: window}
	lat := metrics.NewHistogram()
	for i, c := range s.p.Counters {
		was := &snaps[i]
		res.Committed += c.Committed - was.Committed
		res.Measured += c.Measured - was.Measured
		res.Aborts += c.Aborts - was.Aborts
		res.Failed += c.Failed - was.Failed
		// Every abort status lands in the breakdown, so the per-reason
		// fields always sum to Aborts.
		d := c.AbortReasons
		for st := range d {
			d[st] -= was.AbortReasons[st]
		}
		res.AbortLocked += d[wire.StatusAbortLocked]
		res.AbortVersion += d[wire.StatusAbortVersion]
		res.AbortMissing += d[wire.StatusAbortMissing]
		res.AbortView += d[wire.StatusAbortView]
		res.AbortTimeout += d[wire.StatusAbortTimeout]
		res.AbortSnapshot += d[wire.StatusAbortSnapshot]
		lat.Merge(c.Latency)
	}
	res.PerServerTput = float64(res.Measured) / window.Seconds() / float64(len(s.p.Counters))
	res.Median = lat.Median()
	res.P99 = lat.Quantile(0.99)
	res.Mean = lat.Mean()
	if finish != nil {
		finish(&res)
	}
	return res
}

// registerStats registers the entries both systems expose — per node and
// cluster-wide transaction outcomes, aborts by reason and end-to-end
// latency, plus the fault injector's counters — then the system's own.
func (s *Skeleton) registerStats(reg *metrics.Registry) {
	n := len(s.p.Counters)
	for i, c := range s.p.Counters {
		sub := reg.Sub(fmt.Sprintf("node%d", i))
		sub.RegisterFunc("txn", func() any { return s.txnSnapshot(i, i+1) })
		sub.RegisterFunc("aborts_by_reason", func() any { return abortReasonMap(s.abortReasons(i, i+1)) })
		sub.RegisterHistogram("latency", c.Latency)
	}
	agg := reg.Sub("cluster")
	agg.RegisterFunc("txn", func() any { return s.txnSnapshot(0, n) })
	agg.RegisterFunc("aborts_by_reason", func() any { return abortReasonMap(s.abortReasons(0, n)) })
	agg.RegisterFunc("latency", func() any {
		m := metrics.NewHistogram()
		for _, c := range s.p.Counters {
			m.Merge(c.Latency)
		}
		return m.Snapshot()
	})
	if inj := s.p.Injector; inj != nil {
		f := reg.Sub("fault")
		inj.RegisterMetrics(f)
		f.RegisterFunc("net", func() any {
			retx, lost := s.p.Network.FaultCounters()
			return map[string]any{"retx": retx, "lost": lost}
		})
	}
	s.p.Stats(reg)
}

// txnSnapshot sums the "txn" entry over nodes [from, to): the outcome
// counters plus the system's extra counters.
func (s *Skeleton) txnSnapshot(from, to int) map[string]any {
	var committed, measured, aborts, failed int64
	extra := map[string]int64{}
	for i := from; i < to; i++ {
		c := s.p.Counters[i]
		committed += c.Committed
		measured += c.Measured
		aborts += c.Aborts
		failed += c.Failed
		if s.p.TxnExtra != nil {
			for k, v := range s.p.TxnExtra(i) {
				extra[k] += v
			}
		}
	}
	out := map[string]any{
		"committed": committed,
		"measured":  measured,
		"aborts":    aborts,
		"failed":    failed,
	}
	for k, v := range extra {
		out[k] = v
	}
	return out
}

// abortReasons sums the abort counts by status over nodes [from, to).
func (s *Skeleton) abortReasons(from, to int) [wire.NumStatuses]int64 {
	var sum [wire.NumStatuses]int64
	for i := from; i < to; i++ {
		for st, v := range s.p.Counters[i].AbortReasons {
			sum[st] += v
		}
	}
	return sum
}

// abortReasonMap keys non-zero abort counts by status name, skipping the
// StatusOK slot.
func abortReasonMap(reasons [wire.NumStatuses]int64) map[string]int64 {
	out := map[string]int64{}
	for i, v := range reasons {
		if wire.Status(i) == wire.StatusOK || v == 0 {
			continue
		}
		out[wire.Status(i).String()] = v
	}
	return out
}

// registerTelemetry registers the time series both systems expose, named
// alike so the dashboard and bottleneck analyzer read either system the
// same way — per node transaction rates and outcomes, windowed latency
// quantiles, host-thread and egress-link occupancy and queueing; the load
// source's admission series; the cluster commit rate — then the system's
// own. Probes are read-only views over counters the system maintains
// anyway, so an attached sampler never perturbs the simulation.
func (s *Skeleton) registerTelemetry(ts *telemetry.Sampler) {
	nw := s.p.Network
	for i, c := range s.p.Counters {
		sub := ts.Sub(fmt.Sprintf("node%d", i))
		sub.Rate("txn.commit_rate", func() int64 { return c.Committed })
		sub.Rate("txn.abort_rate", func() int64 { return c.Aborts })
		sub.Ratio("txn.lock_conflict_frac",
			func() int64 { return c.AbortReasons[wire.StatusAbortLocked] },
			func() int64 { return c.Committed + c.Aborts })
		sub.Gauge("txn.inflight", func() float64 { return float64(s.p.Inflight(i)) })
		sub.Quantiles("latency", c.Latency)
		host := s.p.Hosts[i]
		sub.Occupancy("host.occupancy", func() sim.Time { return host.Utilization().TotalBusy() }, host.Threads())
		sub.Gauge("host.queue_depth", func() float64 { return float64(host.QueueDepth()) })
		sub.Occupancy("net.tx_occupancy", func() sim.Time { return nw.TxBusy(i) }, nw.Lanes())
		sub.Gauge("net.egress_backlog_us", func() float64 { return nw.EgressBacklog(i).Micros() })
	}

	// Open-loop front-end series, only when a source is attached: the scope
	// is absent on closed-loop runs, keeping their telemetry exports
	// byte-identical to pre-LoadSource output.
	if src := s.src; src != nil {
		ls := ts.Sub("load")
		ls.Rate("offered_rate", func() int64 { return src.Stats().Offered })
		ls.Rate("admitted_rate", func() int64 { return src.Stats().Admitted })
		ls.Rate("completed_rate", func() int64 { return src.Stats().Completed })
		ls.Rate("rejected_rate", func() int64 { return src.Stats().Rejected })
		ls.Gauge("sessions", func() float64 { return float64(src.Stats().ActiveSessions) })
		ls.Gauge("inflight", func() float64 { return float64(src.Stats().InFlight) })
		ls.Gauge("queue_len", func() float64 { return float64(src.Stats().QueueLen) })
		ls.Gauge("queue_delay_p99_us", func() float64 { return src.Stats().QueueDelayP99.Micros() })
	}

	ts.Sub("cluster").Rate("commit_rate", func() int64 {
		var v int64
		for _, c := range s.p.Counters {
			v += c.Committed
		}
		return v
	})
	s.p.Telemetry(ts)
}
