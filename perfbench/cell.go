package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"xenic"
)

// drainDeadline bounds the simulated time Drain may take after the window.
const drainDeadline = 20 * xenic.Millisecond

// modeled is what the simulated system reports for one cell. It is a pure
// function of the seed: every cell with the same seed, traced or not, must
// produce exactly these values.
type modeled struct {
	Tput      float64 // measured txn/s/server (new orders for TPC-C)
	P50us     float64
	P99us     float64
	Samples   int64 // latency samples behind p50/p99
	Committed int64 // all commits in the window
	Aborts    int64
	Attempted int64 // operations attempted
	FailedOps int64 // operations failed or refused
	Events    uint64
	Result    xenic.Result
	Load      xenic.LoadStats
}

func (m modeled) abortRate() float64 {
	return ratio(float64(m.Aborts), float64(m.Committed+m.Aborts))
}

// attemptsPerCommit is 1/(1-abortRate): attempts spent per commit.
func (m modeled) attemptsPerCommit() float64 {
	return ratio(float64(m.Committed+m.Aborts), float64(m.Committed))
}

func (m modeled) eventsPerCommit() float64 {
	return ratio(float64(m.Events), float64(m.Committed))
}

func (m modeled) String() string {
	return fmt.Sprintf("tput=%.6g p50=%.6gus p99=%.6gus n=%d commits=%d aborts=%d events=%d",
		m.Tput, m.P50us, m.P99us, m.Samples, m.Committed, m.Aborts, m.Events)
}

// runtimeDelta is the Go runtime's own accounting across the window.
type runtimeDelta struct {
	Mallocs  uint64
	Bytes    uint64
	GCCycles uint32
	GCCPU    float64 // GC CPU seconds / total CPU seconds
}

type runtimeSnap struct {
	ms      runtime.MemStats
	gc, all float64
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func snapRuntime() runtimeSnap {
	var s runtimeSnap
	runtime.ReadMemStats(&s.ms)
	metrics.Read(cpuSamples)
	s.gc, s.all = cpuSamples[0].Value.Float64(), cpuSamples[1].Value.Float64()
	return s
}

func (a runtimeSnap) to(b runtimeSnap) runtimeDelta {
	return runtimeDelta{
		Mallocs:  b.ms.Mallocs - a.ms.Mallocs,
		Bytes:    b.ms.TotalAlloc - a.ms.TotalAlloc,
		GCCycles: b.ms.NumGC - a.ms.NumGC,
		GCCPU:    ratio(b.gc-a.gc, b.all-a.all),
	}
}

// window is the host-side cost of one measurement window.
type window struct {
	Wall    time.Duration // Measure over the window
	CPU     time.Duration // process CPU time over the window, GC included
	Ref     time.Duration // mean of the reference task just before and after
	Runtime runtimeDelta
}

// cell is one untraced run of a workload: build, warm up, measure, drain.
type cell struct {
	Setup time.Duration // NewCluster/NewBaseline, population included
	window
	Model   modeled
	Drained bool
}

func (c cell) commitsPerWallS() float64 {
	return ratio(float64(c.Model.Committed), c.Wall.Seconds())
}

// refScale converts this cell's wall seconds to reference seconds: the
// host's speed during the cell, measured by the reference task, relative to
// a quiet host.
func (c cell) refScale() float64 { return ratio(refNominal.Seconds(), c.Ref.Seconds()) }

func (c cell) commitsPerRefS() float64 { return c.commitsPerWallS() / c.refScale() }

func (c cell) setupRefS() float64 { return c.Setup.Seconds() * c.refScale() }

func (c cell) eventsPerWallS() float64 {
	return ratio(float64(c.Model.Events), c.Wall.Seconds())
}

// events reads the simulated-event counter of either system kind.
func events(sys xenic.System) uint64 {
	switch s := sys.(type) {
	case *xenic.Cluster:
		return s.Engine().Events()
	case *xenic.BaselineCluster:
		return s.Engine().Events()
	}
	panic(fmt.Sprintf("perfbench: unknown system %T", sys))
}

// measure runs the warmup and the window on a built system. Start plus
// Run(warm) plus Measure(0, window) is the sequence Measure(warm, window)
// runs itself; splitting it lets the window's wall time and event count be
// read on their own. A timed window starts from a freshly collected heap,
// so where the GC pacer happens to be does not vary from cell to cell, and
// has the reference task timed next to it. atWarm, if set, runs between
// warmup and window, outside the timing.
func measure(w *workload, sys xenic.System, timed bool, atWarm func()) (modeled, window) {
	sys.Start()
	sys.Run(w.warm)
	var ref0 time.Duration
	if timed {
		runtime.GC()
		ref0 = refRun()
	}
	if atWarm != nil {
		atWarm()
	}
	ev0 := events(sys)
	rt0 := snapRuntime()
	cpu0 := cpuTime()
	t0 := time.Now()
	res := sys.Measure(0, w.window)
	win := window{Wall: time.Since(t0), CPU: cpuTime() - cpu0}
	win.Runtime = rt0.to(snapRuntime())
	if timed {
		win.Ref = (ref0 + refRun()) / 2
	}
	m := modeled{
		Tput:      res.PerServerTput,
		P50us:     res.Median.Micros(),
		P99us:     res.P99.Micros(),
		Samples:   res.Committed,
		Committed: res.Committed,
		Aborts:    res.Aborts,
		Attempted: res.Committed + res.Failed,
		FailedOps: res.Failed,
		Events:    events(sys) - ev0,
		Result:    res,
	}
	if w.openLoop {
		// Client-observed: arrival to completion, admission queue included,
		// cumulative from the first arrival.
		ld := sys.OfferedLoad()
		m.Load = ld
		m.P50us, m.P99us = ld.LatencyP50.Micros(), ld.LatencyP99.Micros()
		m.Samples = ld.Completed
		m.Attempted = ld.Offered
		m.FailedOps = ld.Failed + ld.Rejected
	}
	return m, win
}

// runCell builds and measures one untraced cell with every observer off.
func runCell(w *workload, seed int64) (cell, error) {
	runtime.GC()
	g := w.gen()
	t0 := time.Now()
	sys, err := w.build(g, seed)
	if err != nil {
		return cell{}, fmt.Errorf("%s: build: %w", w.name, err)
	}
	c := cell{Setup: time.Since(t0)}
	c.Model, c.window = measure(w, sys, true, nil)
	c.Drained = sys.Drain(drainDeadline)
	return c, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
