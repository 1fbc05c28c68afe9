package xenic_test

import (
	"fmt"
	"testing"

	"xenic"
)

// systemKinds names the two cluster types newSystem builds.
var systemKinds = []string{"xenic", "DrTM+H"}

// smallSmallbank is a read-write workload small enough that hot accounts
// conflict, so measurements carry aborts of several reasons.
func smallSmallbank() xenic.Workload {
	g := xenic.Smallbank()
	g.AccountsPerServer = 2000
	return g
}

// newSystem constructs one cluster type behind the System interface, at the
// scale and workload every kind shares, with the given fault plan (nil for
// none).
func newSystem(t *testing.T, kind string, plan *xenic.FaultPlan, opts ...xenic.Option) xenic.System {
	t.Helper()
	var s xenic.System
	var err error
	if kind == "xenic" {
		cfg := xenic.DefaultConfig()
		cfg.Nodes = 4
		cfg.AppThreads, cfg.WorkerThreads, cfg.NICCores = 2, 1, 4
		cfg.Faults = plan
		s, err = xenic.NewCluster(cfg, smallSmallbank(), opts...)
	} else {
		bcfg := xenic.DefaultBaselineConfig(xenic.DrTMH)
		bcfg.Nodes = 4
		bcfg.Threads = 4
		bcfg.Faults = plan
		s, err = xenic.NewBaseline(bcfg, smallSmallbank(), opts...)
	}
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSystemConformance drives both cluster types through the full System
// lifecycle using only the interface, fault-free and with dropped frames.
// On every run the per-reason abort fields of the measurement sum to
// Aborts.
func TestSystemConformance(t *testing.T) {
	drops, err := xenic.ParseFaultPlan("drop=0.02")
	if err != nil {
		t.Fatal(err)
	}
	for _, plan := range []*xenic.FaultPlan{nil, drops} {
		for _, kind := range systemKinds {
			s := newSystem(t, kind, plan)
			name := fmt.Sprintf("%s/faults=%v", kind, plan)
			s.Start()
			s.Run(1 * xenic.Millisecond)
			res := s.Measure(1*xenic.Millisecond, 2*xenic.Millisecond)
			if res.PerServerTput <= 0 || res.Committed == 0 || res.Median <= 0 {
				t.Errorf("%s: empty measurement: %+v", name, res)
			}
			reasons := res.AbortLocked + res.AbortVersion + res.AbortMissing + res.AbortView +
				res.AbortTimeout + res.AbortSnapshot
			if reasons != res.Aborts {
				t.Errorf("%s: per-reason aborts sum to %d, Aborts = %d: %+v", name, reasons, res.Aborts, res)
			}
			if !s.Drain(100 * xenic.Millisecond) {
				t.Errorf("%s: did not drain", name)
			}
			if !s.Quiesced() {
				t.Errorf("%s: not quiesced after drain", name)
			}
		}
	}
}

// TestOptionsAttachObservers verifies every With... option wires its
// observer or load source into both cluster types at construction, and
// that the load source attaches before the telemetry sampler, which then
// exposes the source's series.
func TestOptionsAttachObservers(t *testing.T) {
	for _, name := range systemKinds {
		tr := xenic.NewTracer()
		reg := xenic.NewStatsRegistry()
		h := xenic.NewHistory()
		tel := xenic.NewTelemetry(100 * xenic.Microsecond)
		s := newSystem(t, name, nil, xenic.WithTracer(tr), xenic.WithStats(reg), xenic.WithHistory(h),
			xenic.WithTelemetry(tel), xenic.WithOpenLoop(xenic.OpenLoopConfig{Rate: 2e6, Sessions: 16, Seed: 3}))
		s.Measure(500*xenic.Microsecond, 1*xenic.Millisecond)
		// The baseline's fault-free data path records only process/thread
		// metadata; the Xenic cluster records per-phase spans too.
		if tr.Len()+tr.MetaLen() == 0 {
			t.Errorf("%s: tracer attached via WithTracer recorded nothing", name)
		}
		if len(reg.Names()) == 0 {
			t.Errorf("%s: registry attached via WithStats registered nothing", name)
		}
		if ol := s.OfferedLoad(); ol.Offered == 0 || ol.Completed == 0 {
			t.Errorf("%s: source attached via WithOpenLoop generated no traffic: %+v", name, ol)
		}
		tel.Stop()
		set := tel.Set()
		if len(set.TimesUs) == 0 {
			t.Errorf("%s: sampler attached via WithTelemetry recorded no samples", name)
		}
		series := map[string]bool{}
		for _, se := range set.Series {
			series[se.Name] = true
		}
		for _, want := range []string{"node0.txn.commit_rate", "cluster.commit_rate", "load.offered_rate"} {
			if !series[want] {
				t.Errorf("%s: sampler attached via WithTelemetry lacks series %s", name, want)
			}
		}
		if !s.Drain(100 * xenic.Millisecond) {
			t.Fatalf("%s: did not drain", name)
		}
		if h.Len() == 0 {
			t.Errorf("%s: recorder attached via WithHistory recorded nothing", name)
		}
		if err := s.AuditHistory(); err != nil {
			t.Errorf("%s: audit: %v", name, err)
		}
	}
}
