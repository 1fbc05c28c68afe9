package harness

import (
	"testing"

	"xenic"
	"xenic/internal/check"
	"xenic/internal/core"
	"xenic/internal/fault"
	"xenic/internal/sim"
	"xenic/internal/workload/smallbank"
)

// TestRestartExtremeSkewSerializable is the pinned regression for a
// serializability bug in the host-local read-only fast path (§4.2.4),
// found by the high-skew abort sweep: crash a primary at 1ms and restart it
// at 3ms while Smallbank hammers a 0.5% hot set at 99% probability. The
// fast path used to validate by version alone, skipping the §4.2 step-4
// lock check, so a read taken while a validated-but-unapplied writer held
// the key's lock passed validation and committed a stale read — a cycle in
// the dependency graph. The lock window is microseconds normally, but the
// restart's state transfer congests log replication and stretches it past
// 50us. Without the lock check seeds 1 and 8 both produce witness cycles.
func TestRestartExtremeSkewSerializable(t *testing.T) {
	plan, err := fault.Parse("crash=2@1ms,restart=2@3ms")
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{1, 8} {
		cfg := core.DefaultConfig()
		cfg.Nodes = 4
		cfg.Replication = 3
		cfg.AppThreads, cfg.WorkerThreads, cfg.NICCores = 2, 3, 8
		cfg.Outstanding = 32
		cfg.Seed = seed
		cfg.Faults = plan

		g := smallbank.New()
		g.AccountsPerServer = 24000
		g.HotFrac, g.HotProb = 0.005, 0.99

		h := check.NewHistory()
		cl, err := xenic.NewCluster(cfg, g, xenic.WithHistory(h))
		if err != nil {
			t.Fatal(err)
		}
		cl.Measure(1*sim.Millisecond, 6*sim.Millisecond)
		if !cl.Drain(500 * sim.Millisecond) {
			t.Errorf("seed %d: did not drain", seed)
			continue
		}
		if err := verify(h, cl.AuditHistory); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}
