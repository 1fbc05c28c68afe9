package openloop

import (
	"math/rand"
	"testing"

	"xenic/internal/sim"
	"xenic/internal/txnmodel"
)

// fakeDriver is a minimal load.Driver for unit tests: every injected
// transaction completes successfully after a fixed service time.
type fakeDriver struct {
	eng      *sim.Engine
	service  sim.Time
	injected int
}

func newFakeDriver() *fakeDriver {
	return &fakeDriver{eng: sim.NewEngine(1), service: 5 * sim.Microsecond}
}

func (f *fakeDriver) Engine() *sim.Engine          { return f.eng }
func (f *fakeDriver) Nodes() int                   { return 4 }
func (f *fakeDriver) AppThreadsPerNode() int       { return 2 }
func (f *fakeDriver) Workload() txnmodel.Generator { return fakeGen{} }
func (f *fakeDriver) InjectTxn(node, thread int, d *txnmodel.TxnDesc, done func(bool)) {
	f.injected++
	if done != nil {
		f.eng.After(f.service, func() { done(true) })
	}
}

type fakeGen struct{}

func (fakeGen) Name() string                                         { return "fake" }
func (fakeGen) Spec() txnmodel.StoreSpec                             { return txnmodel.StoreSpec{} }
func (fakeGen) Placement(nodes, repl int) txnmodel.Placement         { return nil }
func (fakeGen) Register(r *txnmodel.Registry)                        {}
func (fakeGen) Populate(shard, nodes int, emit func(uint64, []byte)) {}
func (fakeGen) Measure(d *txnmodel.TxnDesc) bool                     { return true }
func (fakeGen) Next(node, thread int, rng *rand.Rand) *txnmodel.TxnDesc {
	return &txnmodel.TxnDesc{ReadKeys: []uint64{uint64(rng.Intn(100))}}
}

// TestSourceAgainstFakeDriver drives the source standalone: offered counts
// track the configured rate, and stop/start resumes cleanly.
func TestSourceAgainstFakeDriver(t *testing.T) {
	d := newFakeDriver()
	src := New(Config{Rate: 1e6, Sessions: 8, Seed: 42})
	if err := src.Attach(d); err != nil {
		t.Fatal(err)
	}
	src.Start()
	d.eng.Run(1 * sim.Millisecond)
	st := src.Stats()
	// 1e6/s for 1ms => ~1000 arrivals; Poisson spread is a few percent.
	if st.Offered < 800 || st.Offered > 1200 {
		t.Fatalf("offered %d, want ~1000", st.Offered)
	}
	if st.Admitted != st.Offered {
		t.Fatalf("unlimited policy dropped arrivals: %+v", st)
	}
	src.Stop()
	before := src.Stats().Offered
	d.eng.Run(2 * sim.Millisecond)
	if src.Stats().Offered != before {
		t.Fatal("arrivals continued after Stop")
	}
	src.Start()
	d.eng.Run(3 * sim.Millisecond)
	if src.Stats().Offered <= before {
		t.Fatal("arrivals did not resume after restart")
	}
}

// TestQueueDelayAccounting checks delayed arrivals are admitted in FIFO
// order as capacity frees and their queue delay is recorded.
func TestQueueDelayAccounting(t *testing.T) {
	d := newFakeDriver()
	d.service = 100 * sim.Microsecond // slow server: 10k/s capacity per slot
	src := New(Config{
		Rate: 1e6, Sessions: 4, Seed: 1,
		Admit: NewQueueDepth(2, 8),
	})
	if err := src.Attach(d); err != nil {
		t.Fatal(err)
	}
	src.Start()
	d.eng.Run(2 * sim.Millisecond)
	st := src.Stats()
	if st.Delayed == 0 || st.Rejected == 0 {
		t.Fatalf("overload should delay and reject: %+v", st)
	}
	if st.InFlight > 2 {
		t.Fatalf("in-flight exceeds bound: %+v", st)
	}
	if st.QueueDelayP99 == 0 {
		t.Fatalf("no queue delay recorded: %+v", st)
	}
	if st.LatencyP99 < st.QueueDelayP99 {
		t.Fatalf("client latency excludes queue delay: %+v", st)
	}
}
