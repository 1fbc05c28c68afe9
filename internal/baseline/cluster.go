package baseline

import (
	"fmt"

	"xenic/internal/check"
	"xenic/internal/fault"
	"xenic/internal/hostrt"
	"xenic/internal/membership"
	"xenic/internal/metrics"
	"xenic/internal/rdma"
	"xenic/internal/runner"
	"xenic/internal/sim"
	"xenic/internal/simnet"
	"xenic/internal/store/btree"
	"xenic/internal/trace"
	"xenic/internal/txnmodel"
	"xenic/internal/wire"
)

// Cluster is a simulated baseline deployment.
type Cluster struct {
	runner.Skeleton

	cfg   Config
	eng   *sim.Engine
	nw    *simnet.Network
	inj   *fault.Injector
	nodes []*Node
	gen   txnmodel.Generator
	place txnmodel.Placement
	reg   *txnmodel.Registry
	hist  *check.History // nil unless a history recorder is attached

	// mgr is the same lease-based cluster manager Xenic runs; baselines
	// renew leases and observe epoch-stamped views so harness comparisons
	// share membership semantics, but they never act on view changes (no
	// promotion, no re-replication — validate rejects crash faults).
	mgr  *membership.Manager
	view membership.View
}

// attachTracer names the trace's processes and threads. The baseline data
// path is RDMA verbs, so the trace carries process/thread metadata and
// fault-injection events rather than per-phase spans; it exists mainly so
// any System can be traced uniformly.
func (cl *Cluster) attachTracer(tr *trace.Tracer) {
	if !tr.Enabled() {
		return
	}
	for _, n := range cl.nodes {
		tr.MetaProcess(n.id, fmt.Sprintf("node%d", n.id))
		for h := 0; h < cl.cfg.Threads; h++ {
			tr.MetaThread(n.id, h, fmt.Sprintf("host-app%d", h))
		}
	}
}

// New builds and populates a baseline cluster running workload gen, then
// attaches the observers in obs.
func New(cfg Config, gen txnmodel.Generator, obs runner.Observers) (*Cluster, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cl := &Cluster{
		cfg: cfg,
		eng: sim.NewEngine(cfg.Seed),
		gen: gen,
		reg: txnmodel.NewRegistry(),
	}
	cl.nw = simnet.New(cl.eng, cfg.Params, cfg.Nodes)
	if cfg.Faults != nil {
		cl.inj = fault.NewInjector(cl.eng, cfg.Faults, cfg.Seed)
		// Baselines never crash, so every endpoint is permanently live and
		// the fabric's reliable transport retransmits through any fault.
		cl.nw.SetFault(cl.inj.FrameFate, func(int) bool { return true })
	}
	cl.place = gen.Placement(cfg.Nodes, cfg.Replication)
	gen.Register(cl.reg)
	spec := gen.Spec()

	for id := 0; id < cfg.Nodes; id++ {
		n := &Node{
			cl:      cl,
			id:      id,
			primary: newShardData(spec, cl.place),
			backups: map[int]*shardData{},
			locks:   map[uint64]uint64{},
		}
		n.stats.Latency = metrics.NewHistogram()
		for s := 0; s < cfg.Nodes; s++ {
			for _, b := range cfg.backupsOf(s) {
				if b == id {
					n.backups[s] = newShardData(spec, cl.place)
				}
			}
		}
		n.host = hostrt.New(cl.eng, cfg.Params, id, cfg.Threads, cfg.Seed)
		n.rnic = rdma.New(cl.eng, cfg.Params, cl.nw, id, n.host)
		if cfg.Faults != nil {
			n.rnic.SetFaultTimeout(cfg.Faults.VerbTimeoutOrDefault())
		}
		n.host.OnMessage(n.hostHandler)
		n.host.OnIdle(n.hostIdle)
		n.host.SetRouter(func(m wire.Msg) int {
			// RPC requests spread across threads; completions and
			// responses go to the owning thread.
			switch m.(type) {
			case *wire.Execute, *wire.Validate, *wire.Log, *wire.Commit, *wire.Abort:
				return int(m.(interface{ GetTxnID() uint64 }).GetTxnID() % uint64(cfg.Threads))
			}
			return txnThread(m.(interface{ GetTxnID() uint64 }).GetTxnID())
		})
		n.host.OnTransmit(func(t *hostrt.Thread, ms []wire.Msg) {
			panic("baseline: thread outbox unused; all sends go through the RDMA NIC")
		})
		for a := 0; a < cfg.Threads; a++ {
			n.app = append(n.app, &appThread{id: a, inflight: map[uint64]*btxn{}})
		}
		cl.nodes = append(cl.nodes, n)
	}

	for s := 0; s < cfg.Nodes; s++ {
		primary := cl.nodes[s]
		backups := cfg.backupsOf(s)
		cl.gen.Populate(s, cfg.Nodes, func(key uint64, value []byte) {
			if got := cl.place.ShardOf(key); got != s {
				panic(fmt.Sprintf("baseline: populate: key %d in shard %d emitted for %d", key, got, s))
			}
			primary.primary.apply(key, value, 1)
			for _, b := range backups {
				cl.nodes[b].backups[s].apply(key, value, 1)
			}
		})
	}

	// Membership: the same lease service Xenic runs, so view epochs mean
	// the same thing across systems. A partitioned node cannot reach the
	// manager and its lease lapses; otherwise the epoch never moves.
	cl.mgr = membership.New(cl.eng, cfg.Nodes, cfg.Replication, cfg.Membership)
	cl.view = cl.mgr.View()
	cl.mgr.OnChange(func(v membership.View) { cl.view = v })
	for id := 0; id < cfg.Nodes; id++ {
		id := id
		cl.eng.Ticker(cfg.Membership.RenewPeriod, func() bool {
			if cl.inj == nil || !cl.inj.Isolated(id) {
				cl.mgr.Renew(id)
			}
			return true
		})
	}
	cl.mgr.Start()

	cl.hist = obs.History
	hosts := make([]*hostrt.Host, len(cl.nodes))
	counters := make([]*runner.Counters, len(cl.nodes))
	for i, n := range cl.nodes {
		hosts[i], counters[i] = n.host, &n.stats.Counters
	}
	err := cl.Init(runner.Parts{
		Engine: cl.eng, Network: cl.nw, Injector: cl.inj,
		Hosts: hosts, Counters: counters, Driver: cl,
		Quiesced:  cl.Quiesced,
		Inflight:  cl.inflight,
		Tracer:    cl.attachTracer,
		Stats:     cl.registerStats,
		Telemetry: cl.registerTelemetry,
	}, obs)
	if err != nil {
		return nil, err
	}
	return cl, nil
}

// Node returns node i.
func (cl *Cluster) Node(i int) *Node { return cl.nodes[i] }

// Stats returns node i's counters.
func (n *Node) Stats() *Stats { return &n.stats }

// AppThreadsPerNode reports the coordinator threads per node (every
// baseline host thread is a coordinator).
func (cl *Cluster) AppThreadsPerNode() int { return cl.cfg.Threads }

// Workload returns the generator this cluster was built with.
func (cl *Cluster) Workload() txnmodel.Generator { return cl.gen }

// InjectTxn submits one transaction on the given node's thread at the
// current instant (the load.Driver surface). done, if non-nil, fires
// exactly once at the transaction's final outcome. Baselines never crash,
// so injections cannot be lost.
func (cl *Cluster) InjectTxn(node, thread int, d *txnmodel.TxnDesc, done func(ok bool)) {
	n := cl.nodes[node]
	at := n.app[thread]
	at.injectq = append(at.injectq, injected{desc: d, done: done})
	n.host.Thread(thread).Wake()
}

// Quiesced reports whether all transactions have drained.
func (cl *Cluster) Quiesced() bool {
	for _, n := range cl.nodes {
		for _, at := range n.app {
			if at.outstanding > 0 || len(at.retryq) > 0 || len(at.injectq) > 0 {
				return false
			}
		}
		if n.apHead < len(n.applyq) || len(n.locks) > 0 {
			return false
		}
	}
	return true
}

// registerStats registers the baseline's own stats entries, beside the
// shared txn, abort and latency ones: per-node RDMA verb and byte counters,
// plus the cluster-wide membership view and RDMA totals.
func (cl *Cluster) registerStats(reg *metrics.Registry) {
	rdmaSnap := func(s rdma.Stats) map[string]any {
		out := map[string]any{
			"reads":     s.Reads,
			"writes":    s.Writes,
			"atomics":   s.Atomics,
			"sends":     s.Sends,
			"bytes_out": s.BytesOut,
		}
		if cl.cfg.Faults != nil {
			out["verb_timeouts"] = s.VerbTimeouts
			out["dup_requests"] = s.DupRequests
			out["dup_responses"] = s.DupResponses
		}
		return out
	}
	for _, n := range cl.nodes {
		sub := reg.Sub(fmt.Sprintf("node%d", n.id))
		sub.RegisterFunc("rdma", func() any { return rdmaSnap(n.rnic.Stats()) })
	}
	agg := reg.Sub("cluster")
	agg.RegisterFunc("membership", func() any {
		v := cl.view
		alive := 0
		for _, a := range v.Alive {
			if a {
				alive++
			}
		}
		return map[string]any{"epoch": v.Epoch, "alive": alive}
	})
	agg.RegisterFunc("rdma", func() any {
		var s rdma.Stats
		for _, n := range cl.nodes {
			ns := n.rnic.Stats()
			s.Reads += ns.Reads
			s.Writes += ns.Writes
			s.Atomics += ns.Atomics
			s.Sends += ns.Sends
			s.BytesOut += ns.BytesOut
			s.VerbTimeouts += ns.VerbTimeouts
			s.DupRequests += ns.DupRequests
			s.DupResponses += ns.DupResponses
		}
		return rdmaSnap(s)
	})
}

// ReadKey reads a key from its primary (for tests).
func (cl *Cluster) ReadKey(key uint64) ([]byte, uint64, bool) {
	return cl.nodes[cl.place.ShardOf(key)].primary.read(key)
}

// ReplicasConsistent verifies backup replicas converged to the primary.
func (cl *Cluster) ReplicasConsistent() error {
	for s := 0; s < cl.cfg.Nodes; s++ {
		p := cl.nodes[s].primary
		for _, b := range cl.cfg.backupsOf(s) {
			bk := cl.nodes[b].backups[s]
			if p.hash.Len() != bk.hash.Len() {
				return fmt.Errorf("shard %d at node %d: hash size %d vs %d", s, b, p.hash.Len(), bk.hash.Len())
			}
			if p.btree.Len() != bk.btree.Len() {
				return fmt.Errorf("shard %d at node %d: btree size %d vs %d", s, b, p.btree.Len(), bk.btree.Len())
			}
			var err error
			p.hash.ForEach(func(key uint64, version uint64, value []byte) bool {
				r := bk.hash.Lookup(key)
				if !r.Found || r.Version != version || string(r.Value) != string(value) {
					err = fmt.Errorf("shard %d at node %d: key %d diverges", s, b, key)
					return false
				}
				return true
			})
			if err != nil {
				return err
			}
			p.btree.AscendRange(0, ^uint64(0), func(it btree.Item) bool {
				got, ok := bk.btree.Get(it.Key)
				if !ok || got.Version != it.Version || string(got.Value) != string(it.Value) {
					err = fmt.Errorf("shard %d at node %d: btree key %d diverges", s, b, it.Key)
					return false
				}
				return true
			})
			if err != nil {
				return err
			}
		}
	}
	return nil
}
