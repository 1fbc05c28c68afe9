package core

import (
	"fmt"

	"xenic/internal/check"
	"xenic/internal/fault"
	"xenic/internal/hostrt"
	"xenic/internal/membership"
	"xenic/internal/metrics"
	"xenic/internal/nicrt"
	"xenic/internal/runner"
	"xenic/internal/sim"
	"xenic/internal/simnet"
	"xenic/internal/store/btree"
	"xenic/internal/store/nicindex"
	"xenic/internal/trace"
	"xenic/internal/txnmodel"
	"xenic/internal/wire"
)

// Cluster is a simulated Xenic deployment: Config.Nodes servers, each a
// coordinator, the primary of one shard, and a backup for Replication-1
// others (§4).
type Cluster struct {
	runner.Skeleton

	cfg   Config
	eng   *sim.Engine
	nw    *simnet.Network
	nodes []*Node
	gen   txnmodel.Generator
	place txnmodel.Placement
	reg   *txnmodel.Registry
	spec  txnmodel.StoreSpec

	mgr  *membership.Manager
	view membership.View

	// fwdInFlight[n] counts state-transfer commit forwards sent to rejoiner
	// n that have not yet arrived; Quiesced waits for them so a drained
	// cluster's replicas are byte-comparable. Reset when n restarts.
	fwdInFlight []int64

	inj    *fault.Injector // nil unless Config.Faults is set
	tracer *trace.Tracer   // nil unless a tracer is attached
	hist   *check.History  // nil unless a history recorder is attached
	mv     *mvState        // MVCC timestamp machinery (disabled unless Config.MVCC)
}

// primaryNode is the node currently serving shard s.
func (cl *Cluster) primaryNode(s int) int { return cl.view.PrimaryOf[s] }

// viewBackups lists shard s's surviving backups in the current view.
func (cl *Cluster) viewBackups(s int) []int { return cl.view.BackupsOf[s] }

// replicasOf lists every surviving replica of shard s: the serving primary
// followed by the backups.
func (cl *Cluster) replicasOf(s int) []int {
	out := []int{cl.view.PrimaryOf[s]}
	return append(out, cl.view.BackupsOf[s]...)
}

// View returns the current membership view.
func (cl *Cluster) View() membership.View { return cl.view }

// New builds and populates a cluster running workload gen, then attaches
// the observers in obs.
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
	cl.fwdInFlight = make([]int64, cfg.Nodes)
	cl.mv = newMVState(cfg.MVCC, cfg.MVCCKeep)
	if cfg.Faults != nil {
		// The injector decides every frame's fate; the liveness oracle lets
		// the reliable transport abandon frames to or from dead nodes.
		cl.inj = fault.NewInjector(cl.eng, cfg.Faults, cfg.Seed)
		cl.nw.SetFault(cl.inj.FrameFate, func(node int) bool { return cl.nodes[node].alive })
	}
	cl.place = gen.Placement(cfg.Nodes, cfg.Replication)
	gen.Register(cl.reg)
	spec := gen.Spec()
	cl.spec = spec

	for id := 0; id < cfg.Nodes; id++ {
		own := newShardData(spec, cl.place)
		n := &Node{
			cl:            cl,
			id:            id,
			prims:         map[int]*primaryShard{},
			backups:       map[int]*ShardData{},
			log:           newHostLog(),
			pins:          map[uint64][]uint64{},
			pinIdx:        map[uint64]*nicindex.Index{},
			ctxns:         map[uint64]*ctxn{},
			remoteLocks:   map[uint64][]uint64{},
			recov:         map[txnShard]*recovering{},
			pendingDecide: map[txnShard][]uint64{},
			alive:         true,
		}
		n.stats.Latency = metrics.NewHistogram()
		n.stats.ROLatency = metrics.NewHistogram()
		for i := range n.stats.PhaseLat {
			n.stats.PhaseLat[i] = metrics.NewHistogram()
		}
		for s := 0; s < cfg.Nodes; s++ {
			for _, b := range cfg.backupsOf(s) {
				if b == id {
					n.backups[s] = newShardData(spec, cl.place)
				}
			}
		}
		n.prims[id] = &primaryShard{
			data:  own,
			index: nicindex.New(own.Hash, cl.cacheCap(), 1),
			ready: true,
		}
		if cl.mv.enabled {
			// The NIC index mirrors the host chain head timestamps (modeled
			// as extra row-header metadata carried by the existing DMA fills)
			// and caches a bounded version history per entry.
			n.prims[id].index.SetTSFunc(own.HeadTS)
			n.prims[id].index.SetChainDepth(cl.mv.keep)
		}

		n.host = hostrt.New(cl.eng, cfg.Params, id, cfg.AppThreads+cfg.WorkerThreads, cfg.Seed)
		n.nic = nicrt.New(cl.eng, cfg.Params, cl.nw, id, cfg.NICCores, cfg.Seed, cfg.Features.runtime())
		if cl.inj != nil {
			n.nic.SetDMAFault(cl.inj.DMAErr)
		}

		n.nic.OnMessage(n.nicHandler)
		nic, host := n.nic, n.host
		n.nic.OnHostDeliver(func(ms []wire.Msg) { host.Deliver(id, ms) })
		n.host.OnMessage(n.hostHandler)
		n.host.OnIdle(n.hostIdle)
		n.host.SetRouter(n.hostRouter)
		p := cfg.Params
		n.host.OnTransmit(func(t *hostrt.Thread, ms []wire.Msg) {
			t.At(p.HostToNIC, func() { nic.FromHost(ms) })
		})

		for a := 0; a < cfg.AppThreads; a++ {
			n.app = append(n.app, &appThread{node: n, id: a, inflight: map[uint64]*appTxn{}})
		}
		cl.nodes = append(cl.nodes, n)
	}

	cl.populate()

	// Membership: leases renewed by live nodes, reconfiguration on expiry
	// (§4.2.1). The manager runs off the critical path.
	cl.mgr = membership.New(cl.eng, cfg.Nodes, cfg.Replication, cfg.Membership)
	cl.view = cl.mgr.View()
	cl.mgr.OnChange(cl.onViewChange)
	for _, n := range cl.nodes {
		n := n
		cl.eng.Ticker(cfg.Membership.RenewPeriod, func() bool {
			// A partitioned node cannot reach the manager: its lease lapses
			// and it is evicted (then self-fences on the view change).
			if n.alive && (cl.inj == nil || !cl.inj.Isolated(n.id)) {
				cl.mgr.Renew(n.id)
			}
			return true
		})
	}
	cl.mgr.Start()
	cl.scheduleFaults()

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
		Window:    cl.measureWindow,
		TxnExtra:  cl.txnExtra,
		Tracer:    cl.attachTracer,
		Stats:     cl.registerStats,
		Telemetry: cl.registerTelemetry,
	}, obs)
	if err != nil {
		return nil, err
	}
	return cl, nil
}

// scheduleFaults arms the plan's scheduled events: crashes, NIC core stalls,
// and DMA engine stalls. Partitions and per-frame faults are decided inline
// by the injector.
func (cl *Cluster) scheduleFaults() {
	if cl.inj == nil {
		return
	}
	plan := cl.inj.Plan()
	for _, c := range plan.Crashes {
		c := c
		cl.eng.At(c.At, func() { cl.Kill(c.Node) })
	}
	for _, s := range plan.CoreStalls {
		s := s
		cl.eng.At(s.At, func() {
			cl.nodes[s.Node].nic.StallCore(s.Core%cl.cfg.NICCores, s.Dur)
		})
	}
	for _, s := range plan.DMAStalls {
		s := s
		cl.eng.At(s.At, func() { cl.nodes[s.Node].nic.StallDMA(s.Dur) })
	}
	for _, r := range plan.Restarts {
		r := r
		cl.eng.At(r.At, func() { cl.Restart(r.Node) })
	}
}

// Injector exposes the fault injector (nil on fault-free runs).
func (cl *Cluster) Injector() *fault.Injector { return cl.inj }

// cacheCap is the SmartNIC index cache capacity from the workload spec.
func (cl *Cluster) cacheCap() int {
	cache := cl.spec.NICCacheObjects
	if cache <= 0 {
		cache = cl.spec.HashSlots / 4
	}
	return cache
}

// Kill crashes node id: it stops processing and renewing its lease; the
// manager reconfigures once the lease expires.
func (cl *Cluster) Kill(id int) {
	cl.nodes[id].alive = false
}

// Restart brings a crashed (and evicted) node back with wiped NIC and host
// state. The node re-registers with the cluster manager, is fenced behind
// its fresh join epoch, and re-replicates its shards from the surviving
// primaries before re-entering the replica chains (rejoin.go). A restart
// before the manager has evicted the node is retried after the eviction
// view lands — a node cannot rejoin a view it never left.
func (cl *Cluster) Restart(id int) {
	n := cl.nodes[id]
	if n.alive {
		return
	}
	if cl.mgr.View().Alive[id] {
		cl.eng.After(cl.cfg.Membership.CheckPeriod, func() { cl.Restart(id) })
		return
	}
	// Wipe: host memory (replicas, log, coordinator and recovery state) and
	// NIC state (dedup tables, epoch) are gone; only durable identity — the
	// node id and its app threads' sequence counters (so retried ids stay
	// globally unique) — survives. Stats accumulate across the restart so
	// Measure windows keep working.
	n.prims = map[int]*primaryShard{}
	n.backups = map[int]*ShardData{}
	n.log = newHostLog()
	n.pins = map[uint64][]uint64{}
	n.pinIdx = map[uint64]*nicindex.Index{}
	n.ctxns = map[uint64]*ctxn{}
	n.remoteLocks = map[uint64][]uint64{}
	n.recov = map[txnShard]*recovering{}
	n.pendingDecide = map[txnShard][]uint64{}
	n.fwd = nil
	for _, at := range n.app {
		at.failInjected()
		at.inflight = map[uint64]*appTxn{}
		at.outstanding = 0
		at.retryq = nil
		at.injectq = nil
	}
	n.nic.Reset()
	cl.fwdInFlight[id] = 0
	n.alive = true
	n.rejoin = &rejoinState{shards: map[int]*pullState{}}
	cl.mgr.Rejoin(id)
}

// populate loads initial records into every shard's primary and backups,
// then syncs the NIC index hints (the NIC learns the layout at setup).
func (cl *Cluster) populate() {
	for s := 0; s < cl.cfg.Nodes; s++ {
		primary := cl.nodes[s]
		backups := cl.cfg.backupsOf(s)
		cl.gen.Populate(s, cl.cfg.Nodes, func(key uint64, value []byte) {
			if got := cl.place.ShardOf(key); got != s {
				panic(fmt.Sprintf("core: populate: key %d belongs to shard %d, emitted for %d", key, got, s))
			}
			kv := wire.KV{Key: key, Version: 1, Value: value}
			primary.prims[s].data.Apply(kv)
			for _, b := range backups {
				cl.nodes[b].backups[s].Apply(kv)
			}
		})
	}
	for _, n := range cl.nodes {
		for _, p := range n.prims {
			p.index.SyncHints()
		}
	}
}

// Node returns node i.
func (cl *Cluster) Node(i int) *Node { return cl.nodes[i] }

// AppThreadsPerNode reports the coordinator application threads per node
// (the load.Driver injection grid).
func (cl *Cluster) AppThreadsPerNode() int { return cl.cfg.AppThreads }

// Workload returns the generator this cluster was built with.
func (cl *Cluster) Workload() txnmodel.Generator { return cl.gen }

// InjectTxn submits one transaction on the given node's application thread
// at the current instant (the load.Driver surface). done, if non-nil, fires
// exactly once at the transaction's final outcome. Injecting into a crashed
// node fails immediately; a crash after injection fails the in-flight
// transactions when the node restarts.
func (cl *Cluster) InjectTxn(node, thread int, d *txnmodel.TxnDesc, done func(ok bool)) {
	n := cl.nodes[node]
	if !n.alive {
		if done != nil {
			done(false)
		}
		return
	}
	at := n.app[thread]
	at.injectq = append(at.injectq, injected{desc: d, done: done})
	n.host.Thread(thread).Wake()
}

// measureWindow opens core's part of a Measure window: the phase and
// read-only latency histograms reset with the end-to-end one, and with MVCC
// on the read-only breakdown joins the result.
func (cl *Cluster) measureWindow() func(*txnmodel.Result) {
	type snap struct{ roCommitted, roAborts, snapDone int64 }
	snaps := make([]snap, len(cl.nodes))
	for i, n := range cl.nodes {
		snaps[i] = snap{n.stats.ROCommitted, n.stats.ROAborts, n.stats.SnapCommitted}
		n.stats.ROLatency.Reset()
		for _, h := range n.stats.PhaseLat {
			h.Reset()
		}
	}
	return func(res *txnmodel.Result) {
		if !cl.mv.enabled {
			return
		}
		roLat := metrics.NewHistogram()
		for i, n := range cl.nodes {
			res.ROCommitted += n.stats.ROCommitted - snaps[i].roCommitted
			res.ROAborts += n.stats.ROAborts - snaps[i].roAborts
			res.SnapCommitted += n.stats.SnapCommitted - snaps[i].snapDone
			roLat.Merge(n.stats.ROLatency)
		}
		res.ROMedian = roLat.Median()
		res.ROP99 = roLat.Quantile(0.99)
	}
}

// Quiesced reports whether the cluster has fully drained: no in-flight
// transactions, no coordinator state, decided log records applied, and no
// recovery in progress. Crashed nodes are excluded.
func (cl *Cluster) Quiesced() bool {
	for _, n := range cl.nodes {
		if !n.alive {
			continue
		}
		for _, at := range n.app {
			if at.outstanding > 0 || len(at.retryq) > 0 || len(at.injectq) > 0 {
				return false
			}
		}
		if len(n.ctxns) > 0 || len(n.remoteLocks) > 0 || n.log.pending() > 0 ||
			len(n.pins) > 0 || len(n.recov) > 0 || len(n.pendingDecide) > 0 {
			return false
		}
		if n.rejoin != nil {
			return false // restarting node still catching up
		}
		for _, p := range n.prims {
			if !p.ready {
				return false
			}
		}
	}
	for dst, cnt := range cl.fwdInFlight {
		if cnt > 0 && cl.nodes[dst].alive {
			return false // state-transfer forwards still in flight
		}
	}
	return true
}

// CheckInvariants validates every node's store and index structures plus
// cross-replica consistency for quiesced clusters (call after StopLoad and
// a drain period).
func (cl *Cluster) CheckInvariants() error {
	for _, n := range cl.nodes {
		if !n.alive {
			continue
		}
		for s, p := range n.prims {
			if err := p.data.Hash.CheckInvariants(); err != nil {
				return fmt.Errorf("node %d primary of %d: %w", n.id, s, err)
			}
			if err := p.data.BTree.CheckInvariants(); err != nil {
				return fmt.Errorf("node %d primary btree of %d: %w", n.id, s, err)
			}
			if err := p.index.CheckInvariants(); err != nil {
				return fmt.Errorf("node %d index of %d: %w", n.id, s, err)
			}
		}
		for s, b := range n.backups {
			if err := b.Hash.CheckInvariants(); err != nil {
				return fmt.Errorf("node %d backup of %d: %w", n.id, s, err)
			}
		}
	}
	return nil
}

// ReplicasConsistent verifies (for a fully drained cluster) that every
// backup replica holds exactly the primary's data at the same versions.
// Core correctness tests rely on it.
func (cl *Cluster) ReplicasConsistent() error {
	for s := 0; s < cl.cfg.Nodes; s++ {
		pn := cl.nodes[cl.primaryNode(s)]
		if !pn.alive {
			continue // shard lost every replica
		}
		prim := pn.prim(s)
		if prim == nil {
			return fmt.Errorf("shard %d: view primary %d does not serve it", s, pn.id)
		}
		for _, b := range cl.viewBackups(s) {
			bk := cl.nodes[b].backups[s]
			if err := storesEqual(prim.data, bk); err != nil {
				return fmt.Errorf("shard %d backup at node %d: %w", s, b, err)
			}
		}
	}
	return nil
}

func storesEqual(a, b *ShardData) error {
	if a.Hash.Len() != b.Hash.Len() {
		return fmt.Errorf("hash sizes differ: %d vs %d", a.Hash.Len(), b.Hash.Len())
	}
	if a.BTree.Len() != b.BTree.Len() {
		return fmt.Errorf("btree sizes differ: %d vs %d", a.BTree.Len(), b.BTree.Len())
	}
	var err error
	a.Hash.ForEach(func(key uint64, version uint64, value []byte) bool {
		r := b.Hash.Lookup(key)
		if !r.Found || r.Version != version || string(r.Value) != string(value) {
			err = fmt.Errorf("hash key %d diverges (found=%v v=%d vs %d)", key, r.Found, r.Version, version)
			return false
		}
		return true
	})
	if err != nil {
		return err
	}
	a.BTree.AscendRange(0, ^uint64(0), func(it btree.Item) bool {
		got, ok := b.BTree.Get(it.Key)
		if !ok || got.Version != it.Version || string(got.Value) != string(it.Value) {
			err = fmt.Errorf("btree key %d diverges", it.Key)
			return false
		}
		return true
	})
	return err
}
