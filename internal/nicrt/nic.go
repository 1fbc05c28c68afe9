package nicrt

import (
	"fmt"
	"math/rand"

	"xenic/internal/metrics"
	"xenic/internal/model"
	"xenic/internal/pcie"
	"xenic/internal/sim"
	"xenic/internal/simnet"
	"xenic/internal/trace"
	"xenic/internal/wire"
)

// Features toggles the runtime-level optimizations evaluated in §5.7
// (Figure 9). Protocol-level toggles live in the core package.
type Features struct {
	// EthAggregation packs many messages per Ethernet frame / PCIe packet
	// via per-destination gather lists (§4.3.2). Off: one frame per message.
	EthAggregation bool
	// AsyncDMA accumulates DMAs in per-core vectors with continuation
	// callbacks (§4.3.1). Off: every DMA is a blocking single-element
	// submission.
	AsyncDMA bool
}

// AllFeatures enables the full Xenic runtime.
func AllFeatures() Features { return Features{EthAggregation: true, AsyncDMA: true} }

// Handler processes one protocol message on a NIC core. src is the sending
// node (the local node for messages from the host).
type Handler func(c *Core, src int, m wire.Msg)

// Stats counts NIC-level events.
type Stats struct {
	RxFrames, RxMsgs    int64
	TxFrames, TxMsgs    int64
	HostRxMsgs          int64 // messages received from the local host
	HostTxMsgs          int64 // messages sent to the local host
	DMAReads, DMAWrites int64
	DupFrames           int64 // duplicate frames suppressed by Seq (fault runs)
	DeadDrops           int64 // frames dropped because no core is alive
	DMARetries          int64 // DMA vectors resubmitted after injected errors
}

// NIC is one server's on-path SmartNIC: a set of polling cores over the
// fabric port, the DMA engine, and the host packet interface.
type NIC struct {
	eng   *sim.Engine
	p     model.Params
	node  int
	nw    *simnet.Network
	dma   *pcie.Engine
	feat  Features
	cores []*Core
	rng   *rand.Rand

	// Duplicate-frame suppression state, allocated lazily on fault-injection
	// runs (the network stamps Frame.Seq per source).
	seen   []map[uint64]struct{}
	maxSeq []uint64

	// epoch is the membership view epoch stamped on every emitted frame;
	// receivers use it to fence traffic from before a node's (re)join.
	epoch int

	handler     Handler
	hostDeliver func(ms []wire.Msg)

	// sendFn hands a frame to the fabric (the At1 target for frame
	// transmission, bound once so flushes schedule without closures).
	sendFn func(any)

	util  *metrics.Utilization
	stats Stats
	tr    *trace.Tracer

	// Always-on batching distributions (§4.3): recording is two array
	// increments, cheap enough for the NIC hot paths.
	batchSizes metrics.IntHist // messages per transmitted frame
	gatherLens metrics.IntHist // gather-list length per destination flush
	dmaVecOcc  metrics.IntHist // elements per submitted DMA vector
}

// New creates a NIC with ncores active cores attached to nw at node. seed is
// the cluster seed; each NIC derives its PRNG from (seed, node) so distinct
// cluster seeds explore distinct random streams on every node.
func New(eng *sim.Engine, p model.Params, nw *simnet.Network, node, ncores int, seed int64, feat Features) *NIC {
	if ncores <= 0 || ncores > p.NICCores {
		panic(fmt.Sprintf("nicrt: %d cores outside 1..%d", ncores, p.NICCores))
	}
	n := &NIC{
		eng: eng, p: p, node: node, nw: nw,
		dma:  pcie.New(eng, p),
		feat: feat,
		rng:  rand.New(rand.NewSource(seed*1000003 + int64(node)*7919 + 1)),
		util: metrics.NewUtilization(ncores),
	}
	for i := 0; i < ncores; i++ {
		c := &Core{nic: n, id: i, outNet: map[int]*[]wire.Msg{}}
		c.poller = NewPoller(eng, p.NICLoopIdle)
		c.poller.SetWork(c.iteration)
		i := i
		c.poller.SetOnBusy(func(d sim.Time) { n.util.Add(i, d) })
		n.cores = append(n.cores, c)
	}
	n.sendFn = n.sendFrame
	nw.Attach(node, n.dispatchFrame)
	return n
}

// sendFrame transmits a flushed frame at its scheduled handoff instant.
func (n *NIC) sendFrame(arg any) { n.nw.Send(arg.(*simnet.Frame)) }

// Node returns this NIC's node id.
func (n *NIC) Node() int { return n.node }

// Cores returns the number of active cores.
func (n *NIC) Cores() int { return len(n.cores) }

// DMA exposes the NIC's DMA engine (for stats).
func (n *NIC) DMA() *pcie.Engine { return n.dma }

// Stats returns a copy of the counters.
func (n *NIC) Stats() Stats { return n.stats }

// Utilization returns the per-core busy accounting.
func (n *NIC) Utilization() *metrics.Utilization { return n.util }

// QueueDepth reports the total work queued at the NIC's cores right now:
// undelivered frames, host packets, DMA completion batches, and injected
// jobs. A telemetry gauge; O(cores) and read-only.
func (n *NIC) QueueDepth() int {
	d := 0
	for _, c := range n.cores {
		d += len(c.inFrames) + len(c.inHost) + len(c.dmaDone) + len(c.jobs)
	}
	return d
}

// BatchSizes returns the messages-per-frame distribution.
func (n *NIC) BatchSizes() *metrics.IntHist { return &n.batchSizes }

// GatherLens returns the per-destination gather-list length distribution.
func (n *NIC) GatherLens() *metrics.IntHist { return &n.gatherLens }

// DMAVecOcc returns the DMA vector occupancy distribution.
func (n *NIC) DMAVecOcc() *metrics.IntHist { return &n.dmaVecOcc }

// SetTracer attaches tr (nil disables tracing).
func (n *NIC) SetTracer(tr *trace.Tracer) { n.tr = tr }

// RegisterMetrics registers the NIC's counters, batching distributions, and
// DMA-engine byte counters under reg's scope.
func (n *NIC) RegisterMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	reg.RegisterFunc("frames", func() any {
		s := n.stats
		return map[string]any{
			"rx_frames":    s.RxFrames,
			"rx_msgs":      s.RxMsgs,
			"tx_frames":    s.TxFrames,
			"tx_msgs":      s.TxMsgs,
			"host_rx_msgs": s.HostRxMsgs,
			"host_tx_msgs": s.HostTxMsgs,
			"dma_reads":    s.DMAReads,
			"dma_writes":   s.DMAWrites,
			"dup_frames":   s.DupFrames,
			"dead_drops":   s.DeadDrops,
			"dma_retries":  s.DMARetries,
		}
	})
	reg.RegisterIntHist("batch_msgs_per_frame", &n.batchSizes)
	reg.RegisterIntHist("gather_list_len", &n.gatherLens)
	reg.RegisterIntHist("dma_vector_occupancy", &n.dmaVecOcc)
	reg.RegisterFunc("pcie", func() any { return n.dma.Snapshot() })
}

// SetEpoch updates the view epoch stamped on emitted frames; the protocol
// layer calls it when a new membership view lands.
func (n *NIC) SetEpoch(e int) { n.epoch = e }

// Epoch returns the view epoch currently stamped on emitted frames.
func (n *NIC) Epoch() int { return n.epoch }

// Reset wipes the NIC's soft state for a node restart: the duplicate-frame
// suppression window and the frame epoch. Forgetting seen sequence numbers
// is safe because every pre-restart frame carries a stale epoch and is
// fenced by the protocol layer before it can act.
func (n *NIC) Reset() {
	n.seen = nil
	n.maxSeq = nil
	n.epoch = 0
}

// OnMessage installs the protocol handler; must be set before traffic flows.
func (n *NIC) OnMessage(h Handler) { n.handler = h }

// OnHostDeliver installs the host-side receive function for NIC->host
// messages (the host runtime's dispatcher).
func (n *NIC) OnHostDeliver(fn func(ms []wire.Msg)) { n.hostDeliver = fn }

// dispatchFrame steers an arriving frame to a core by its flow label. Frames
// whose hashed core is stopped fall through to the next live core (the
// hardware flow engine is reprogrammed around dead cores); when no core is
// alive the frame is counted and dropped. On fault runs, duplicate deliveries
// of the same frame (Frame.Seq already seen from that source) are suppressed.
func (n *NIC) dispatchFrame(f *simnet.Frame) {
	if f.Seq != 0 && n.dupFrame(f) {
		n.stats.DupFrames++
		return
	}
	c := n.liveCoreFrom(int(hash64(uint64(f.Flow)) % uint64(len(n.cores))))
	if c == nil {
		n.stats.DeadDrops++
		return
	}
	c.inFrames = append(c.inFrames, f)
	c.poller.Wake()
}

// dupFrame records f's sequence number and reports whether it was already
// delivered from this source. The seen-set is pruned by window: delayed
// frames arrive out of order, so a bounded set of recent seqs is kept.
func (n *NIC) dupFrame(f *simnet.Frame) bool {
	if n.seen == nil {
		n.seen = make([]map[uint64]struct{}, n.nw.Nodes())
		n.maxSeq = make([]uint64, n.nw.Nodes())
	}
	m := n.seen[f.Src]
	if m == nil {
		m = map[uint64]struct{}{}
		n.seen[f.Src] = m
	}
	if _, dup := m[f.Seq]; dup {
		return true
	}
	m[f.Seq] = struct{}{}
	if f.Seq > n.maxSeq[f.Src] {
		n.maxSeq[f.Src] = f.Seq
	}
	if len(m) > 8192 {
		floor := n.maxSeq[f.Src] - 4096
		for s := range m {
			if s < floor {
				delete(m, s)
			}
		}
	}
	return false
}

// liveCoreFrom returns the first live core scanning from idx, or nil when
// every core is stopped.
func (n *NIC) liveCoreFrom(idx int) *Core {
	for i := 0; i < len(n.cores); i++ {
		c := n.cores[(idx+i)%len(n.cores)]
		if !c.poller.Stopped() {
			return c
		}
	}
	return nil
}

// FromHost delivers a batch of host-originated messages (one PCIe packet)
// to a NIC core. Called by the host runtime after the HostToNIC delay.
// Like dispatchFrame, it routes around stopped cores and counts the batch as
// dropped if none remain.
func (n *NIC) FromHost(ms []wire.Msg) {
	if len(ms) == 0 {
		return
	}
	c := n.liveCoreFrom(int(hash64(txnOf(ms[0])) % uint64(len(n.cores))))
	if c == nil {
		n.stats.DeadDrops++
		return
	}
	c.inHost = append(c.inHost, ms)
	c.poller.Wake()
}

func txnOf(m wire.Msg) uint64 {
	type txnIDer interface{ GetTxnID() uint64 }
	if t, ok := m.(txnIDer); ok {
		return t.GetTxnID()
	}
	return 0
}

func hash64(v uint64) uint64 {
	z := v + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	return z ^ (z >> 31)
}

// StopCore parks core i permanently (failure injection / thread scaling).
func (n *NIC) StopCore(i int) { n.cores[i].poller.Stop() }

// StallCore freezes core i for dur: its next loop iteration is charged the
// whole stall as dead time, delaying everything queued behind it. Finite
// stalls model firmware hiccups without the liveness hazards of StopCore.
func (n *NIC) StallCore(i int, dur sim.Time) {
	n.Inject(i, func(c *Core) { c.poller.Charge(dur) })
}

// LiveCore returns the index of a live core (0 when every core is stopped,
// so existing Inject(0) semantics degrade gracefully).
func (n *NIC) LiveCore() int {
	for i, c := range n.cores {
		if !c.poller.Stopped() {
			return i
		}
	}
	return 0
}

// CoreFor returns a live core index for flow key k: the deterministic hash
// choice, falling through to the next live core when that one is stopped.
func (n *NIC) CoreFor(k uint64) int {
	idx := int(hash64(k) % uint64(len(n.cores)))
	for i := 0; i < len(n.cores); i++ {
		j := (idx + i) % len(n.cores)
		if !n.cores[j].poller.Stopped() {
			return j
		}
	}
	return idx
}

// SetDMAFault installs the DMA completion-error decision hook (fault runs).
func (n *NIC) SetDMAFault(fn func() bool) { n.dma.SetFaultHook(fn) }

// StallDMA freezes the DMA engine for dur.
func (n *NIC) StallDMA(dur sim.Time) { n.dma.Stall(dur) }

// InjectRx delivers one message to the protocol handler on a live core as
// if it had arrived from src in a frame stamped with the given view epoch;
// tests exercise the receive-side epoch fence with it.
func (n *NIC) InjectRx(epoch, src int, m wire.Msg) {
	n.Inject(n.LiveCore(), func(c *Core) {
		c.rxEpoch = epoch
		c.nic.handler(c, src, m)
		c.rxEpoch = 0
	})
}

// Inject schedules fn to run on core i's next loop iteration; protocol
// timers and NIC-originated microbenchmarks use it.
func (n *NIC) Inject(i int, fn func(c *Core)) {
	c := n.cores[i%len(n.cores)]
	c.jobs = append(c.jobs, fn)
	c.poller.Wake()
}

// Core is one NIC core plus its aggregation state. Protocol handlers
// receive a *Core and use it to charge compute time, issue DMAs, and send
// messages; everything they emit is aggregated at iteration end (§4.3.2).
type Core struct {
	nic    *NIC
	id     int
	poller *Poller

	inFrames []*simnet.Frame
	inHost   [][]wire.Msg
	dmaDone  [][]func()
	jobs     []func(c *Core)

	// Spare backing arrays ping-ponged with the input queues each iteration,
	// so draining a queue does not force the next arrivals to reallocate it.
	frameSpare []*simnet.Frame
	hostSpare  [][]wire.Msg
	doneSpare  [][]func()
	jobSpare   []func(c *Core)

	pendReadSizes  []int
	pendReadCbs    []func()
	pendWriteSizes []int
	pendWriteCbs   []func()

	// Freelists for the per-vector sizes/continuation arrays: sizes come back
	// when a vector completes, continuation batches when they have run.
	sizePool [][]int
	cbPool   [][]func()

	outNet  map[int]*[]wire.Msg
	outDsts []int
	outHost []wire.Msg

	// rxEpoch is the view epoch stamped on the frame whose messages are being
	// handled right now (0 for host-, DMA-, and job-context work).
	rxEpoch int
}

// RxEpoch returns the view epoch of the frame currently being handled, or 0
// when the handler is running in a host/DMA/job context.
func (c *Core) RxEpoch() int { return c.rxEpoch }

// iteration is one burst loop pass: handle a burst of Ethernet and host
// traffic and a burst of DMA completions, then flush DMA vectors and
// aggregated transmissions.
func (c *Core) iteration() bool {
	did := false
	p := c.nic.p

	frames := c.inFrames
	c.inFrames = c.frameSpare[:0]
	for i, f := range frames {
		did = true
		c.poller.Charge(p.NICFrameRx)
		c.nic.stats.RxFrames++
		if tr := c.nic.tr; tr.Enabled() {
			tr.Instant("net", "frame-rx", c.nic.node, c.id, c.nic.eng.Now(),
				trace.Args{"src": f.Src, "bytes": f.PayloadBytes, "msgs": len(f.Msgs)})
		}
		c.rxEpoch = f.Epoch
		for _, raw := range f.Msgs {
			m := raw.(wire.Msg)
			c.nic.stats.RxMsgs++
			c.poller.Charge(p.NICMsgHandle)
			c.nic.handler(c, f.Src, m)
		}
		frames[i] = nil
		c.nic.nw.Recycle(f)
	}
	c.rxEpoch = 0
	c.frameSpare = frames[:0]

	hostPkts := c.inHost
	c.inHost = c.hostSpare[:0]
	for i, pkt := range hostPkts {
		did = true
		c.poller.Charge(p.NICFrameRx) // PCIe packet descriptor handling
		for _, m := range pkt {
			c.nic.stats.HostRxMsgs++
			c.poller.Charge(p.NICMsgHandle)
			c.nic.handler(c, c.nic.node, m)
		}
		hostPkts[i] = nil
	}
	c.hostSpare = hostPkts[:0]

	done := c.dmaDone
	c.dmaDone = c.doneSpare[:0]
	for i, batch := range done {
		did = true
		for j, cb := range batch {
			cb()
			batch[j] = nil
		}
		c.cbPool = append(c.cbPool, batch[:0])
		done[i] = nil
	}
	c.doneSpare = done[:0]

	jobs := c.jobs
	c.jobs = c.jobSpare[:0]
	for i, j := range jobs {
		did = true
		j(c)
		jobs[i] = nil
	}
	c.jobSpare = jobs[:0]

	c.flushDMA()
	c.flushNet()
	c.flushHost()
	return did
}

// Charge adds compute cost to the current iteration.
func (c *Core) Charge(d sim.Time) { c.poller.Charge(d) }

// Now returns the core's current instant.
func (c *Core) Now() sim.Time { return c.poller.Now() }

// Node returns the local node id.
func (c *Core) Node() int { return c.nic.node }

// Rand returns the NIC's PRNG.
func (c *Core) Rand() *rand.Rand { return c.nic.rng }

// Send queues m for transmission to node dst, aggregated with other
// messages to the same destination at iteration end.
func (c *Core) Send(dst int, m wire.Msg) {
	if dst == c.nic.node {
		panic("nicrt: self-send; local work must not use the fabric")
	}
	q, ok := c.outNet[dst]
	if !ok {
		q = new([]wire.Msg)
		c.outNet[dst] = q
	}
	if len(*q) == 0 {
		// First message for dst since the last flush: (re-)enter it in the
		// deterministic flush order.
		c.outDsts = append(c.outDsts, dst)
	}
	*q = append(*q, m)
}

// SendHost queues m for delivery to the local host over PCIe.
func (c *Core) SendHost(m wire.Msg) { c.outHost = append(c.outHost, m) }

// DMARead issues an asynchronous host-memory read of the given element
// sizes; cb runs (on this core, in a later iteration) once the data is in
// NIC memory. With AsyncDMA disabled the core blocks for the completion.
func (c *Core) DMARead(sizes []int, cb func()) { c.dmaOp(false, sizes, cb) }

// DMAWrite issues an asynchronous host-memory write; cb runs once the
// completion status lands (e.g. to send a LOG acknowledgement).
func (c *Core) DMAWrite(sizes []int, cb func()) { c.dmaOp(true, sizes, cb) }

func (c *Core) dmaOp(write bool, sizes []int, cb func()) {
	if len(sizes) == 0 {
		panic("nicrt: empty DMA")
	}
	p := c.nic.p
	if write {
		c.nic.stats.DMAWrites += int64(len(sizes))
	} else {
		c.nic.stats.DMAReads += int64(len(sizes))
	}
	if !c.nic.feat.AsyncDMA {
		// Blocking mode (ablation baseline): submit immediately as its own
		// vector and stall the core until completion.
		c.Charge(p.DMASubmit)
		c.nic.dmaVecOcc.Record(len(sizes))
		if tr := c.nic.tr; tr.Enabled() {
			tr.Instant("dma", "dma-vec", c.nic.node, c.id, c.nic.eng.Now(),
				trace.Args{"n": len(sizes), "write": write})
		}
		lat := p.DMAReadLatency
		if write {
			lat = p.DMAWriteLatency
		}
		c.nic.dma.Submit(c.id%p.DMAQueues, &pcie.Vector{Write: write, Sizes: sizes})
		c.Charge(lat)
		if cb != nil {
			cb()
		}
		return
	}
	for _, sz := range sizes {
		if write {
			c.pendWriteSizes = append(c.pendWriteSizes, sz)
			if len(c.pendWriteSizes) == p.DMAVectorMax {
				if cb != nil {
					c.pendWriteCbs = append(c.pendWriteCbs, cb)
					cb = nil
				}
				c.submitVector(true)
				continue
			}
		} else {
			c.pendReadSizes = append(c.pendReadSizes, sz)
			if len(c.pendReadSizes) == p.DMAVectorMax {
				if cb != nil {
					c.pendReadCbs = append(c.pendReadCbs, cb)
					cb = nil
				}
				c.submitVector(false)
				continue
			}
		}
	}
	if cb != nil {
		if write {
			c.pendWriteCbs = append(c.pendWriteCbs, cb)
		} else {
			c.pendReadCbs = append(c.pendReadCbs, cb)
		}
	}
}

// submitVector submits the pending read or write vector, amortizing the
// submission cost and registering the completion continuation.
func (c *Core) submitVector(write bool) {
	p := c.nic.p
	var sizes []int
	var cbs []func()
	if write {
		sizes, cbs = c.pendWriteSizes, c.pendWriteCbs
		c.pendWriteSizes, c.pendWriteCbs = c.grabSizes(), c.grabCbs()
	} else {
		sizes, cbs = c.pendReadSizes, c.pendReadCbs
		c.pendReadSizes, c.pendReadCbs = c.grabSizes(), c.grabCbs()
	}
	if len(sizes) == 0 {
		return
	}
	c.Charge(p.DMASubmit)
	c.nic.dmaVecOcc.Record(len(sizes))
	if tr := c.nic.tr; tr.Enabled() {
		tr.Instant("dma", "dma-vec", c.nic.node, c.id, c.nic.eng.Now(),
			trace.Args{"n": len(sizes), "write": write})
	}
	core := c
	queue := c.id % p.DMAQueues
	v := &pcie.Vector{
		Write: write,
		Sizes: sizes,
		Complete: func() {
			if len(cbs) > 0 {
				core.dmaDone = append(core.dmaDone, cbs)
			} else if cap(cbs) > 0 {
				core.cbPool = append(core.cbPool, cbs[:0])
			}
			// The engine is done with the vector; its sizes array can back a
			// future vector.
			core.sizePool = append(core.sizePool, sizes[:0])
			core.poller.Wake()
		},
	}
	// On fault runs the engine may fail the completion; the runtime retries
	// the same vector after a deterministic capped-exponential backoff, so a
	// burst of injected errors delays the continuations instead of losing
	// them.
	attempt := 0
	v.Failed = func() {
		attempt++
		core.nic.stats.DMARetries++
		if tr := core.nic.tr; tr.Enabled() {
			tr.Instant("fault", "dma-retry", core.nic.node, core.id, core.nic.eng.Now(),
				trace.Args{"attempt": attempt, "write": write})
		}
		core.nic.eng.After(dmaRetryBackoff(attempt), func() { core.nic.dma.Submit(queue, v) })
	}
	// Submit at the core's current instant so engine admission sees the
	// true submission time, not the iteration's start.
	c.poller.At(0, func() { c.nic.dma.Submit(queue, v) })
}

// grabSizes returns a recycled sizes array (or nil; append allocates then).
func (c *Core) grabSizes() []int {
	if n := len(c.sizePool); n > 0 {
		s := c.sizePool[n-1]
		c.sizePool = c.sizePool[:n-1]
		return s
	}
	return nil
}

// grabCbs returns a recycled continuation array (or nil).
func (c *Core) grabCbs() []func() {
	if n := len(c.cbPool); n > 0 {
		s := c.cbPool[n-1]
		c.cbPool = c.cbPool[:n-1]
		return s
	}
	return nil
}

// DMA resubmission backoff: deterministic capped doubling, mirroring the
// transport-level retransmission policy in simnet.
const (
	dmaRetryBase = 2 * sim.Microsecond
	dmaRetryMax  = 50 * sim.Microsecond
)

func dmaRetryBackoff(attempt int) sim.Time {
	d := dmaRetryBase
	for i := 1; i < attempt && d < dmaRetryMax; i++ {
		d *= 2
	}
	if d > dmaRetryMax {
		d = dmaRetryMax
	}
	return d
}

// flushDMA submits any partial vectors at iteration end ("when a NIC core
// is idle, or when the DMA vector fills" — §4.3.1).
func (c *Core) flushDMA() {
	c.submitVector(false)
	c.submitVector(true)
}

// flushNet transmits each destination's gather list, packing messages into
// MTU-bounded frames when aggregation is enabled. Frames come from the
// fabric's freelist and carry their messages in the frame's own (recycled)
// Msgs array, and handoff is scheduled closure-free, so a flush of an
// already-warm core allocates nothing.
func (c *Core) flushNet() {
	p := c.nic.p
	flow := c.nic.node*64 + c.id
	for _, dst := range c.outDsts {
		q := c.outNet[dst]
		ms := *q
		if len(ms) == 0 {
			continue
		}
		c.nic.gatherLens.Record(len(ms))
		if !c.nic.feat.EthAggregation {
			for i, m := range ms {
				c.nic.stats.TxMsgs++
				f := c.nic.nw.NewFrame()
				f.Msgs = append(f.Msgs, m)
				c.emitFrame(dst, flow, m.WireSize(), f)
				ms[i] = nil
			}
			*q = ms[:0]
			continue
		}
		f := c.nic.nw.NewFrame()
		batchBytes := 0
		for i, m := range ms {
			sz := m.WireSize()
			c.nic.stats.TxMsgs++
			if batchBytes > 0 && batchBytes+sz > p.MTU {
				c.emitFrame(dst, flow, batchBytes, f)
				f = c.nic.nw.NewFrame()
				batchBytes = 0
			}
			f.Msgs = append(f.Msgs, m)
			batchBytes += sz
			ms[i] = nil
		}
		c.emitFrame(dst, flow, batchBytes, f)
		*q = ms[:0]
	}
	c.outDsts = c.outDsts[:0]
}

// emitFrame stamps and transmits one gathered frame carrying bytes of
// payload. Messages larger than the MTU are fragmented; the payload rides
// the leading frames and the messages are delivered with the final fragment
// (last-bit arrival).
func (c *Core) emitFrame(dst, flow, bytes int, f *simnet.Frame) {
	p := c.nic.p
	for bytes > p.MTU {
		c.Charge(p.NICFrameTx)
		c.nic.stats.TxFrames++
		frag := c.nic.nw.NewFrame()
		frag.Src, frag.Dst, frag.PayloadBytes, frag.Flow = c.nic.node, dst, p.MTU, flow
		frag.Epoch = c.nic.epoch
		c.nic.eng.At1(c.poller.Now(), c.nic.sendFn, frag)
		bytes -= p.MTU
	}
	c.Charge(p.NICFrameTx)
	c.nic.stats.TxFrames++
	c.nic.batchSizes.Record(len(f.Msgs))
	if tr := c.nic.tr; tr.Enabled() {
		tr.Instant("net", "frame-tx", c.nic.node, c.id, c.nic.eng.Now(),
			trace.Args{"dst": dst, "bytes": bytes, "msgs": len(f.Msgs)})
	}
	f.Src, f.Dst, f.PayloadBytes, f.Flow = c.nic.node, dst, bytes, flow
	f.Epoch = c.nic.epoch
	// Transmit at the core's current instant so link serialization starts
	// when the core actually hands off the frame.
	c.nic.eng.At1(c.poller.Now(), c.nic.sendFn, f)
}

// flushHost delivers queued NIC->host messages as one PCIe packet.
func (c *Core) flushHost() {
	if len(c.outHost) == 0 {
		return
	}
	ms := c.outHost
	c.outHost = nil
	c.nic.stats.HostTxMsgs += int64(len(ms))
	c.Charge(c.nic.p.NICFrameTx)
	if tr := c.nic.tr; tr.Enabled() {
		tr.Instant("pcie", "host-tx", c.nic.node, c.id, c.nic.eng.Now(),
			trace.Args{"msgs": len(ms)})
	}
	deliver := c.nic.hostDeliver
	if deliver == nil {
		panic("nicrt: no host delivery function installed")
	}
	c.poller.At(c.nic.p.NICToHost, func() { deliver(ms) })
}
