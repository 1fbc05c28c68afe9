package main

import (
	"fmt"

	"xenic"
)

// workload is one benchmark cell: a transactional workload on one system,
// with its sizing, offered load and measurement window. Every cell builds a
// fresh generator (TPC-C keeps order-id sequencers in it), so two cells with
// the same seed see identical inputs.
type workload struct {
	name   string
	system string // "xenic" or "drtmh"
	warm   xenic.Time
	window xenic.Time
	// gen returns a fresh generator at the workload's sizing.
	gen func() xenic.Workload
	// build constructs the system around g; seed drives every PRNG.
	build func(g xenic.Workload, seed int64, opts ...xenic.Option) (xenic.System, error)
	// openLoop marks the workload whose latency is client-observed.
	openLoop bool
	// config is the full cell configuration, recorded in the run manifest.
	config map[string]any
}

// Shared shape of every workload: the paper's testbed.
const (
	nodes       = 6
	replication = 3
)

func smallbankGen() xenic.Workload {
	g := xenic.Smallbank()
	g.AccountsPerServer = 40_000
	g.HotFrac, g.HotProb = 0.04, 0.9
	return g
}

func tpccGen() xenic.Workload {
	g := xenic.TPCC()
	g.WarehousesPerServer = 12
	g.ItemsPerWarehouse = 500
	g.CustomersPerDistrict = 30
	return g
}

func retwisGen() xenic.Workload {
	g := xenic.Retwis()
	g.KeysPerServer = 40_000
	g.Alpha = 0.5
	return g
}

// xenicCell returns a builder for a Xenic cluster with the given thread
// counts and a per-node closed-loop window split across app threads.
func xenicCell(app, workers, nic, perNode int, mvcc bool) func(xenic.Workload, int64, ...xenic.Option) (xenic.System, error) {
	return func(g xenic.Workload, seed int64, opts ...xenic.Option) (xenic.System, error) {
		cfg := xenic.DefaultConfig()
		cfg.Nodes, cfg.Replication = nodes, replication
		cfg.AppThreads, cfg.WorkerThreads, cfg.NICCores = app, workers, nic
		cfg.Outstanding = max(perNode/app, 1)
		cfg.MVCC = mvcc
		cfg.Seed = seed
		return xenic.NewCluster(cfg, g, opts...)
	}
}

func drtmhCell(threads, perNode int) func(xenic.Workload, int64, ...xenic.Option) (xenic.System, error) {
	return func(g xenic.Workload, seed int64, opts ...xenic.Option) (xenic.System, error) {
		cfg := xenic.DefaultBaselineConfig(xenic.DrTMH)
		cfg.Nodes, cfg.Replication = nodes, replication
		cfg.Threads = threads
		cfg.Outstanding = max(perNode/threads, 1)
		cfg.Seed = seed
		return xenic.NewBaseline(cfg, g, opts...)
	}
}

// openLoopRate is retwis-mvcc-open's cluster-wide Poisson arrival rate,
// about three quarters of the cell's closed-loop capacity.
const openLoopRate = 8e6

var workloads = []*workload{
	{
		name:   "smallbank-xenic",
		system: "xenic",
		warm:   1 * xenic.Millisecond, window: 3 * xenic.Millisecond,
		gen:   smallbankGen,
		build: xenicCell(2, 3, 16, 256, false),
		config: map[string]any{"system": "xenic", "workload": "smallbank",
			"accounts_per_server": 40_000, "hot_frac": 0.04, "hot_prob": 0.9,
			"app_threads": 2, "worker_threads": 3, "nic_cores": 16,
			"outstanding_per_node": 256, "load": "closed"},
	},
	{
		name:   "smallbank-drtmh",
		system: "drtmh",
		warm:   1 * xenic.Millisecond, window: 3 * xenic.Millisecond,
		gen:   smallbankGen,
		build: drtmhCell(16, 256),
		config: map[string]any{"system": "DrTM+H", "workload": "smallbank",
			"accounts_per_server": 40_000, "hot_frac": 0.04, "hot_prob": 0.9,
			"threads": 16, "outstanding_per_node": 256, "load": "closed"},
	},
	{
		name:   "tpcc-xenic",
		system: "xenic",
		warm:   1 * xenic.Millisecond, window: 3 * xenic.Millisecond,
		gen:   tpccGen,
		build: xenicCell(12, 6, 12, 96, false),
		config: map[string]any{"system": "xenic", "workload": "tpcc",
			"warehouses_per_server": 12, "items_per_warehouse": 500,
			"customers_per_district": 30, "app_threads": 12,
			"worker_threads": 6, "nic_cores": 12,
			"outstanding_per_node": 96, "load": "closed"},
	},
	{
		name:   "retwis-mvcc-open",
		system: "xenic",
		warm:   1 * xenic.Millisecond, window: 3 * xenic.Millisecond,
		gen:   retwisGen,
		build: retwisOpen,
		config: map[string]any{"system": "xenic", "workload": "retwis",
			"keys_per_server": 40_000, "alpha": 0.5, "read_only_frac": 0.5,
			"mvcc": true, "app_threads": 2, "worker_threads": 3,
			"nic_cores": 16, "load": "open", "arrival": "poisson",
			"rate_txn_per_s": openLoopRate, "sessions": 256, "admission": "none"},
		openLoop: true,
	},
}

func retwisOpen(g xenic.Workload, seed int64, opts ...xenic.Option) (xenic.System, error) {
	ol := xenic.WithOpenLoop(xenic.OpenLoopConfig{Rate: openLoopRate, Sessions: 256, Seed: seed})
	return xenicCell(2, 3, 16, 256, true)(g, seed, append([]xenic.Option{ol}, opts...)...)
}

func lookup(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
