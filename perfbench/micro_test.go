package main

// Layer microbenchmarks for the layers that have none in their own
// packages, calling each layer's public functions directly. Run with
//
//	python3 perfbench/run.py --micro
//
// which also runs the existing sim, simnet and pcie hot-path cases.

import (
	"math/rand"
	"testing"

	"xenic/internal/store/btree"
	"xenic/internal/store/chained"
	"xenic/internal/store/nicindex"
	"xenic/internal/store/robinhood"
	"xenic/internal/wire"
)

// storeKeys is the populate size of each store case: one quick-sizing
// shard of Smallbank (40k accounts, two objects each).
const storeKeys = 80_000

var (
	sinkRH  robinhood.LookupResult
	sinkCH  chained.LookupResult
	sinkBT  btree.Item
	sinkIdx nicindex.Result
	sinkMsg wire.Msg
	sinkTxn any
)

func keys(n int, seed int64) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	ks := make([]uint64, n)
	for i := range ks {
		ks[i] = rng.Uint64()
	}
	return ks
}

var value = make([]byte, 12)

func newRobinhood() *robinhood.Table {
	return robinhood.New(robinhood.DefaultConfig(storeKeys * 5 / 3))
}

// BenchmarkRobinhoodPopulate inserts one shard's keys into a fresh table
// (table allocation untimed); ns/insert is per key.
func BenchmarkRobinhoodPopulate(b *testing.B) {
	ks := keys(storeKeys, 1)
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		b.StopTimer()
		t := newRobinhood()
		b.StartTimer()
		for i, k := range ks {
			if err := t.Insert(k, value, uint64(i+1)); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*storeKeys), "ns/insert")
}

func BenchmarkRobinhoodLookup(b *testing.B) {
	ks := keys(storeKeys, 1)
	t := newRobinhood()
	for i, k := range ks {
		if err := t.Insert(k, value, uint64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		sinkRH = t.Lookup(ks[i%len(ks)])
		i++
	}
}

func newChained() *chained.Table { return chained.New(storeKeys/4, 4) }

func BenchmarkChainedPopulate(b *testing.B) {
	ks := keys(storeKeys, 1)
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		b.StopTimer()
		t := newChained()
		b.StartTimer()
		for i, k := range ks {
			t.Insert(k, value, uint64(i+1))
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*storeKeys), "ns/insert")
}

func BenchmarkChainedLookup(b *testing.B) {
	ks := keys(storeKeys, 1)
	t := newChained()
	for i, k := range ks {
		t.Insert(k, value, uint64(i+1))
	}
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		sinkCH = t.Lookup(ks[i%len(ks)])
		i++
	}
}

func BenchmarkBTreePopulate(b *testing.B) {
	ks := keys(storeKeys, 1)
	b.ReportAllocs()
	for b.Loop() {
		t := btree.New()
		for i, k := range ks {
			t.Insert(k, value, uint64(i+1))
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*storeKeys), "ns/insert")
}

func BenchmarkBTreeLookup(b *testing.B) {
	ks := keys(storeKeys, 1)
	t := btree.New()
	for i, k := range ks {
		t.Insert(k, value, uint64(i+1))
	}
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		sinkBT, _ = t.Get(ks[i%len(ks)])
		i++
	}
}

// newIndex builds a NIC index of the given cache capacity over a populated
// host table.
func newIndex(b *testing.B, capacity int) (*nicindex.Index, []uint64) {
	ks := keys(storeKeys, 1)
	host := robinhood.New(robinhood.DefaultConfig(storeKeys * 5 / 3))
	for i, k := range ks {
		if err := host.Insert(k, value, uint64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
	x := nicindex.New(host, capacity, 1)
	x.SyncHints()
	return x, ks
}

// BenchmarkNICIndexHit looks up a working set that fits the cache.
func BenchmarkNICIndexHit(b *testing.B) {
	x, ks := newIndex(b, storeKeys)
	hot := ks[:1024]
	for _, k := range hot {
		x.Lookup(k)
	}
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		sinkIdx = x.Lookup(hot[i%len(hot)])
		i++
	}
	if x.Stats().CacheHits == 0 {
		b.Fatal("no cache hits")
	}
}

// BenchmarkNICIndexMiss cycles over every key with a small cache, so each
// lookup is a DMA lookup, a fill, and an eviction.
func BenchmarkNICIndexMiss(b *testing.B) {
	x, ks := newIndex(b, 1024)
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		sinkIdx = x.Lookup(ks[i%len(ks)])
		i++
	}
	if st := x.Stats(); st.DMALookups < st.Lookups/2 {
		b.Fatalf("expected misses, got %+v", st)
	}
}

// BenchmarkWireRoundTrip marshals and unmarshals a transaction's execute
// request, as every NIC-to-NIC hop does.
func BenchmarkWireRoundTrip(b *testing.B) {
	m := &wire.Execute{Header: wire.Header{TxnID: 1, Src: 0},
		ReadKeys: []uint64{1, 2, 3, 4}, LockKeys: []uint64{5, 6}}
	buf := make([]byte, 0, 128)
	b.ReportAllocs()
	for b.Loop() {
		buf = m.Marshal(buf[:0])
		msg, err := wire.Unmarshal(buf)
		if err != nil {
			b.Fatal(err)
		}
		sinkMsg = msg
	}
}

// BenchmarkGeneratorNext draws transactions from each workload's generator
// at the benchmark's sizing.
func BenchmarkGeneratorNext(b *testing.B) {
	for _, w := range workloads {
		if w.name == "smallbank-drtmh" {
			continue // same generator as smallbank-xenic
		}
		b.Run(w.name, func(b *testing.B) {
			g := w.gen()
			g.Placement(nodes, replication)
			rng := rand.New(rand.NewSource(1))
			b.ReportAllocs()
			i := 0
			for b.Loop() {
				sinkTxn = g.Next(i%nodes, 0, rng)
				i++
			}
		})
	}
}
