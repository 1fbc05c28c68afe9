package main

import (
	"math/rand"
	"time"
)

// The reference task is a fixed amount of host work that depends on
// nothing in the repository: a dependent random walk over a 32 MiB
// single-cycle permutation (memory latency, like the simulator's pointer
// chasing through its heap) and an integer hash loop (the core's own
// throughput). Timing it next to every window measures how fast the host
// is running right now, so wall times can be scaled to a quiet host.

const (
	// refNominal is the reference task's time on a quiet 2-vCPU Xeon VM
	// (the host the bounds were set on); scaled times read as on that host.
	refNominal = 110 * time.Millisecond

	refEntries = 8 << 20 // 32 MiB of uint32
	refSteps   = 1 << 19
	refHashes  = 8 << 20
)

var (
	refPerm []uint32
	refSink uint64
)

// refInit builds the permutation once per process (Sattolo's algorithm,
// fixed seed, so the walk is one cycle through every entry).
func refInit() {
	if refPerm != nil {
		return
	}
	p := make([]uint32, refEntries)
	for i := range p {
		p[i] = uint32(i)
	}
	rng := rand.New(rand.NewSource(1))
	for i := len(p) - 1; i > 0; i-- {
		j := rng.Intn(i)
		p[i], p[j] = p[j], p[i]
	}
	refPerm = p
}

// refRun times one pass of the reference task.
func refRun() time.Duration {
	refInit()
	t0 := time.Now()
	i := uint32(0)
	for k := 0; k < refSteps; k++ {
		i = refPerm[i]
	}
	h := uint64(i)
	for k := 0; k < refHashes; k++ {
		h = h*6364136223846793005 + 1442695040888963407
		h ^= h >> 29
	}
	refSink = h
	return time.Since(t0)
}
