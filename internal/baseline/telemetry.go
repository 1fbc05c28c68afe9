package baseline

import (
	"fmt"

	"xenic/internal/telemetry"
)

// registerTelemetry registers the baseline's own probe, beside the shared
// transaction, latency, host and network series: the lock-table size,
// named like the Xenic cluster's so the dashboard and bottleneck analyzer
// read both systems identically.
func (cl *Cluster) registerTelemetry(s *telemetry.Sampler) {
	for _, n := range cl.nodes {
		s.Sub(fmt.Sprintf("node%d", n.id)).Gauge("lock.held", func() float64 { return float64(len(n.locks)) })
	}
}

// inflight counts node i's outstanding transactions across its threads.
func (cl *Cluster) inflight(i int) int {
	v := 0
	for _, at := range cl.nodes[i].app {
		v += at.outstanding
	}
	return v
}
