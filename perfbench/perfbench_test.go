package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime/pprof"
	"testing"
	"time"

	"xenic"
	"xenic/internal/workload/retwis"
	"xenic/internal/workload/smallbank"
	"xenic/internal/workload/tpcc"
)

// smallWorkload is a shrunken copy of w, so the tests run in seconds.
func smallWorkload(w *workload) *workload {
	c := *w
	c.warm, c.window = 200*xenic.Microsecond, 300*xenic.Microsecond
	c.gen = func() xenic.Workload {
		g := w.gen()
		switch g := g.(type) {
		case *smallbank.Gen:
			g.AccountsPerServer = 2000
		case *retwis.Gen:
			g.KeysPerServer = 2000
		case *tpcc.Gen:
			g.WarehousesPerServer = 1
		}
		return g
	}
	return &c
}

// The benchmark times the window on its own by running Start, Run(warm)
// and Measure(0, window); that must be exactly Measure(warm, window).
func TestSplitMeasureMatchesMeasure(t *testing.T) {
	for _, w := range workloads {
		w := smallWorkload(w)
		sys, err := w.build(w.gen(), 7)
		if err != nil {
			t.Fatal(err)
		}
		want := sys.Measure(w.warm, w.window)
		sys, err = w.build(w.gen(), 7)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := measure(w, sys, true, nil)
		if got.Result != want {
			t.Errorf("%s: split measure %+v, Measure %+v", w.name, got.Result, want)
		}
	}
}

// A traced cell reports the same modeled results and event count as an
// untraced one, and its history checks clean.
func TestTracedMatchesUntraced(t *testing.T) {
	spec := readSpec(t)
	for _, w := range workloads {
		w := smallWorkload(w)
		c, err := runCell(w, 3)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := runTraced(w, 3, "test")
		if err != nil {
			t.Fatal(err)
		}
		if tr.Model != c.Model {
			t.Errorf("%s: traced %v, untraced %v", w.name, tr.Model, c.Model)
		}
		if !tr.Check.Ok() || tr.Audit != nil || !tr.Drained {
			t.Errorf("%s: check %v audit %v drained %v", w.name, tr.Check, tr.Audit, tr.Drained)
		}
		if _, n := tr.Spans.sum("workload.next"); n == 0 {
			t.Errorf("%s: no Generator.Next spans", w.name)
		}
		matchSpec(t, w.name+" per_layer", perLayer(w, tr, []cell{c}), spec.PerLayer)
		matchSpec(t, w.name+" end_to_end", endToEnd([]cell{c}, 1), spec.EndToEnd)
	}
}

type specMetric struct{ Name, Unit string }

type benchSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []specMetric `json:"end_to_end"`
	PerLayer  []specMetric `json:"per_layer"`
}

func readSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// matchSpec checks that a run emits exactly the metrics BENCHMARK.json
// declares, in the same units.
func matchSpec(t *testing.T, what string, got metricList, want []specMetric) {
	t.Helper()
	if len(got) != len(got.byName()) {
		t.Errorf("%s: duplicate metric names", what)
	}
	byName := got.byName()
	for _, m := range want {
		if g, ok := byName[m.Name]; !ok || g.Unit != m.Unit {
			t.Errorf("%s: %s [%s] declared, emitted %+v", what, m.Name, m.Unit, g)
		}
	}
	if len(got) != len(want) {
		t.Errorf("%s: emits %d metrics, BENCHMARK.json declares %d", what, len(got), len(want))
	}
}

func TestSpecWorkloads(t *testing.T) {
	spec := readSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, perfbench %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %s vs %s", i, w.Name, workloads[i].name)
		}
	}
}

func TestClassify(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.memmove", "xenic/internal/store/chained.(*Table).Insert", "xenic/internal/core.(*Cluster).populate"}, "chained"},
		{[]string{"xenic/internal/sim.(*eventHeap).push", "xenic/internal/simnet.(*Network).Send"}, "sim"},
		{[]string{"runtime.nextFreeFast", "runtime.mallocgc", "xenic/internal/core.newCtxn"}, "malloc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"math/rand.(*Rand).Int63", "xenic/internal/workload/tpcc.(*Gen).Next"}, "workload"},
		{[]string{"xenic/internal/load.(*ClosedLoop).Start"}, "openloop"},
		{[]string{"runtime.futex", "runtime.findRunnable"}, "other"},
	} {
		if got := classify(tc.stack); got != tc.want {
			t.Errorf("classify(%v) = %s, want %s", tc.stack, got, tc.want)
		}
	}
}

func TestFoldProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profile unavailable:", err)
	}
	spin(200 * time.Millisecond)
	pprof.StopCPUProfile()
	shares, err := foldProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, m := range modules {
		sum += shares[m]
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("shares sum to %v: %v", sum, shares)
	}
}

var spinSink uint64

func spin(d time.Duration) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			spinSink = spinSink*6364136223846793005 + 1
		}
	}
}
