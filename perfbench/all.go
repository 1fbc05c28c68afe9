package main

import (
	"encoding/json"
	"fmt"
	"path/filepath"
)

// paperFig8dRatio is Figure 8d's Xenic / DrTM+H Smallbank throughput ratio.
const paperFig8dRatio = 2.21

// runAll runs every workload untraced and traced, prints every metric by
// name with its unit, compares the model with the paper, and returns the
// exit code: non-zero if any correctness check failed.
func runAll(seed int64, secs int, out string) int {
	code := 0
	tput := map[string]float64{}
	sum := outcome{Correct: true, Metrics: map[string]metric{}}
	for _, w := range workloads {
		fmt.Printf("== %s (seed %d)\n", w.name, seed)
		r := &run{w: w, seed: seed, seconds: secs, trace: true,
			out: filepath.Join(out, fmt.Sprintf("%s-seed%d-all", w.name, seed))}
		if err := r.execute(); err != nil {
			fmt.Println("ERROR:", err)
			return 1
		}
		e2e, e2eExtra := endToEnd(r.cells, peakRSS()), reportOnly(r.cells)
		layer, layerExtra := r.metrics()
		fmt.Println("-- end to end")
		for _, m := range append(e2e, e2eExtra...) {
			fmt.Println(m)
		}
		fmt.Println("-- per layer")
		for _, m := range append(layer, layerExtra...) {
			fmt.Println(m)
		}
		for _, p := range r.problems {
			fmt.Println("FAIL:", p)
		}
		o := r.outcome(append(e2e, layer...))
		if err := r.save(o, append(e2eExtra, layerExtra...)); err != nil {
			fmt.Println("ERROR:", err)
			return 1
		}
		if !o.Correct {
			code = 1
		}
		sum.Correct = sum.Correct && o.Correct
		sum.Attempted += o.Attempted
		sum.Failed += o.Failed
		for k, v := range o.Metrics {
			sum.Metrics[w.name+"."+k] = v
		}
		tput[w.name] = r.cells[0].Model.Tput
	}
	if d := tput["smallbank-drtmh"]; d > 0 {
		got := tput["smallbank-xenic"] / d
		fmt.Printf("-- model vs paper\nfig8d tput ratio xenic/drtmh: %.3f (paper %.2f, error %+.1f%%)\n",
			got, paperFig8dRatio, 100*(got/paperFig8dRatio-1))
		sum.Metrics["model.fig8d_ratio"] = metric{Value: got, Unit: "x"}
	}
	b, _ := json.Marshal(sum)
	fmt.Println(string(b))
	return code
}
