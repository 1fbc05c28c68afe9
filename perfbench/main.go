// Command perfbench runs the transactional benchmark: whole cells of the
// simulated Xenic and DrTM+H systems, built and measured through the public
// xenic API, one cell at a time in this process. See README.md.
//
//	perfbench --workload smallbank-xenic --seed 1 --seconds 20 --trace 0
//	perfbench --workload all --seed 1 --seconds 20
//
// With --trace 0 it measures untraced cells for --seconds of wall time and
// prints the end-to-end metrics; with --trace 1 it also runs one traced cell
// and prints the per-layer metrics. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// minCells is the fewest timed cells a run measures, so medians have
// several to work with.
const minCells = 3

type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is one invocation for one workload.
type run struct {
	w         *workload
	seed      int64
	seconds   int
	trace     bool
	out       string // result directory
	started   time.Time
	cells     []cell
	tr        *traced
	attempted int64
	failed    int64
	problems  []string
}

func (r *run) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
	r.failed++
}

func (r *run) execute() error {
	r.started = time.Now()
	// An untimed first cell grows the heap and lets a host that was idle
	// come up to speed; it takes part in the determinism check only.
	warm, err := runCell(r.w, r.seed)
	if err != nil {
		return err
	}
	r.account(warm.Model, warm.Drained)
	start := time.Now()
	for len(r.cells) < minCells || time.Since(start) < time.Duration(r.seconds)*time.Second {
		c, err := runCell(r.w, r.seed)
		if err != nil {
			return err
		}
		r.account(c.Model, c.Drained)
		if c.Model != warm.Model {
			r.fail("untraced cells with seed %d differ: %v vs %v", r.seed, warm.Model, c.Model)
		}
		r.cells = append(r.cells, c)
		fmt.Printf("cell %d: setup %.3fs window %.3fs %.0f commits/wall-s | %v\n",
			len(r.cells), c.Setup.Seconds(), c.Wall.Seconds(), c.commitsPerWallS(), c.Model)
	}
	if !r.trace {
		return nil
	}
	t, err := runTraced(r.w, r.seed, fmt.Sprintf("%s-seed%d", r.w.name, r.seed))
	if err != nil {
		return err
	}
	r.tr = t
	r.account(t.Model, t.Drained)
	if t.Model != r.cells[0].Model {
		r.fail("traced cell differs from untraced: %v vs %v", t.Model, r.cells[0].Model)
	}
	if !t.Check.Ok() {
		r.fail("history check: %v", t.Check)
	}
	if t.Audit != nil {
		r.fail("history audit: %v", t.Audit)
	}
	fmt.Printf("traced: window %.3fs | %v | %v\n", t.Window.Wall.Seconds(), t.Model, t.Check)
	return nil
}

func (r *run) account(m modeled, drained bool) {
	r.attempted += m.Attempted
	r.failed += m.FailedOps
	if m.FailedOps > 0 {
		r.problems = append(r.problems, fmt.Sprintf("%d operations failed", m.FailedOps))
	}
	if !drained {
		r.fail("system did not drain within %v", drainDeadline)
	}
	if m.Committed == 0 {
		r.fail("no commits in the window")
	}
}

// metrics returns the JSON metrics and the report-only extras.
func (r *run) metrics() (metricList, metricList) {
	if r.trace {
		return perLayer(r.w, r.tr, r.cells), reportOnlyLayer(r.tr)
	}
	return endToEnd(r.cells, peakRSS()), reportOnly(r.cells)
}

func (r *run) outcome(ms metricList) outcome {
	o := outcome{Correct: len(r.problems) == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: ms.byName()}
	if o.Attempted < 1 {
		o.Attempted = 1
	}
	return o
}

// save writes the result, its manifest, and (traced) the spans, stats and
// CPU profile into r.out.
func (r *run) save(o outcome, extra metricList) error {
	if err := os.MkdirAll(r.out, 0o755); err != nil {
		return err
	}
	var cells []map[string]float64
	for _, c := range r.cells {
		cells = append(cells, map[string]float64{"setup_s": c.Setup.Seconds(),
			"window_s": c.Wall.Seconds(), "cpu_s": c.CPU.Seconds(), "ref_s": c.Ref.Seconds()})
	}
	res := map[string]any{"outcome": o, "report_only": extra.byName(), "problems": r.problems, "cells": cells}
	files := map[string]any{"result.json": res, "manifest.json": r.manifest()}
	if r.tr != nil {
		files["stats_window.json"] = r.tr.End
		if err := r.tr.Spans.write(filepath.Join(r.out, "spans.json")); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(r.out, "cpu.pprof"), r.tr.Profile, 0o644); err != nil {
			return err
		}
	}
	for name, v := range files {
		b, err := json.MarshalIndent(v, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(r.out, name), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

func (r *run) manifest() map[string]any {
	cfg := map[string]any{"nodes": nodes, "replication": replication,
		"faults": "none", "warmup_us": r.w.warm.Micros(), "window_us": r.w.window.Micros()}
	for k, v := range r.w.config {
		cfg[k] = v
	}
	return map[string]any{
		"command":    os.Args,
		"revision":   revision(),
		"go_version": runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"goos":       runtime.GOOS + "/" + runtime.GOARCH,
		"workload":   r.w.name,
		"seed":       r.seed,
		"seconds":    r.seconds,
		"trace":      r.trace,
		"cells":      len(r.cells),
		"config":     cfg,
		"started":    r.started.UTC().Format(time.RFC3339),
	}
}

// revision is the checkout's git revision, when it is a git checkout.
func revision() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "--git-dir=.git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	rev := strings.TrimSpace(string(out))
	st, err := exec.Command("git", "--git-dir=.git", "--work-tree=.", "status", "--porcelain", "--untracked-files=no").Output()
	if err == nil && len(strings.TrimSpace(string(st))) > 0 {
		rev += "-dirty"
	}
	return rev
}

// peakRSS is the process's maximum resident set size in bytes.
func peakRSS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss * 1024
}

func main() {
	wl := flag.String("workload", "", "workload name, or \"all\" for every workload (traced)")
	seed := flag.Int64("seed", 1, "workload seed")
	secs := flag.Int("seconds", 20, "wall seconds of untraced cells to measure")
	trace := flag.Int("trace", 0, "1: also run a traced cell and report per-layer metrics")
	out := flag.String("out", ".bench_out", "directory for results and manifests")
	flag.Parse()
	if *wl == "all" {
		os.Exit(runAll(*seed, *secs, *out))
	}
	w, err := lookup(*wl)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	r := &run{w: w, seed: *seed, seconds: *secs, trace: *trace == 1,
		out: filepath.Join(*out, fmt.Sprintf("%s-seed%d-trace%d", w.name, *seed, *trace))}
	if err := r.execute(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	ms, extra := r.metrics()
	for _, m := range append(ms, extra...) {
		fmt.Println(m)
	}
	for _, p := range r.problems {
		fmt.Println("FAIL:", p)
	}
	o := r.outcome(ms)
	if err := r.save(o, extra); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b, err := json.Marshal(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}
