// Command perfbench is the repository's benchmark: it assembles a 3-shard
// × 4-replica RingBFT cluster from the layers' public constructors, drives
// it from one client goroutine with one of the workloads in workloads.go,
// checks the outputs, and prints every metric with its unit. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured on the
// unmodified program. With --trace 1 the command runs the workload twice,
// plain and traced, adds a deterministic count pass, and reports the
// per-layer metrics.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	python3 perfbench/run.py --workload geo-open --seed 1 --seconds 12 --trace 0
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// plainSetups is how many clusters a plain run sets up; setup_s is their
// median.
const plainSetups = 21

// minRealized is the lowest realized-to-nominal open-loop rate of a valid
// run.
const minRealized = 0.95

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Int64("seed", 1, "workload seed: keys, arrivals and request mix derive from it")
		seconds = flag.Int("seconds", 20, "measurement window in seconds")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
		workdir = flag.String("workdir", ".bench_build/work", "scratch directory for WAL files")
	)
	flag.Parse()
	w, err := findWorkload(*name)
	if err != nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d): %v\n", *name, *seconds, *traced, err)
		return 2
	}
	span := time.Duration(*seconds) * time.Second
	dir, err := filepath.Abs(filepath.Join(*workdir, fmt.Sprintf("%s-%d", w.name, os.Getpid())))
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	defer os.RemoveAll(dir)
	if w.procs > 0 {
		runtime.GOMAXPROCS(w.procs)
	}
	fmt.Printf("host nproc=%d gomaxprocs=%d go=%s workload=%s seed=%d seconds=%d trace=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), w.name, *seed, *seconds, *traced)

	setups := plainSetups
	if *traced == 1 {
		setups = 1
	}
	plain, err := runOnce(w, runOpts{seed: *seed, span: span, workdir: dir, setups: setups})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	ps := summarize(plain)
	runs, sums := []*outcome{plain}, []summary{ps}
	rep := report{Attempted: ps.attempted, Failed: ps.failed}
	if *traced == 0 {
		rep.Metrics = endToEnd(plain, ps)
	} else {
		t, err := runOnce(w, runOpts{seed: *seed, span: span, workdir: dir, setups: 1, tracer: newTracer()})
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s traced: %v\n", w.name, err)
			return 1
		}
		ts := summarize(t)
		runs, sums = append(runs, t), append(sums, ts)
		mods, err := cpuByModule(t.cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		det, err := detCounts()
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		rep.Metrics = perLayer(t, ts, ps, mods, det)
		rep.Attempted += ts.attempted
		rep.Failed += ts.failed
		if u, b, n := spanGaps(ts.measured); b > 0 {
			t.violations = append(t.violations, fmt.Sprintf("%d of %d measured requests have %d unseen or out-of-order span boundaries; %.3f ms unattributed",
				n, len(ts.measured), b, ms(u)))
		}
	}

	rep.Correct = true
	valid := true
	for k, o := range runs {
		for _, v := range violations(o, sums[k]) {
			fmt.Fprintf(os.Stderr, "perfbench: violation: %s\n", v)
			rep.Correct = false
		}
		if r := o.res.realizedRatio(); w.openLoop && r < minRealized {
			fmt.Fprintf(os.Stderr, "perfbench: invalid run: realized rate is %.1f%% of nominal\n", 100*r)
			valid = false
		}
	}
	if !valid {
		return 3
	}
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-40s %14.4f %s\n", n, rep.Metrics[n].Value, rep.Metrics[n].Unit)
	}
	if err := rep.write(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if !rep.Correct {
		return 1
	}
	return 0
}
