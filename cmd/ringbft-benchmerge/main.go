// Command ringbft-benchmerge consolidates the repo's benchmark sources —
// the open-loop latency sweep (ringbft-bench -openloop) and the
// per-package micro-benchmark baselines — into one flat repo-root document
// (BENCH_PR8.json): a list of {name, unit, value, commit} entries, so the
// bench trajectory is one grep-able series per measurement rather than a
// tree of per-package shapes.
//
// Usage:
//
//	go run ./cmd/ringbft-bench -openloop -rates 400,800,1600 -o depth1.json
//	go run ./cmd/ringbft-bench -openloop -pipeline 8 -rates 400,800,1600 -o depth8.json
//	go run ./cmd/ringbft-benchmerge -openloop depth1.json,depth8.json -o BENCH_PR8.json
//	go run ./cmd/ringbft-benchmerge -check BENCH_PR8.json   # schema gate (CI)
//
// -openloop accepts a comma-separated list of sweep files; sweeps run at
// different pipeline depths get a depth=N segment in their entry names, so
// the depth-1 and depth-8 series coexist in one trajectory.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"

	"ringbft/internal/harness"
)

// Entry is one flat benchmark measurement.
type Entry struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Value  float64 `json:"value"`
	Commit string  `json:"commit"`
}

// Doc is the consolidated document.
type Doc struct {
	Comment string  `json:"comment"`
	Entries []Entry `json:"entries"`
}

// baselines lists the per-package micro-benchmark reference files, keyed by
// the name prefix the flat entries use.
var baselines = map[string]string{
	"crypto": "internal/crypto/bench_baseline.json",
	"tcpnet": "internal/tcpnet/bench_baseline.json",
	"wal":    "internal/wal/bench_baseline.json",
}

func main() {
	out := flag.String("o", "BENCH_PR8.json", "output path (- for stdout)")
	root := flag.String("root", ".", "repository root holding the baseline files")
	openloop := flag.String("openloop", "", "open-loop sweep JSON files (ringbft-bench -openloop output) to merge, comma-separated")
	check := flag.String("check", "", "validate an existing consolidated document and exit")
	commit := flag.String("commit", "", "commit hash to stamp entries with (default: git rev-parse --short HEAD)")
	flag.Parse()

	if *check != "" {
		if err := checkDoc(*check); err != nil {
			fatalf("check %s: %v", *check, err)
		}
		fmt.Printf("%s: schema ok\n", *check)
		return
	}

	c := *commit
	if c == "" {
		c = gitCommit(*root)
	}

	doc := Doc{
		Comment: "Consolidated benchmark trajectory: flat {name, unit, value, commit} entries " +
			"merging the open-loop latency sweep (ringbft-bench -openloop) with the per-package " +
			"micro-benchmark baselines. Regenerate with `make bench-consolidate`. Values are " +
			"host-dependent (1 vCPU container); compare entries across commits, not across hosts.",
	}
	if *openloop != "" {
		for _, path := range strings.Split(*openloop, ",") {
			path = strings.TrimSpace(path)
			if path == "" {
				continue
			}
			entries, err := openloopEntries(path, c)
			if err != nil {
				fatalf("openloop %s: %v", path, err)
			}
			doc.Entries = append(doc.Entries, entries...)
		}
	}
	for _, pkg := range sortedKeys(baselines) {
		raw, err := os.ReadFile(filepath.Join(*root, baselines[pkg]))
		if err != nil {
			fatalf("read %s: %v", baselines[pkg], err)
		}
		var section any
		if err := json.Unmarshal(raw, &section); err != nil {
			fatalf("parse %s: %v", baselines[pkg], err)
		}
		doc.Entries = append(doc.Entries, flatten(pkg, section, c)...)
	}
	sort.SliceStable(doc.Entries, func(i, j int) bool { return doc.Entries[i].Name < doc.Entries[j].Name })

	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fatalf("encode: %v", err)
	}
	if *out == "-" {
		os.Stdout.Write(buf.Bytes())
		return
	}
	if err := os.WriteFile(*out, buf.Bytes(), 0o644); err != nil {
		fatalf("write %s: %v", *out, err)
	}
	fmt.Printf("wrote %s (%d entries)\n", *out, len(doc.Entries))
}

// openloopEntries flattens an OpenLoopDoc into per-point entries.
func openloopEntries(path, commit string) ([]Entry, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var ol harness.OpenLoopDoc
	if err := json.Unmarshal(raw, &ol); err != nil {
		return nil, err
	}
	if len(ol.Points) == 0 {
		return nil, fmt.Errorf("no points in sweep document")
	}
	var out []Entry
	add := func(name, unit string, v float64) {
		out = append(out, Entry{Name: name, Unit: unit, Value: v, Commit: commit})
	}
	for _, p := range ol.Points {
		base := fmt.Sprintf("openloop/%s/z=%d/n=%d/depth=%d/offered=%.0f",
			ol.Protocol, ol.Shards, ol.ReplicasPerShard, ol.PipelineDepth, p.OfferedTps)
		add(base+"/committed_tps", "txn/s", p.CommittedTps)
		add(base+"/e2e_p50", "ms", p.E2E.P50Ms)
		add(base+"/e2e_p99", "ms", p.E2E.P99Ms)
		for _, ph := range sortedKeys(p.Phases) {
			add(base+"/phase/"+ph+"/p50", "ms", p.Phases[ph].P50Ms)
			add(base+"/phase/"+ph+"/p99", "ms", p.Phases[ph].P99Ms)
		}
		add(base+"/stalled_spans", "spans", float64(p.StalledSpans))
	}
	return out, nil
}

// flatten walks a baseline document and emits one entry per numeric leaf,
// naming it by its path. Non-numeric leaves (comments, host lines, notes)
// are dropped — the flat schema carries measurements only.
func flatten(prefix string, v any, commit string) []Entry {
	var out []Entry
	switch t := v.(type) {
	case map[string]any:
		for _, k := range sortedAnyKeys(t) {
			out = append(out, flatten(prefix+"/"+k, t[k], commit)...)
		}
	case float64:
		out = append(out, Entry{Name: prefix, Unit: unitOf(prefix), Value: t, Commit: commit})
	}
	return out
}

// unitOf derives the measurement unit from conventional key suffixes.
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "ns_op"), strings.HasSuffix(name, "ns_per_op"),
		strings.HasSuffix(name, "_ns"), strings.Contains(name, "results_ns_per_op"):
		return "ns/op"
	case strings.Contains(name, "allocs"):
		return "allocs/op"
	case strings.HasSuffix(name, "b_op"):
		return "B/op"
	default:
		return "value"
	}
}

// checkDoc validates the consolidated document's schema: it parses, every
// entry carries the four fields, and names are unique. CI gates on this
// instead of diffing regenerated numbers, which are host-dependent.
func checkDoc(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var doc Doc
	if err := json.Unmarshal(raw, &doc); err != nil {
		return err
	}
	if len(doc.Entries) == 0 {
		return fmt.Errorf("no entries")
	}
	seen := make(map[string]struct{}, len(doc.Entries))
	var points []string
	for i, e := range doc.Entries {
		if e.Name == "" || e.Unit == "" || e.Commit == "" {
			return fmt.Errorf("entry %d (%q): missing name/unit/commit", i, e.Name)
		}
		if _, dup := seen[e.Name]; dup {
			return fmt.Errorf("duplicate entry name %q", e.Name)
		}
		seen[e.Name] = struct{}{}
		if strings.HasPrefix(e.Name, "openloop/") && strings.HasSuffix(e.Name, "/committed_tps") {
			points = append(points, e.Name)
		}
	}
	if len(points) < 3 {
		return fmt.Errorf("want >= 3 open-loop offered-load points, got %d", len(points))
	}
	depths := make(map[string]struct{})
	for _, name := range points {
		for _, seg := range strings.Split(name, "/") {
			if strings.HasPrefix(seg, "depth=") {
				depths[seg] = struct{}{}
			}
		}
	}
	// The pipeline comparison is part of the trajectory: a consolidated
	// document that names depths must cover at least two of them, or the
	// depth-1 vs depth-N knee comparison has silently been dropped.
	if len(depths) == 1 {
		return fmt.Errorf("open-loop entries cover only one pipeline depth; want sweeps at >= 2 depths (e.g. depth=1 and depth=8)")
	}
	sort.Strings(points)
	for _, name := range points {
		base := strings.TrimSuffix(name, "/committed_tps")
		for _, want := range []string{
			"/e2e_p50", "/e2e_p99",
			"/phase/pre-prepare/p50", "/phase/pre-prepare/p99",
			"/phase/prepare/p50", "/phase/prepare/p99",
			"/phase/commit/p50", "/phase/commit/p99",
			"/phase/execute/p50", "/phase/execute/p99",
		} {
			if _, ok := seen[base+want]; !ok {
				return fmt.Errorf("point %s: missing %s", base, want)
			}
		}
	}
	return nil
}

func gitCommit(root string) string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedAnyKeys(m map[string]any) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ringbft-benchmerge: "+format+"\n", args...)
	os.Exit(1)
}
