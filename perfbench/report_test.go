package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"

	"ringbft/internal/types"
)

type benchDoc struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func checkMetrics(t *testing.T, what string, got metrics, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(got) != len(want) {
		var names []string
		for n := range got {
			names = append(names, n)
		}
		sort.Strings(names)
		t.Errorf("%s: reports %d metrics, BENCHMARK.json lists %d: %v", what, len(got), len(want), names)
	}
	for _, m := range want {
		g, ok := got[m.Name]
		if !ok {
			t.Errorf("%s: %s listed but not reported", what, m.Name)
		} else if g.Unit != m.Unit {
			t.Errorf("%s: %s reported in %q, listed in %q", what, m.Name, g.Unit, m.Unit)
		}
	}
}

// TestReportMatchesBenchmarkJSON keeps the printed metrics and the
// benchmark's declaration in step: every workload exists, and each mode
// prints exactly the declared metrics with their units.
func TestReportMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to the benchmark:", err)
	}
	var doc benchDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for _, w := range doc.Workloads {
		if _, err := findWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}
	now := time.Now()
	r := &request{batch: &types.Batch{Txns: make([]types.Txn, 10)}, intended: now, sent: now,
		done: now.Add(time.Millisecond), complete: true, measured: true}
	o := &outcome{
		w:      workload{openLoop: true},
		res:    runResult{winStart: now.Add(-time.Second), winEnd: now.Add(time.Second)},
		reqs:   []*request{r},
		setups: []time.Duration{time.Second},
		byNode: map[types.NodeID]snapshot{},
	}
	s := summarize(o)
	det := map[string]float64{}
	for _, d := range detSeries {
		det[d.metric] = 1
	}
	checkMetrics(t, "--trace 0", endToEnd(o, s), doc.EndToEnd)
	checkMetrics(t, "--trace 1", perLayer(o, s, s, map[string]int64{}, det), doc.PerLayer)
}

// TestUnansweredIsViolation: a measured request still unanswered at the
// drain deadline makes the run incorrect, on either loop type.
func TestUnansweredIsViolation(t *testing.T) {
	now := time.Now()
	win := runResult{winStart: now.Add(-time.Second), winEnd: now.Add(time.Second)}
	answered := &request{batch: &types.Batch{Txns: make([]types.Txn, 1)}, intended: now, sent: now,
		done: now.Add(time.Millisecond), complete: true, measured: true}
	lost := &request{batch: &types.Batch{Txns: make([]types.Txn, 1)}, intended: now, sent: now, measured: true}
	for _, open := range []bool{true, false} {
		o := &outcome{w: workload{openLoop: open}, res: win, reqs: []*request{answered}}
		if v := violations(o, summarize(o)); len(v) != 0 {
			t.Errorf("open %v, all answered: violations %v", open, v)
		}
		o.reqs = append(o.reqs, lost)
		s := summarize(o)
		if v := violations(o, s); s.failed != 1 || len(v) != 1 {
			t.Errorf("open %v, one lost: %d failed, violations %v", open, s.failed, v)
		}
	}
}
