package main

import (
	"fmt"
	"sort"
	"strings"
	"testing"
)

func formatCounts(m map[string]float64) string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "%s=%v\n", n, m[n])
	}
	return b.String()
}

// TestDetCountsRepeat pins the count pass: two invocations must give
// byte-identical counts, so a later change may claim a count.
func TestDetCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the chaos engine twice")
	}
	a, err := detCounts()
	if err != nil {
		t.Fatal(err)
	}
	b, err := detCounts()
	if err != nil {
		t.Fatal(err)
	}
	if fa, fb := formatCounts(a), formatCounts(b); fa != fb {
		t.Fatalf("count pass differs between invocations:\n%s---\n%s", fa, fb)
	}
	if len(a) != len(detSeries) || a["det.executed_txns_per_txn"] <= 1 || a["det.phase_transitions_per_txn"] <= 0 {
		t.Fatalf("implausible counts:\n%s", formatCounts(a))
	}
}

func TestSumSeries(t *testing.T) {
	text := "# TYPE x counter\nx{shard=\"0\"} 2\nx{shard=\"1\"} 3.5\ny 1\nxy 4\n"
	got := sumSeries(text)
	if got["x"] != 5.5 || got["y"] != 1 || got["xy"] != 4 {
		t.Fatalf("sumSeries = %v", got)
	}
}
