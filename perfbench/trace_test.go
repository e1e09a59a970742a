package main

import (
	"testing"
	"time"
)

// TestPhasesReconcileSynthetic cuts hand-made requests: the phases always
// sum to the latency, and any unseen or out-of-order boundary is counted and
// leaves time unattributed, so the reconciliation check can fail.
func TestPhasesReconcileSynthetic(t *testing.T) {
	t0 := time.Now()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	cases := []struct {
		name         string
		r            request
		want         [5]time.Duration
		unattributed time.Duration
		broken       int
	}{
		{"cross, every boundary", request{cross: true, intended: at(0), sent: at(1), done: at(50),
			span: span{pp: at(3), fwd: at(10), rsp: at(45)}},
			[5]time.Duration{1e6, 2e6, 7e6, 35e6, 5e6}, 0, 0},
		{"single, no ring", request{intended: at(0), sent: at(0), done: at(9),
			span: span{pp: at(2), rsp: at(7)}},
			[5]time.Duration{0, 2e6, 5e6, 0, 2e6}, 0, 0},
		{"no boundary seen", request{cross: true, intended: at(0), sent: at(2), done: at(9)},
			[5]time.Duration{2e6, 7e6, 0, 0, 0}, 7e6, 3},
		{"forward missed", request{cross: true, intended: at(0), sent: at(1), done: at(45),
			span: span{pp: at(3), rsp: at(40)}},
			[5]time.Duration{1e6, 2e6, 37e6, 0, 5e6}, 37e6, 1},
		{"response after the reply", request{intended: at(0), sent: at(1), done: at(5),
			span: span{pp: at(2), rsp: at(8)}},
			[5]time.Duration{1e6, 1e6, 3e6, 0, 0}, 3e6, 2},
		{"response before the forward", request{cross: true, intended: at(0), sent: at(1), done: at(30),
			span: span{pp: at(10), fwd: at(20), rsp: at(5)}},
			[5]time.Duration{1e6, 9e6, 10e6, 0, 10e6}, 15e6, 1},
	}
	var reqs []*request
	for _, tc := range cases {
		c := tc.r.phases()
		if c.phases != tc.want || c.unattributed != tc.unattributed || c.broken != tc.broken {
			t.Errorf("%s: phases %v, %v unattributed, %d broken; want %v, %v, %d",
				tc.name, c.phases, c.unattributed, c.broken, tc.want, tc.unattributed, tc.broken)
		}
		var sum time.Duration
		for _, p := range c.phases {
			sum += p
		}
		if sum != tc.r.latency() {
			t.Errorf("%s: phases sum to %v, latency %v", tc.name, sum, tc.r.latency())
		}
		reqs = append(reqs, &tc.r)
	}
	if u, b, n := spanGaps(reqs[:2]); u != 0 || b != 0 || n != 0 {
		t.Errorf("clean requests: %v unattributed, %d broken boundaries in %d requests", u, b, n)
	}
	if u, b, n := spanGaps(reqs); u != 62e6 || b != 7 || n != 4 {
		t.Errorf("all requests: %v unattributed, %d broken boundaries in %d requests; want 62ms, 7, 4", u, b, n)
	}
}

// TestTracedRunSpansReconcile drives a traced cluster and checks that
// every measured request's phases, cut at messages seen by the Sender
// wrappers and the client, sum exactly to its own latency.
func TestTracedRunSpansReconcile(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a cluster")
	}
	// A light load, so the run stays healthy under the race detector too.
	w := workload{name: "span-test", openLoop: true, rateTxn: 100, reqTxns: 5, crossPct: 0.3, net: netLAN}
	o, err := runOnce(w, runOpts{seed: 5, span: 3 * time.Second, workdir: t.TempDir(), setups: 1, tracer: newTracer()})
	if err != nil {
		t.Fatal(err)
	}
	if len(o.violations) != 0 {
		t.Fatalf("violations: %v", o.violations)
	}
	s := summarize(o)
	if s.failed != 0 || len(s.measured) < 50 {
		t.Fatalf("%d measured, %d failed", len(s.measured), s.failed)
	}
	cross := 0
	for _, r := range s.measured {
		c := r.phases()
		var sum time.Duration
		for _, p := range c.phases {
			if p < 0 {
				t.Fatalf("request %x: negative phase in %v", r.digest[:6], c.phases)
			}
			sum += p
		}
		if sum != r.latency() {
			t.Fatalf("request %x: phases %v sum to %v, latency %v", r.digest[:6], c.phases, sum, r.latency())
		}
		if c.broken != 0 {
			t.Errorf("request %x (cross %v): %d unseen or out-of-order boundaries in %+v, %v unattributed",
				r.digest[:6], r.cross, c.broken, r.span, c.unattributed)
		}
		if r.cross {
			cross++
		}
	}
	if cross == 0 {
		t.Fatal("no cross-shard request measured")
	}
	m := perLayer(o, s, s, map[string]int64{}, nil)
	if u := m["span.unattributed_ms"].Value; u != 0 {
		t.Fatalf("span.unattributed_ms = %v", u)
	}
}
