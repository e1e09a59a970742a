package main

import (
	"math"
	"testing"
	"time"

	"ringbft/internal/types"
	wlgen "ringbft/internal/workload"
)

// stallingEndpoint answers every request at once with f+1 identical
// replies, except that the send of request number stallAt blocks for
// stall first.
type stallingEndpoint struct {
	inbox   chan *types.Message
	stallAt int
	stall   time.Duration

	sends                int
	stallFrom, stallTill time.Time
}

func (e *stallingEndpoint) Inbox() <-chan *types.Message { return e.inbox }

func (e *stallingEndpoint) Send(to types.NodeID, m *types.Message) {
	if m.Type != types.MsgClientRequest {
		return
	}
	e.sends++
	if e.sends == e.stallAt {
		e.stallFrom = time.Now()
		time.Sleep(e.stall)
		e.stallTill = time.Now()
	}
	for i := 0; i < 2; i++ {
		e.inbox <- &types.Message{
			Type: types.MsgResponse, From: types.ReplicaNode(to.Shard, i),
			Digest: m.Digest, Results: make([]types.Value, len(m.Batch.Txns)),
		}
	}
}

func TestOpenLoopKeepsScheduleThroughStall(t *testing.T) {
	const (
		rateReq = 400.0
		window  = 2 * time.Second
		stall   = 150 * time.Millisecond
	)
	s := newSchedule(3, rateReq, window, 100*time.Millisecond)
	// Stall in the middle of the measurement window.
	ep := &stallingEndpoint{
		inbox:   make(chan *types.Message, 1<<16),
		stallAt: int(rateReq*warmup.Seconds() + rateReq*window.Seconds()/2),
		stall:   stall,
	}
	cfg := protocolConfig(netLAN)
	c := newClient(cfg, ep, nil)
	gen := wlgen.New(wlgen.Config{Shards: numShards, ActiveRecords: 1024, BatchSize: 10, Seed: 3})
	res := runOpenLoop(c, func() *types.Batch { return gen.NextBatch(clientID) }, s, nil, time.Second)

	if ratio := res.realizedRatio(); math.Abs(ratio-1) > 0.01 {
		t.Fatalf("realized rate is %.4f of nominal, want within 1%%", ratio)
	}
	if res.unanswered != 0 || len(c.violations) != 0 {
		t.Fatalf("unanswered %d, violations %v", res.unanswered, c.violations)
	}
	if ep.stallFrom.IsZero() {
		t.Fatal("the endpoint never stalled")
	}
	due, after := 0, 0
	for _, r := range c.reqs {
		if !r.measured {
			continue
		}
		switch {
		case !r.intended.Before(ep.stallFrom) && r.intended.Before(ep.stallTill):
			// Due during the stall: sent only once it ended, and timed
			// from the intended arrival, so the wait is in the latency.
			due++
			if want := ep.stallTill.Sub(r.intended); r.latency() < want {
				t.Errorf("request due %v into the stall has latency %v, want >= %v", r.intended.Sub(ep.stallFrom), r.latency(), want)
			}
		case r.intended.After(ep.stallTill.Add(100 * time.Millisecond)):
			after++
			if r.latency() >= stall/2 {
				t.Errorf("request due after the stall has latency %v", r.latency())
			}
		}
	}
	if due < 10 || after < 100 {
		t.Fatalf("only %d requests due during the stall and %d after it", due, after)
	}
	lat := summarize(&outcome{w: workload{openLoop: true}, res: res, reqs: c.reqs}).lat
	if p99 := quantile(lat, 0.99); p99 < stall/2 {
		t.Fatalf("p99 %v does not show a %v stall", p99, stall)
	}
}

func TestPoissonSegmentExactCount(t *testing.T) {
	s := newSchedule(9, 250, 4*time.Second, time.Second)
	in := 0
	for i, at := range s.arrivals {
		if i > 0 && at < s.arrivals[i-1] {
			t.Fatalf("arrival %d at %v precedes %v", i, at, s.arrivals[i-1])
		}
		if at >= s.winFrom && at < s.winTo {
			in++
		}
	}
	if in != 1000 {
		t.Fatalf("%d arrivals in the window, want 1000", in)
	}
}
