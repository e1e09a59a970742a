package main

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"ringbft/internal/types"
)

// request is one client request and everything observed about it.
type request struct {
	batch     *types.Batch
	digest    types.Digest
	initiator types.ShardID
	cross     bool

	intended time.Time // open loop: scheduled arrival; closed loop: send
	sent     time.Time // first send
	lastSent time.Time
	done     time.Time // f+1-th matching reply
	measured bool      // open loop: arrival inside the measurement window

	replies  map[types.NodeID]uint64  // replica -> hash of its Results
	votes    map[uint64]int           // Results hash -> replicas
	vectors  map[uint64][]types.Value // Results hash -> first vector seen
	complete bool

	span span // traced runs: boundaries seen at the initiator's Sender
}

func (r *request) latency() time.Duration { return r.done.Sub(r.intended) }

// cut is a completed request's latency split at the traced boundaries.
type cut struct {
	// phases: generator lateness (intended arrival to send), admit (to the
	// initiator primary's PrePrepare), order (to the initiator's first
	// Forward, or its first Response for a single-shard request), ring (to
	// the initiator's first Response) and reply (to the f+1-th matching
	// reply).
	phases [5]time.Duration
	// unattributed is the part of the latency no pair of seen, in-order
	// boundaries accounts for; broken counts the boundaries that were
	// never seen, seen after the reply, or seen before their predecessor.
	// Both are 0 when every boundary was seen in order.
	unattributed time.Duration
	broken       int
}

// phases cuts r's latency. A boundary never seen (or seen after the
// reply) takes the next boundary's time, so the phases around it merge
// and their whole length is unattributed; a boundary seen before its
// predecessor is clamped onto it, and the reversal is unattributed.
func (r *request) phases() cut {
	orderEnd := r.span.rsp
	if r.cross {
		orderEnd = r.span.fwd
	}
	b := [6]time.Time{r.intended, r.sent, r.span.pp, orderEnd, r.span.rsp, r.done}
	var seen [6]bool
	var c cut
	for i := len(b) - 1; i >= 0; i-- {
		seen[i] = !b[i].IsZero() && !b[i].After(r.done)
		if !seen[i] {
			b[i] = b[i+1] // b[0] and b[5] are always seen
			c.broken++
		}
	}
	for i := 1; i < len(b); i++ {
		if b[i].Before(b[i-1]) {
			if seen[i] {
				c.broken++
				c.unattributed += b[i-1].Sub(b[i])
			}
			b[i] = b[i-1]
		}
		c.phases[i-1] = b[i].Sub(b[i-1])
		if !seen[i-1] || !seen[i] {
			c.unattributed += c.phases[i-1]
		}
	}
	return c
}

// client is the benchmark's single client: one goroutine, one endpoint.
// A request completes on f+1 replies with identical Results; any reply
// that disagrees with another for the same request is a correctness
// violation.
type client struct {
	cfg  types.Config
	ep   endpoint
	self types.NodeID
	need int
	tr   *tracer

	view     map[types.ShardID]types.View
	reqs     []*request
	byDigest map[types.Digest]*request
	open     []*request // launched, possibly complete; compacted lazily
	pending  int

	retransmits int
	violations  []string
	onDone      func(*request)
}

func newClient(cfg types.Config, ep endpoint, tr *tracer) *client {
	return &client{
		cfg: cfg, ep: ep, self: types.ClientNode(clientID),
		need: cfg.F() + 1, tr: tr,
		view:     make(map[types.ShardID]types.View),
		byDigest: make(map[types.Digest]*request),
	}
}

// target is the current primary of the request's initiator shard, as far
// as replies have told the client.
func (c *client) target(s types.ShardID) types.NodeID { return primaryOf(s, c.view[s]) }

func (c *client) send(to types.NodeID, m *types.Message) {
	if c.tr != nil {
		c.tr.client.count(m)
	}
	c.ep.Send(to, m)
}

// launch sends a new request that was due at intended.
func (c *client) launch(b *types.Batch, intended time.Time, measured bool) *request {
	r := &request{
		batch: b, digest: b.Digest(), initiator: b.Initiator(), cross: b.IsCrossShard(),
		intended: intended, measured: measured,
		replies: make(map[types.NodeID]uint64),
		votes:   make(map[uint64]int),
		vectors: make(map[uint64][]types.Value),
	}
	c.reqs = append(c.reqs, r)
	c.byDigest[r.digest] = r
	c.open = append(c.open, r)
	c.pending++
	if c.tr != nil {
		c.tr.openSpan(r.digest, r.initiator)
	}
	now := time.Now()
	r.sent, r.lastSent = now, now
	c.send(c.target(r.initiator), &types.Message{
		Type: types.MsgClientRequest, From: c.self, Batch: b, Digest: r.digest,
	})
	return r
}

// handle processes one inbound message.
func (c *client) handle(m *types.Message) {
	if m.Type != types.MsgResponse {
		return
	}
	if m.From.Kind == types.KindReplica && m.View > c.view[m.From.Shard] {
		c.view[m.From.Shard] = m.View
	}
	r := c.byDigest[m.Digest]
	if r == nil {
		return
	}
	if len(m.Results) != len(r.batch.Txns) {
		c.violate("request %x: %v replied %d results for %d txns", r.digest[:6], m.From, len(m.Results), len(r.batch.Txns))
		return
	}
	h := types.HashValues(m.Results)
	if first, ok := r.vectors[h]; !ok {
		r.vectors[h] = m.Results
		if len(r.vectors) == 2 {
			c.violate("request %x: replicas replied with different Results", r.digest[:6])
		}
	} else if !slices.Equal(first, m.Results) {
		c.violate("request %x: distinct Results vectors share a hash", r.digest[:6])
		return
	}
	if prev, ok := r.replies[m.From]; ok {
		if prev != h {
			c.violate("request %x: %v changed its Results", r.digest[:6], m.From)
		}
		return
	}
	r.replies[m.From] = h
	r.votes[h]++
	if r.complete || r.votes[h] < c.need {
		return
	}
	r.complete = true
	r.done = time.Now()
	c.pending--
	if c.tr != nil {
		c.tr.closeSpan(r)
	}
	if c.onDone != nil {
		c.onDone(r)
	}
}

func (c *client) violate(format string, args ...any) {
	c.violations = append(c.violations, fmt.Sprintf(format, args...))
}

// retransmit rebroadcasts every request unanswered for ClientTimeout to
// all replicas of its initiator shard (the paper's client behaviour).
func (c *client) retransmit(now time.Time) {
	keep := c.open[:0]
	for _, r := range c.open {
		if r.complete {
			continue
		}
		keep = append(keep, r)
		if now.Sub(r.lastSent) < c.cfg.ClientTimeout {
			continue
		}
		r.lastSent = now
		c.retransmits++
		m := &types.Message{Type: types.MsgClientRequest, From: c.self, Batch: r.batch, Digest: r.digest}
		for i := 0; i < replicasPerShard; i++ {
			c.send(types.ReplicaNode(r.initiator, i), m)
		}
	}
	clear(c.open[len(keep):])
	c.open = keep
}

// retransmitEvery is how often the client looks for timed-out requests.
const retransmitEvery = 10 * time.Millisecond

var errDeadline = errors.New("requests unanswered at the deadline")

// waitIdle serves replies and retransmissions until nothing is pending.
func (c *client) waitIdle(deadline time.Time) error {
	retx := time.NewTicker(retransmitEvery)
	defer retx.Stop()
	stop := time.NewTimer(time.Until(deadline))
	defer stop.Stop()
	for c.pending > 0 {
		select {
		case m := <-c.ep.Inbox():
			c.handle(m)
		case now := <-retx.C:
			c.retransmit(now)
		case <-stop.C:
			return errDeadline
		}
	}
	return nil
}
