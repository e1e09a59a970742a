package main

import (
	"context"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ringbft/internal/crypto"
	"ringbft/internal/ringbft"
	"ringbft/internal/types"
	"ringbft/internal/wal"
)

// The traced run wraps the public boundaries each replica is given — its
// Authenticator, Sender and wal.FS — and drives the replica from a timed
// copy of Replica.Run's loop. Nothing inside the program changes.

// kinds are the message kinds the per-layer report breaks out; every other
// kind is counted as "other".
var kinds = []types.MsgType{
	types.MsgClientRequest, types.MsgPrePrepare, types.MsgPrepare, types.MsgCommit,
	types.MsgCheckpoint, types.MsgForward, types.MsgExecute, types.MsgResponse,
	types.MsgViewChange, types.MsgNewView, types.MsgRemoteView,
}

const numKinds = 12 // len(kinds) + "other"

func kindIndex(t types.MsgType) int {
	for i, k := range kinds {
		if k == t {
			return i
		}
	}
	return len(kinds)
}

func kindName(i int) string {
	if i < len(kinds) {
		return kinds[i].String()
	}
	return "other"
}

// counters are one node's cumulative per-layer counts. Every field is
// atomic: the Authenticator contract allows concurrent use, and the client
// goroutine snapshots them while replicas run.
type counters struct {
	mac, macVerify, sign, verify, verifyFail atomic.Int64
	signNs, verifyNs, cryptoNs               atomic.Int64

	msgs       [numKinds]atomic.Int64
	modelBytes atomic.Int64
	proposals  atomic.Int64 // distinct PrePrepares sent
	propTxns   atomic.Int64

	walWrites, walBytes, walSyncs, walNs atomic.Int64

	handleNs [numKinds]atomic.Int64
	tickNs   atomic.Int64
}

// snapshot is a plain copy of counters.
type snapshot struct {
	mac, macVerify, sign, verify, verifyFail int64
	signNs, verifyNs, cryptoNs               int64
	msgs                                     [numKinds]int64
	modelBytes, proposals, propTxns          int64
	walWrites, walBytes, walSyncs, walNs     int64
	handleNs                                 [numKinds]int64
	tickNs                                   int64
}

func (c *counters) snapshot() snapshot {
	s := snapshot{
		mac: c.mac.Load(), macVerify: c.macVerify.Load(), sign: c.sign.Load(),
		verify: c.verify.Load(), verifyFail: c.verifyFail.Load(),
		signNs: c.signNs.Load(), verifyNs: c.verifyNs.Load(), cryptoNs: c.cryptoNs.Load(),
		modelBytes: c.modelBytes.Load(), proposals: c.proposals.Load(), propTxns: c.propTxns.Load(),
		walWrites: c.walWrites.Load(), walBytes: c.walBytes.Load(),
		walSyncs: c.walSyncs.Load(), walNs: c.walNs.Load(),
		tickNs: c.tickNs.Load(),
	}
	for i := range s.msgs {
		s.msgs[i] = c.msgs[i].Load()
		s.handleNs[i] = c.handleNs[i].Load()
	}
	return s
}

// combine returns s + k·o, field by field.
func (s snapshot) combine(o snapshot, k int64) snapshot {
	d := snapshot{
		mac: s.mac + k*o.mac, macVerify: s.macVerify + k*o.macVerify, sign: s.sign + k*o.sign,
		verify: s.verify + k*o.verify, verifyFail: s.verifyFail + k*o.verifyFail,
		signNs: s.signNs + k*o.signNs, verifyNs: s.verifyNs + k*o.verifyNs, cryptoNs: s.cryptoNs + k*o.cryptoNs,
		modelBytes: s.modelBytes + k*o.modelBytes, proposals: s.proposals + k*o.proposals, propTxns: s.propTxns + k*o.propTxns,
		walWrites: s.walWrites + k*o.walWrites, walBytes: s.walBytes + k*o.walBytes,
		walSyncs: s.walSyncs + k*o.walSyncs, walNs: s.walNs + k*o.walNs,
		tickNs: s.tickNs + k*o.tickNs,
	}
	for i := range d.msgs {
		d.msgs[i] = s.msgs[i] + k*o.msgs[i]
		d.handleNs[i] = s.handleNs[i] + k*o.handleNs[i]
	}
	return d
}

// probe instruments one node.
type probe struct {
	tr *tracer
	counters

	lastPP [2]uint64 // (view, seq) of the last PrePrepare counted

	// Samples taken inside the measurement window; each slice is owned by
	// one goroutine (the replica's loop) until the loops have stopped.
	waits []time.Duration
	mu    sync.Mutex
	syncs []time.Duration
}

// tracer owns every probe of a traced run and the per-request spans.
type tracer struct {
	probes    map[types.NodeID]*probe
	client    *probe
	measuring atomic.Bool

	mu    sync.Mutex
	spans map[types.Digest]*span
}

// span holds the boundaries of one request seen at the Sender wrapper of
// its initiator shard's replicas.
type span struct {
	initiator    types.ShardID
	pp, fwd, rsp time.Time
}

func newTracer() *tracer {
	t := &tracer{probes: make(map[types.NodeID]*probe), spans: make(map[types.Digest]*span)}
	t.client = &probe{tr: t}
	return t
}

// probe returns the probe of node id, creating it on first use. Called
// only while the cluster is assembled and started, from one goroutine.
func (t *tracer) probe(id types.NodeID) *probe {
	p, ok := t.probes[id]
	if !ok {
		p = &probe{tr: t}
		t.probes[id] = p
	}
	return p
}

func (t *tracer) total() snapshot {
	var s snapshot
	for _, p := range t.probes {
		s = s.combine(p.snapshot(), 1)
	}
	return s.combine(t.client.snapshot(), 1)
}

func (t *tracer) openSpan(d types.Digest, initiator types.ShardID) {
	t.mu.Lock()
	t.spans[d] = &span{initiator: initiator}
	t.mu.Unlock()
}

// closeSpan copies the recorded boundaries into the request's phases.
func (t *tracer) closeSpan(r *request) {
	t.mu.Lock()
	sp := t.spans[r.digest]
	delete(t.spans, r.digest)
	t.mu.Unlock()
	if sp != nil {
		r.span = *sp
	}
}

// mark records the first boundary of kind t for digest d sent by a
// replica of the request's initiator shard.
func (t *tracer) mark(d types.Digest, from types.NodeID, typ types.MsgType, now time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := t.spans[d]
	if sp == nil || from.Shard != sp.initiator {
		return
	}
	switch typ {
	case types.MsgPrePrepare:
		if sp.pp.IsZero() {
			sp.pp = now
		}
	case types.MsgForward:
		if sp.fwd.IsZero() {
			sp.fwd = now
		}
	case types.MsgResponse:
		if sp.rsp.IsZero() {
			sp.rsp = now
		}
	}
}

// count records one outbound message at the Sender boundary.
func (p *probe) count(m *types.Message) {
	p.msgs[kindIndex(m.Type)].Add(1)
	p.modelBytes.Add(int64(m.WireSize()))
}

func (p *probe) wrapSend(inner ringbft.Sender) ringbft.Sender {
	return func(to types.NodeID, m *types.Message) {
		p.count(m)
		switch m.Type {
		case types.MsgPrePrepare:
			key := [2]uint64{uint64(m.View), uint64(m.Seq)}
			if key != p.lastPP && m.Batch != nil {
				p.lastPP = key
				p.proposals.Add(1)
				p.propTxns.Add(int64(len(m.Batch.Txns)))
				now := time.Now()
				if len(m.Batch.Reqs) >= 2 {
					// A coalesced proposal answers each original request
					// under its own digest.
					for _, sb := range m.Batch.SubBatches() {
						p.tr.mark(sb.Digest(), m.From, m.Type, now)
					}
				} else {
					p.tr.mark(m.Digest, m.From, m.Type, now)
				}
			}
		case types.MsgForward, types.MsgResponse:
			p.tr.mark(m.Digest, m.From, m.Type, time.Now())
		}
		inner(to, m)
	}
}

// timedAuth counts and times every authenticator call.
type timedAuth struct {
	inner crypto.Authenticator
	p     *probe
}

func (p *probe) wrapAuth(a crypto.Authenticator) crypto.Authenticator {
	return timedAuth{inner: a, p: p}
}

func (a timedAuth) MAC(peer types.NodeID, msg []byte) []byte {
	t0 := time.Now()
	tag := a.inner.MAC(peer, msg)
	a.p.cryptoNs.Add(int64(time.Since(t0)))
	a.p.mac.Add(1)
	return tag
}

func (a timedAuth) VerifyMAC(peer types.NodeID, msg, tag []byte) error {
	t0 := time.Now()
	err := a.inner.VerifyMAC(peer, msg, tag)
	a.p.cryptoNs.Add(int64(time.Since(t0)))
	a.p.macVerify.Add(1)
	if err != nil {
		a.p.verifyFail.Add(1)
	}
	return err
}

func (a timedAuth) Sign(msg []byte) []byte {
	t0 := time.Now()
	sig := a.inner.Sign(msg)
	d := int64(time.Since(t0))
	a.p.cryptoNs.Add(d)
	a.p.signNs.Add(d)
	a.p.sign.Add(1)
	return sig
}

func (a timedAuth) Verify(signer types.NodeID, msg, sig []byte) error {
	t0 := time.Now()
	err := a.inner.Verify(signer, msg, sig)
	d := int64(time.Since(t0))
	a.p.cryptoNs.Add(d)
	a.p.verifyNs.Add(d)
	a.p.verify.Add(1)
	if err != nil {
		a.p.verifyFail.Add(1)
	}
	return err
}

// timedFS counts WAL writes and times fsyncs.
type timedFS struct {
	wal.FS
	p *probe
}

func (p *probe) wrapFS(fs wal.FS) wal.FS { return timedFS{FS: fs, p: p} }

func (f timedFS) Create(name string) (wal.File, error) {
	fl, err := f.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return timedFile{File: fl, p: f.p}, nil
}

func (f timedFS) Append(name string) (wal.File, error) {
	fl, err := f.FS.Append(name)
	if err != nil {
		return nil, err
	}
	return timedFile{File: fl, p: f.p}, nil
}

type timedFile struct {
	wal.File
	p *probe
}

func (f timedFile) Write(b []byte) (int, error) {
	t0 := time.Now()
	n, err := f.File.Write(b)
	f.p.walNs.Add(int64(time.Since(t0)))
	f.p.walWrites.Add(1)
	f.p.walBytes.Add(int64(n))
	return n, err
}

func (f timedFile) Sync() error {
	t0 := time.Now()
	err := f.File.Sync()
	d := time.Since(t0)
	f.p.walNs.Add(int64(d))
	f.p.walSyncs.Add(1)
	if f.p.tr.measuring.Load() {
		f.p.mu.Lock()
		f.p.syncs = append(f.p.syncs, d)
		f.p.mu.Unlock()
	}
	return err
}

// stamped is an inbound message with the time it left the network's
// inbox for the replica's queue.
type stamped struct {
	m  *types.Message
	at time.Time
}

// loop is Replica.Run with every HandleMessage and HandleTick timed. A
// forwarder stamps each message as it arrives so the time it waits for
// the replica is measured too.
func (p *probe) loop(ctx context.Context, r *ringbft.Replica, inbox <-chan *types.Message, tickEvery time.Duration) {
	queue := make(chan stamped, cap(inbox)) // the network's own inbox depth
	var fwd sync.WaitGroup
	fwd.Add(1)
	go func() {
		defer fwd.Done()
		for {
			select {
			case <-ctx.Done():
				return
			case m, ok := <-inbox:
				if !ok {
					return
				}
				select {
				case queue <- stamped{m, time.Now()}:
				case <-ctx.Done():
					return
				}
			}
		}
	}()
	defer fwd.Wait()

	ticker := time.NewTicker(tickEvery)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case s := <-queue:
			t0 := time.Now()
			if p.tr.measuring.Load() {
				p.waits = append(p.waits, t0.Sub(s.at))
			}
			r.HandleMessage(s.m)
			p.handleNs[kindIndex(s.m.Type)].Add(int64(time.Since(t0)))
		case <-ticker.C:
			t0 := time.Now()
			r.HandleTick(t0)
			p.tickNs.Add(int64(time.Since(t0)))
		}
	}
}

// busiest returns the largest handle+tick time of any replica.
func busiest(byNode map[types.NodeID]snapshot) time.Duration {
	var best int64
	for _, s := range byNode {
		busy := s.tickNs
		for _, h := range s.handleNs {
			busy += h
		}
		best = max(best, busy)
	}
	return time.Duration(best)
}

// quantile returns the nearest-rank q-quantile of ds (sorted in place).
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	idx := int(math.Ceil(float64(len(ds))*q)) - 1
	return ds[min(max(idx, 0), len(ds)-1)]
}
