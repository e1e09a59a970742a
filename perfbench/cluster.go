package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"ringbft/internal/crypto"
	"ringbft/internal/evidence"
	"ringbft/internal/ringbft"
	"ringbft/internal/simnet"
	"ringbft/internal/tcpnet"
	"ringbft/internal/types"
	"ringbft/internal/wal"
)

// endpoint is what the client needs from a network attachment; both
// *simnet.Endpoint and *tcpnet.Transport provide it.
type endpoint interface {
	Send(to types.NodeID, m *types.Message)
	Inbox() <-chan *types.Message
}

// clientID is the benchmark's single client.
const clientID types.ClientID = 1

// cluster is one 3-shard × 4-replica RingBFT deployment assembled from the
// layers' public constructors, plus the client's endpoint.
type cluster struct {
	cfg     types.Config
	ids     []types.NodeID
	reps    []*ringbft.Replica
	inboxes []<-chan *types.Message
	client  endpoint

	sim     *simnet.Network     // simnet models
	trs     []*tcpnet.Transport // tcp model: replicas, then the client
	durs    []*wal.Manager
	evs     []*evidence.Log
	dataDir string

	tr *tracer // traced runs only

	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// addrBook resolves loopback addresses for tcpnet transports that are
// created one after another.
type addrBook struct {
	mu    sync.Mutex
	addrs map[types.NodeID]string
}

func (b *addrBook) lookup(id types.NodeID) (string, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	a, ok := b.addrs[id]
	return a, ok
}

func (b *addrBook) set(id types.NodeID, addr string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.addrs[id] = addr
}

// buildCluster assembles and preloads every replica. dataDir (tcp model
// only) receives the per-replica WAL directories; tr, when non-nil, wraps
// each replica's Authenticator, Sender and wal.FS.
func buildCluster(w workload, seed int64, dataDir string, tr *tracer) (*cluster, error) {
	cfg := protocolConfig(w.net)
	cl := &cluster{cfg: cfg, tr: tr}
	kg := crypto.NewKeygen(seed)
	for s := 0; s < numShards; s++ {
		for i := 0; i < replicasPerShard; i++ {
			id := types.ReplicaNode(types.ShardID(s), i)
			kg.Register(id)
			cl.ids = append(cl.ids, id)
		}
	}

	sends := make([]ringbft.Sender, len(cl.ids))
	var backlogs []func() int
	switch w.net {
	case netWAN, netLAN:
		var lat simnet.LatencyModel = simnet.FixedLatency{D: lanDelay}
		if w.net == netWAN {
			lat = simnet.WANLatency{Scale: 1.0}
		}
		cl.sim = simnet.New(simnet.Options{Latency: lat, Seed: seed, InboxSize: 1 << 16})
		for i, id := range cl.ids {
			ep := cl.sim.Attach(id, simnet.ShardRegion(int(id.Shard)))
			sends[i] = ep.Send
			cl.inboxes = append(cl.inboxes, ep.Inbox())
		}
		cl.client = cl.sim.Attach(types.ClientNode(clientID), simnet.Oregon)
	case netTCP:
		cfg.DataDir = dataDir
		cfg.FsyncInterval = nodeFsyncInterval
		cl.cfg = cfg
		cl.dataDir = dataDir
		book := &addrBook{addrs: make(map[types.NodeID]string)}
		opt := tcpnet.FromConfig(cfg)
		opt.Resolver = book.lookup
		for _, id := range append(append([]types.NodeID(nil), cl.ids...), types.ClientNode(clientID)) {
			t, err := tcpnet.New(id, "127.0.0.1:0", nil, opt)
			if err != nil {
				cl.close()
				return nil, err
			}
			book.set(id, t.Addr())
			cl.trs = append(cl.trs, t)
		}
		for i := range cl.ids {
			t := cl.trs[i]
			sends[i] = t.Send
			backlogs = append(backlogs, t.Backlog)
			cl.inboxes = append(cl.inboxes, t.Inbox())
		}
		cl.client = cl.trs[len(cl.ids)]
	default:
		return nil, fmt.Errorf("unknown network model %q", w.net)
	}

	for i, id := range cl.ids {
		ring, err := kg.Ring(id)
		if err != nil {
			cl.close()
			return nil, err
		}
		var auth crypto.Authenticator = ring
		send := sends[i]
		var fs wal.FS = wal.OSFS{}
		if tr != nil {
			p := tr.probe(id)
			auth = p.wrapAuth(ring)
			send = p.wrapSend(send)
			fs = p.wrapFS(fs)
		}
		peers := make([]types.NodeID, replicasPerShard)
		for j := range peers {
			peers[j] = types.ReplicaNode(id.Shard, j)
		}
		opts := ringbft.Options{
			Config: cfg, Shard: id.Shard, Self: id, Peers: peers,
			Auth: auth, Send: send,
		}
		if backlogs != nil {
			opts.Backpressure = backlogs[i]
		}
		if cfg.DataDir != "" {
			m, rec, err := ringbft.OpenDurability(cfg, id, fs)
			if err != nil {
				cl.close()
				return nil, fmt.Errorf("open durability for %v: %w", id, err)
			}
			cl.durs = append(cl.durs, m)
			opts.Durability, opts.Recovered = m, rec
			ev, err := evidence.Open(fs, filepath.Join(m.Dir(), "evidence"))
			if err != nil {
				cl.close()
				return nil, fmt.Errorf("open evidence log for %v: %w", id, err)
			}
			cl.evs = append(cl.evs, ev)
			opts.Evidence = ev
		}
		r := ringbft.New(opts)
		r.Preload(recordsPerShard)
		cl.reps = append(cl.reps, r)
	}
	return cl, nil
}

// start launches every replica's event loop: Replica.Run on plain runs,
// the benchmark's timed loop on traced runs.
func (cl *cluster) start() {
	ctx, cancel := context.WithCancel(context.Background())
	cl.cancel = cancel
	tick := cl.cfg.LocalTimeout / 4
	for i, r := range cl.reps {
		cl.wg.Add(1)
		if cl.tr == nil {
			go func() {
				defer cl.wg.Done()
				r.Run(ctx, cl.inboxes[i])
			}()
			continue
		}
		p := cl.tr.probe(cl.ids[i])
		go func() {
			defer cl.wg.Done()
			p.loop(ctx, r, cl.inboxes[i], tick)
		}()
	}
}

// stop ends the replica event loops and waits for them; replica state may
// be read afterwards.
func (cl *cluster) stop() {
	if cl.cancel != nil {
		cl.cancel()
		cl.wg.Wait()
		cl.cancel = nil
	}
}

// close stops the replicas and releases the network, the WAL files and
// the data directory.
func (cl *cluster) close() {
	cl.stop()
	if cl.sim != nil {
		cl.sim.Close()
	}
	for _, t := range cl.trs {
		t.Close()
	}
	for _, m := range cl.durs {
		_ = m.Close() // teardown of a finished run; nothing reads the WAL again
	}
	for _, ev := range cl.evs {
		_ = ev.Close()
	}
	if cl.dataDir != "" {
		_ = os.RemoveAll(cl.dataDir)
	}
}

// primaryOf returns replica index view mod n of shard s.
func primaryOf(s types.ShardID, v types.View) types.NodeID {
	return types.ReplicaNode(s, int(uint64(v)%replicasPerShard))
}

// probeBatches are the set-up requests: one single-shard transaction per
// shard under transaction ids the workload generator never issues.
func probeBatches() []*types.Batch {
	var out []*types.Batch
	for s := 0; s < numShards; s++ {
		k := types.Key(uint64(s))
		out = append(out, &types.Batch{
			Txns: []types.Txn{{
				ID:    types.TxnID{Client: clientID, Seq: 1<<62 + uint64(s)},
				Reads: []types.Key{k}, Writes: []types.Key{k}, Delta: 1,
			}},
			Involved: []types.ShardID{types.ShardID(s)},
		})
	}
	return out
}

// setUp builds, starts and probes one cluster: the returned duration runs
// from the first key generated until every shard has committed a request.
func setUp(w workload, seed int64, dataDir string, tr *tracer) (*cluster, *client, time.Duration, error) {
	t0 := time.Now()
	cl, err := buildCluster(w, seed, dataDir, tr)
	if err != nil {
		return nil, nil, 0, err
	}
	cl.start()
	c := newClient(cl.cfg, cl.client, tr)
	for _, b := range probeBatches() {
		c.launch(b, time.Now(), false)
	}
	deadline := time.Now().Add(3 * cl.cfg.ClientTimeout)
	if err := c.waitIdle(deadline); err != nil {
		cl.close()
		return nil, nil, 0, fmt.Errorf("set-up probe: %w", err)
	}
	return cl, c, time.Since(t0), nil
}
