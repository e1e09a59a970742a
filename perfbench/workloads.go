package main

import (
	"fmt"
	"time"

	"ringbft/internal/raceflag"
	"ringbft/internal/types"
)

// Network models. Each sets the three protocol timers; every other
// protocol knob stays at types.DefaultConfig.
const (
	netWAN = "simnet-wan" // 15-region RTT matrix at scale 1.0
	netLAN = "simnet-lan" // fixed 200 µs one-way
	netTCP = "tcp"        // loopback tcpnet, WAL on disk
)

// lanDelay is the one-way delay of the simnet LAN model.
const lanDelay = 200 * time.Microsecond

// nodeFsyncInterval is ringbft-node's default WAL group-commit interval,
// which the tcp model deploys with. An fsync per append (the library
// default) made the run follow the shared disk's fsync latency, whose p99
// moves between 0.4 and 5 ms from one minute to the next: ten runs of the
// same code ranged from 2.1k to 4.9k txn/s.
const nodeFsyncInterval = 5 * time.Millisecond

// Cluster shape and table size shared by every workload.
const (
	numShards        = 3
	replicasPerShard = 4
	recordsPerShard  = 16384
)

// keyStripes splits each shard's records into stripes; the client walks
// one stripe sequentially, so requests in flight never touch the same key.
// That is the paper's regime (600k records, uniform YCSB, effectively no
// conflicts) at this table size, as StripeClients gives the harness
// figures (EXPERIMENTS.md, "Workload contention").
const keyStripes = 2

// workload is one traffic mix. Workloads vary only traffic properties and
// the network model; the protocol configuration is the program's default.
type workload struct {
	name string

	openLoop bool
	rateTxn  float64 // open loop: offered txn/s
	window   int     // closed loop: requests outstanding at all times
	reqTxns  int     // txns per request; 0 = the default BatchSize
	crossPct float64 // share of requests that are cross-shard (all 3 shards)
	net      string
	procs    int // GOMAXPROCS of the run; 0 keeps the runtime's default
}

var workloads = []workload{
	{
		// WAN rounds and ring hops set latency; small requests exercise proposing and batching.
		name:     "geo-open",
		openLoop: true, rateTxn: 1000, reqTxns: 10, crossPct: 0.3, net: netWAN,
	},
	{
		// CPU-bound intra-shard path (pbft, crypto, execution, ledger); the ring layer is bypassed.
		name:   "single-lan-sat",
		window: 16, crossPct: 0, net: netLAN,
	},
	// Single-shard and open loop: a saturated closed loop with 30%
	// cross-shard requests (the first design) followed the host's CPU steal
	// and fsync latency from one minute to the next, ten seeds spreading
	// 38-55% of the median; at a fixed 1500 txn/s the 30% cross-shard mix
	// still made p50 swing 20-55 ms, as single-shard requests queued behind
	// ring rotations.
	{
		// The only workload where the gob codec, the TCP transport and the WAL do work.
		name:     "single-tcp-open",
		openLoop: true, rateTxn: 2000, crossPct: 0, net: netTCP,
		// On one P the cluster's latency is its own CPU work. With two, it
		// followed the other tenants of a shared 2-vCPU host: a busy loop
		// on the other vCPU raised p50 by 35-50% at two Ps and by 0.3-2%
		// at one. The load needs about a quarter of one core.
		procs: 1,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// protocolConfig is types.DefaultConfig with the network model's timers.
func protocolConfig(netModel string) types.Config {
	cfg := types.DefaultConfig(numShards, replicasPerShard)
	t := timersFor(netModel)
	cfg.LocalTimeout, cfg.RemoteTimeout, cfg.TransmitTimeout = t[0], t[1], t[2]
	if raceflag.Enabled {
		// The race detector slows every event loop 5-20x; stretch the
		// timers with it, as the repository's cluster tests do, so honest
		// slow rounds do not read as failures.
		cfg.LocalTimeout *= 8
		cfg.RemoteTimeout *= 8
		cfg.TransmitTimeout *= 8
		cfg.ClientTimeout *= 8
	}
	return cfg
}

// timersFor returns the local, remote and transmit timers of a network
// model: the defaults scaled so that a healthy cluster at the workload's
// load never reads as failed. The simnet LAN keeps the defaults; the WAN
// doubles them for 62 ms-RTT ring rotations; loopback TCP quadruples them
// because gob frames and per-append fsyncs keep a saturated primary's
// queue longer than the default 250 ms local timer.
func timersFor(netModel string) [3]time.Duration {
	d := types.DefaultConfig(numShards, replicasPerShard)
	scale := time.Duration(1)
	switch netModel {
	case netWAN:
		scale = 2
	case netTCP:
		scale = 4
	}
	return [3]time.Duration{scale * d.LocalTimeout, scale * d.RemoteTimeout, scale * d.TransmitTimeout}
}

// requestTxns is the per-request transaction count of w.
func (w workload) requestTxns(cfg types.Config) int {
	if w.reqTxns > 0 {
		return w.reqTxns
	}
	return cfg.BatchSize
}
