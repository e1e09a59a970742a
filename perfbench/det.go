package main

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"

	"ringbft/internal/chaos"
	"ringbft/internal/harness"
)

// detScenario is the deterministic count pass: the chaos engine's logical
// clock makes its registry counters independent of host speed, so the
// same build always yields the same counts.
var detScenario = chaos.Scenario{
	Protocol: harness.ProtoRingBFT, Fault: chaos.FaultNone, Seed: 7,
	Shards: numShards, ReplicasPerShard: replicasPerShard, Instrument: true,
}

// detSeries maps each det.* metric to the registry series it sums.
var detSeries = []struct{ metric, series string }{
	{"det.cert_verifications_per_txn", "ringbft_cert_verifications_total"},
	{"det.phase_transitions_per_txn", "pbft_phase_transitions_total"},
	{"det.forward_retransmits_per_txn", "ringbft_forward_retransmits_total"},
	{"det.executed_txns_per_txn", "ringbft_executed_txns_total"},
}

// detCounts runs the count pass and returns each det.* metric per
// committed client transaction.
func detCounts() (map[string]float64, error) {
	res, err := chaos.RunScenario(detScenario)
	if err != nil {
		return nil, err
	}
	if res.Failed() {
		return nil, fmt.Errorf("count pass: %s", res.FailureReport())
	}
	sc := detScenario.Normalize()
	// Committed counts client batches: the workload's BatchSize-txn batches
	// plus the liveness probe's one-txn batches (one per shard and one
	// spanning every shard).
	probes := sc.Shards + 1
	txns := (res.Committed-probes)*sc.BatchSize + probes
	if res.Committed < probes || txns <= 0 {
		return nil, fmt.Errorf("count pass committed only %d batches", res.Committed)
	}
	totals := sumSeries(res.MetricsText)
	out := make(map[string]float64, len(detSeries))
	for _, d := range detSeries {
		out[d.metric] = totals[d.series] / float64(txns)
	}
	return out, nil
}

// sumSeries adds up every sample of each metric family in a
// Prometheus-text snapshot.
func sumSeries(text string) map[string]float64 {
	out := make(map[string]float64)
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		out[name] += v
	}
	return out
}
