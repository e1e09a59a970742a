package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"time"

	"ringbft/internal/types"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit}
}

// report is the last line of the benchmark's standard output.
type report struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func (r report) write(w io.Writer) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// summary is the client-side view of one run's measurement window.
type summary struct {
	committedTxns int64 // txns whose request completed inside the window
	tput          float64
	lat           []time.Duration // measured requests' latencies
	latSingle     []time.Duration
	latCross      []time.Duration
	measured      []*request
	attempted     int
	failed        int
}

func summarize(o *outcome) summary {
	var s summary
	span := o.res.winEnd.Sub(o.res.winStart)
	for _, r := range o.reqs {
		inWindow := r.complete && !r.done.Before(o.res.winStart) && r.done.Before(o.res.winEnd)
		if inWindow {
			s.committedTxns += int64(len(r.batch.Txns))
		}
		// Open loop: every request due in the window is measured from its
		// intended arrival. Closed loop: requests completing in the window.
		if (o.w.openLoop && r.measured) || (!o.w.openLoop && inWindow) {
			s.attempted++
			if !r.complete {
				s.failed++
				continue
			}
			s.measured = append(s.measured, r)
			s.lat = append(s.lat, r.latency())
			if r.cross {
				s.latCross = append(s.latCross, r.latency())
			} else {
				s.latSingle = append(s.latSingle, r.latency())
			}
		}
	}
	if !o.w.openLoop {
		// Requests still unanswered when the drain gave up.
		for _, r := range o.reqs {
			if !r.complete && r.sent.Before(o.res.winEnd) {
				s.attempted++
				s.failed++
			}
		}
	}
	s.tput = float64(s.committedTxns) / span.Seconds()
	return s
}

// violations returns a run's correctness violations: those seen while it
// ran, and any measured request left unanswered at the drain deadline, so
// a run cannot drop its slowest requests from the latency samples and pass.
func violations(o *outcome, s summary) []string {
	v := o.violations
	if s.failed > 0 {
		v = append(v, fmt.Sprintf("%d of %d measured requests unanswered at the drain deadline", s.failed, s.attempted))
	}
	return v
}

// endToEnd computes the user-visible metrics of a plain run.
func endToEnd(o *outcome, s summary) metrics {
	m := metrics{}
	setups := slices.Clone(o.setups)
	m.set("setup_s", "s", quantile(setups, 0.5).Seconds())
	m.set("tput_txn_s", "txn/s", s.tput)
	m.set("lat_p50_ms", "ms", ms(quantile(slices.Clone(s.lat), 0.50)))
	m.set("cpu_us_per_txn", "us", us(o.cpu)/float64(s.committedTxns))
	m.set("heap_live_mb", "MB", float64(o.heapLive)/(1<<20))
	return m
}

// spanGaps sums, over the measured requests, the latency their span
// boundaries leave unattributed and the boundaries that were unseen or out
// of order, and counts the requests with any.
func spanGaps(reqs []*request) (unattributed time.Duration, broken, requests int) {
	for _, r := range reqs {
		c := r.phases()
		unattributed += c.unattributed
		broken += c.broken
		if c.broken > 0 {
			requests++
		}
	}
	return unattributed, broken, requests
}

// perLayer computes the traced run's layer metrics. plain is the same
// workload's untraced run in this invocation, for the overhead and the
// latency splits.
func perLayer(o *outcome, s summary, ps summary, cpuMods map[string]int64, det map[string]float64) metrics {
	m := metrics{}
	txns := float64(s.committedTxns)
	per := func(v int64) float64 { return float64(v) / txns }
	perUs := func(ns int64) float64 { return float64(ns) / 1e3 / txns }
	d := o.window

	// crypto
	m.set("crypto.mac_per_txn", "count", per(d.mac))
	m.set("crypto.macverify_per_txn", "count", per(d.macVerify))
	m.set("crypto.sign_per_txn", "count", per(d.sign))
	m.set("crypto.verify_per_txn", "count", per(d.verify))
	m.set("crypto.sign_us_mean", "us", float64(d.signNs)/1e3/float64(max(d.sign, 1)))
	m.set("crypto.verify_us_mean", "us", float64(d.verifyNs)/1e3/float64(max(d.verify, 1)))
	m.set("crypto.busy_us_per_txn", "us", perUs(d.cryptoNs))
	m.set("crypto.verify_fail_per_ktxn", "count", 1000*per(d.verifyFail))

	// network
	var msgs int64
	for i, n := range d.msgs {
		msgs += n
		m.set("net.msgs_per_txn."+kindName(i), "count", per(n))
	}
	m.set("net.msgs_per_txn", "count", per(msgs))
	m.set("net.model_bytes_per_txn", "B", per(d.modelBytes))
	tcp := o.tcp
	m.set("tcpnet.frames_per_txn", "count", per(tcp.frames))
	m.set("tcpnet.wire_bytes_per_txn", "B", per(tcp.bytes))
	m.set("tcpnet.drops_per_ktxn", "count", 1000*per(tcp.drops))
	m.set("tcpnet.redials", "count", float64(tcp.redials))

	// replica event loops
	var handle int64
	for i, ns := range d.handleNs {
		handle += ns
		if i < len(kinds) && kinds[i] == types.MsgResponse {
			continue // replicas never receive Responses
		}
		m.set("replica.handle_us_per_txn."+kindName(i), "us", perUs(ns))
	}
	m.set("replica.tick_us_per_txn", "us", perUs(d.tickNs))
	m.set("replica.self_us_per_txn", "us", perUs(handle+d.tickNs-d.cryptoNs-d.walNs))
	waits := slices.Clone(o.waits)
	m.set("replica.inbox_wait_us_p50", "us", us(quantile(waits, 0.50)))
	m.set("replica.inbox_wait_us_p99", "us", us(quantile(waits, 0.99)))
	span := o.res.winEnd.Sub(o.res.winStart)
	m.set("replica.max_busy_share", "ratio", float64(busiest(o.byNode))/float64(span))
	m.set("pbft.txns_per_proposal", "count", float64(d.propTxns)/float64(max(d.proposals, 1)))
	m.set("pbft.view_changes", "count", float64(o.stats.viewChanges))
	m.set("ringbft.retransmits", "count", float64(o.stats.retransmits))
	m.set("ringbft.coalesced", "count", float64(o.stats.coalesced))

	// WAL
	m.set("wal.writes_per_txn", "count", per(d.walWrites))
	m.set("wal.bytes_per_txn", "B", per(d.walBytes))
	m.set("wal.syncs_per_txn", "count", per(d.walSyncs))
	syncs := slices.Clone(o.walSyncs)
	m.set("wal.sync_us_p50", "us", us(quantile(syncs, 0.50)))
	m.set("wal.sync_us_p99", "us", us(quantile(syncs, 0.99)))

	// CPU profile and the Go runtime
	for _, mod := range cpuModules {
		m.set("cpu."+mod+"_us_per_txn", "us", perUs(cpuMods[mod]))
	}
	m.set("go.alloc_kb_per_txn", "KB", float64(o.alloc)/1024/txns)
	m.set("go.gc_cycles_per_ktxn", "count", 1000*float64(o.gcCycles)/txns)

	// client and spans
	var late []time.Duration
	var admit, order, ring, reply []time.Duration
	for _, r := range s.measured {
		late = append(late, r.sent.Sub(r.intended))
		ph := r.phases().phases
		admit = append(admit, ph[1])
		order = append(order, ph[2])
		if r.cross {
			ring = append(ring, ph[3]) // zero by definition for single-shard requests
		}
		reply = append(reply, ph[4])
	}
	unattributed, _, _ := spanGaps(s.measured)
	m.set("client.gen_late_p99_ms", "ms", ms(quantile(late, 0.99)))
	m.set("client.offered_ratio", "ratio", o.res.realizedRatio())
	m.set("client.retransmits_per_kreq", "count", 1000*float64(o.retransmits)/float64(max(len(o.reqs), 1)))
	m.set("span.admit_ms_p50", "ms", ms(quantile(admit, 0.5)))
	m.set("span.order_ms_p50", "ms", ms(quantile(order, 0.5)))
	m.set("span.ring_ms_p50", "ms", ms(quantile(ring, 0.5)))
	m.set("span.reply_ms_p50", "ms", ms(quantile(reply, 0.5)))
	m.set("span.unattributed_ms", "ms", ms(unattributed))

	// Tracing overhead, from the plain run of this invocation: throughput
	// lost on closed loops, median latency added on open loops.
	if o.w.openLoop {
		p50 := quantile(slices.Clone(ps.lat), 0.5)
		m.set("trace.overhead_pct", "%", 100*float64(quantile(slices.Clone(s.lat), 0.5)-p50)/float64(p50))
	} else {
		m.set("trace.overhead_pct", "%", 100*(ps.tput-s.tput)/ps.tput)
	}
	for name, v := range det {
		m.set(name, "count", v)
	}

	// Tail and split latency of the plain run.
	m.set("lat_p99_ms", "ms", ms(quantile(slices.Clone(ps.lat), 0.99)))
	m.set("lat_single_p50_ms", "ms", ms(quantile(slices.Clone(ps.latSingle), 0.5)))
	m.set("lat_cross_p50_ms", "ms", ms(quantile(slices.Clone(ps.latCross), 0.5)))
	return m
}
