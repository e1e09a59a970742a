package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"ringbft/internal/chaos"
	"ringbft/internal/harness"
	"ringbft/internal/types"
	wlgen "ringbft/internal/workload"
)

// drainFor bounds how long a run waits for its measured requests after
// the window: a few client timeouts, so a request that needed a
// rebroadcast is still answered.
func drainFor(cfg types.Config) time.Duration { return 3 * cfg.ClientTimeout }

// runOpts configures one measured run.
type runOpts struct {
	seed    int64
	span    time.Duration
	workdir string
	setups  int     // clusters set up; all but the last are torn down
	tracer  *tracer // traced run when non-nil
}

// outcome is one run's raw observations.
type outcome struct {
	w        workload
	res      runResult
	reqs     []*request
	setups   []time.Duration
	cpu      time.Duration // process user+sys CPU in the window
	heapLive uint64        // bytes live after a forced GC at a fixed amount of work
	gcCycles uint32
	alloc    uint64 // bytes allocated in the window

	violations  []string
	retransmits int

	// Traced runs only.
	tcp      tcpStats
	window   snapshot
	byNode   map[types.NodeID]snapshot
	stats    replicaStats
	cpuProf  []byte
	waits    []time.Duration
	walSyncs []time.Duration
}

// tcpStats sums the transports' counters over the window.
type tcpStats struct {
	frames, bytes, drops, redials int64
}

func transportStats(cl *cluster) tcpStats {
	var t tcpStats
	for _, tr := range cl.trs {
		st := tr.Stats()
		t.frames += st.FramesSent
		t.bytes += st.BytesSent
		t.drops += st.Dropped()
		t.redials += st.Redials
	}
	return t
}

type replicaStats struct {
	viewChanges, retransmits, coalesced int64
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runOnce sets up o.setups clusters, drives the last one for the window
// and checks its outputs.
func runOnce(w workload, o runOpts) (*outcome, error) {
	out := &outcome{w: w}
	var cl *cluster
	var c *client
	for k := 0; k < o.setups; k++ {
		if cl != nil {
			cl.close()
		}
		// Collect the torn-down clusters now, not inside the next set-up.
		runtime.GC()
		var d time.Duration
		var err error
		cl, c, d, err = setUp(w, o.seed, filepath.Join(o.workdir, fmt.Sprintf("setup-%d", k)), o.tracer)
		if err != nil {
			return nil, err
		}
		out.setups = append(out.setups, d)
	}
	defer cl.close()

	gen := wlgen.New(wlgen.Config{
		Shards: numShards, ActiveRecords: recordsPerShard,
		CrossShardPct: w.crossPct, InvolvedShards: numShards,
		BatchSize: w.requestTxns(cl.cfg), Seed: o.seed,
		Stripe: true, Clients: keyStripes,
	})
	next := func() *types.Batch { return gen.NextBatch(clientID) }
	if !w.openLoop {
		// The ledger keeps every committed block, so the closed loop's heap
		// at the end grows with throughput. Read it at a fixed amount of
		// work instead: launching request window+k means k have completed.
		launched := 0
		inner := next
		next = func() *types.Batch {
			launched++
			if launched == w.window+heapAtRequests {
				out.heapLive = liveHeap()
			}
			return inner()
		}
	}

	var cpu0 time.Duration
	var ms0 runtime.MemStats
	var before snapshot
	var perNode0 map[types.NodeID]snapshot
	var prof bytes.Buffer
	profiling := false
	var tcp0 tcpStats
	events := []event{{at: warmup, do: func() {
		runtime.ReadMemStats(&ms0)
		cpu0 = cpuTime()
		if o.tracer != nil {
			o.tracer.measuring.Store(true)
			before = o.tracer.total()
			perNode0 = nodeSnapshots(o.tracer)
			tcp0 = transportStats(cl)
			profiling = pprof.StartCPUProfile(&prof) == nil
		}
	}}, {at: warmup + o.span, do: func() {
		out.cpu = cpuTime() - cpu0
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		out.gcCycles = ms.NumGC - ms0.NumGC
		out.alloc = ms.TotalAlloc - ms0.TotalAlloc
		if o.tracer != nil {
			if profiling {
				pprof.StopCPUProfile()
			}
			o.tracer.measuring.Store(false)
			out.window = o.tracer.total().combine(before, -1)
			out.byNode = nodeSnapshots(o.tracer)
			t := transportStats(cl)
			out.tcp = tcpStats{t.frames - tcp0.frames, t.bytes - tcp0.bytes, t.drops - tcp0.drops, t.redials - tcp0.redials}
			for id, s := range out.byNode {
				out.byNode[id] = s.combine(perNode0[id], -1)
			}
		}
	}}}

	if w.openLoop {
		rateReq := w.rateTxn / float64(w.requestTxns(cl.cfg))
		s := newSchedule(o.seed, rateReq, o.span, drainFor(cl.cfg))
		out.res = runOpenLoop(c, next, s, events, drainFor(cl.cfg))
	} else {
		out.res = runClosedLoop(c, next, w.window, o.span, drainFor(cl.cfg), events)
	}
	out.reqs = c.reqs
	out.retransmits = c.retransmits
	out.violations = append(out.violations, c.violations...)

	cl.stop()
	if w.openLoop || out.heapLive == 0 {
		// The open loops' offered load, and so their work, is fixed. A
		// closed loop that never completed heapAtRequests is read here too.
		out.heapLive = liveHeap()
	}
	out.cpuProf = prof.Bytes()

	out.violations = append(out.violations, checkOutputs(cl)...)
	for _, r := range cl.reps {
		st := r.Stats()
		out.stats.viewChanges += st.ViewChanges
		out.stats.retransmits += st.Retransmits
		out.stats.coalesced += st.CoalescedReqs
	}
	if o.tracer != nil {
		for _, p := range o.tracer.probes {
			out.waits = append(out.waits, p.waits...)
			out.walSyncs = append(out.walSyncs, p.syncs...)
		}
	}
	return out, nil
}

// heapAtRequests is how many completed requests the closed loop's heap is
// read after: 20000 txns, about 0.4 s into the 1 s warm-up at 50k txn/s.
const heapAtRequests = 200

// liveHeap forces a collection and returns the bytes still live.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func nodeSnapshots(t *tracer) map[types.NodeID]snapshot {
	m := make(map[types.NodeID]snapshot, len(t.probes))
	for id, p := range t.probes {
		m[id] = p.snapshot()
	}
	return m
}

// checkOutputs captures every replica after its loop stopped and runs the
// cross-replica safety checkers and each ledger's own verification.
func checkOutputs(cl *cluster) []string {
	var bad []string
	var states []harness.ReplicaState
	for i, r := range cl.reps {
		if st, ok := harness.CaptureReplica(cl.ids[i], r); ok {
			states = append(states, st)
		}
		if err := r.Chain().Verify(); err != nil {
			bad = append(bad, fmt.Sprintf("replica %v: ledger: %v", cl.ids[i], err))
		}
		if st := r.Stats(); st.ExecErrors != 0 || st.DurErrors != 0 {
			bad = append(bad, fmt.Sprintf("replica %v: %d execution errors, %d durability errors", cl.ids[i], st.ExecErrors, st.DurErrors))
		}
	}
	for _, v := range chaos.CheckStates(states) {
		bad = append(bad, v.String())
	}
	return bad
}
