package main

import (
	"math"
	"math/rand"
	"time"

	"ringbft/internal/types"
)

// Run phases shared by every workload: requests completing in the warm-up
// are not measured; the window is --seconds long.
const warmup = time.Second

// poissonSegment returns n = round(rate·span) arrival offsets in
// [from, from+span): a Poisson process conditioned on its count, so every
// seed offers exactly the nominal load while keeping exponential gaps.
func poissonSegment(rng *rand.Rand, rate float64, from, span time.Duration) []time.Duration {
	n := int(math.Round(rate * span.Seconds()))
	if n == 0 {
		return nil
	}
	cum := make([]float64, n+1)
	total := 0.0
	for i := range cum {
		total += rng.ExpFloat64()
		cum[i] = total
	}
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = from + time.Duration(cum[i]/total*float64(span))
	}
	return out
}

// schedule is an open-loop arrival plan on an absolute timeline.
type schedule struct {
	arrivals []time.Duration // offsets from the start, ascending
	winFrom  time.Duration   // measured arrivals are in [winFrom, winTo)
	winTo    time.Duration
	rateReq  float64 // nominal requests per second
}

// newSchedule plans warmup, window and a tail of arrivals that keeps the
// load on while the window's last requests drain.
func newSchedule(seed int64, rateReq float64, window, tail time.Duration) schedule {
	rng := rand.New(rand.NewSource(seed*31 + 17))
	var arr []time.Duration
	arr = append(arr, poissonSegment(rng, rateReq, 0, warmup)...)
	arr = append(arr, poissonSegment(rng, rateReq, warmup, window)...)
	arr = append(arr, poissonSegment(rng, rateReq, warmup+window, tail)...)
	return schedule{arrivals: arr, winFrom: warmup, winTo: warmup + window, rateReq: rateReq}
}

// event is an action a load loop runs at an offset from the start, on the
// client goroutine: the window's start and end snapshots.
type event struct {
	at time.Duration
	do func()
}

// runResult is what a load loop observed on the client side.
type runResult struct {
	start, winStart, winEnd time.Time
	sentInWindow            int // open loop: measured arrivals sent before the window closed
	nominalInWindow         float64
	unanswered              int
}

// realizedRatio is the open-loop realized send rate over the nominal one.
func (r runResult) realizedRatio() float64 {
	if r.nominalInWindow == 0 {
		return 1
	}
	return float64(r.sentInWindow) / r.nominalInWindow
}

// runOpenLoop launches every arrival of s at its absolute time, however
// late the loop gets there, and times each request from that intended
// arrival. It returns once every measured request is answered or drain
// after the window has passed.
func runOpenLoop(c *client, next func() *types.Batch, s schedule, events []event, drain time.Duration) runResult {
	start := time.Now()
	res := runResult{start: start, winStart: start.Add(s.winFrom), winEnd: start.Add(s.winTo)}
	res.nominalInWindow = s.rateReq * (s.winTo - s.winFrom).Seconds()
	deadline := res.winEnd.Add(drain)
	measuredPending := 0
	c.onDone = func(r *request) {
		if r.measured {
			measuredPending--
		}
	}
	defer func() { c.onDone = nil }()

	timer := time.NewTimer(0)
	defer timer.Stop()
	retx := time.NewTicker(retransmitEvery)
	defer retx.Stop()
	i, e := 0, 0
	for {
		now := time.Now()
		for i < len(s.arrivals) && !start.Add(s.arrivals[i]).After(now) {
			at := s.arrivals[i]
			measured := at >= s.winFrom && at < s.winTo
			c.launch(next(), start.Add(at), measured)
			if measured {
				measuredPending++
				if time.Now().Before(res.winEnd) {
					res.sentInWindow++
				}
			}
			i++
			now = time.Now()
		}
		for e < len(events) && !start.Add(events[e].at).After(now) {
			events[e].do()
			e++
		}
		if now.After(res.winEnd) && measuredPending == 0 && e == len(events) {
			break
		}
		if now.After(deadline) {
			res.unanswered = measuredPending
			break
		}
		wake := deadline
		if i < len(s.arrivals) {
			wake = minTime(wake, start.Add(s.arrivals[i]))
		}
		if e < len(events) {
			wake = minTime(wake, start.Add(events[e].at))
		}
		if now.Before(res.winEnd) {
			wake = minTime(wake, res.winEnd)
		}
		timer.Reset(wake.Sub(now))
		select {
		case <-timer.C:
		case m := <-c.ep.Inbox():
			c.handle(m)
		case t := <-retx.C:
			c.retransmit(t)
		}
	}
	return res
}

// runClosedLoop keeps window requests outstanding: each completion
// launches the next request until the measurement window closes, then
// waits up to drain for the rest.
func runClosedLoop(c *client, next func() *types.Batch, window int, span, drain time.Duration, events []event) runResult {
	start := time.Now()
	res := runResult{start: start, winStart: start.Add(warmup), winEnd: start.Add(warmup + span)}
	launching := true
	c.onDone = func(*request) {
		if launching {
			c.launch(next(), time.Now(), false)
		}
	}
	defer func() { c.onDone = nil }()
	for k := 0; k < window; k++ {
		c.launch(next(), time.Now(), false)
	}
	retx := time.NewTicker(retransmitEvery)
	defer retx.Stop()
	timer := time.NewTimer(0)
	defer timer.Stop()
	e := 0
	for {
		now := time.Now()
		for e < len(events) && !start.Add(events[e].at).After(now) {
			events[e].do()
			e++
		}
		if !now.Before(res.winEnd) {
			launching = false
			if e == len(events) {
				break
			}
		}
		wake := res.winEnd
		if e < len(events) {
			wake = minTime(wake, start.Add(events[e].at))
		}
		timer.Reset(wake.Sub(now))
		select {
		case <-timer.C:
		case m := <-c.ep.Inbox():
			c.handle(m)
		case t := <-retx.C:
			c.retransmit(t)
		}
	}
	if err := c.waitIdle(res.winEnd.Add(drain)); err != nil {
		res.unanswered = c.pending
	}
	return res
}

func minTime(a, b time.Time) time.Time {
	if b.Before(a) {
		return b
	}
	return a
}
