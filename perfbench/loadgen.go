package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// fixedRate returns n due offsets spaced 1/rate apart. Offsets listed in
// same are the second request of a burst pair: it shares the due time of
// the request before it.
func fixedRate(n int, rate float64, same map[int]bool) []time.Duration {
	due := make([]time.Duration, n)
	interval := time.Duration(float64(time.Second) / rate)
	slot := time.Duration(0)
	for i := range due {
		if i > 0 && same[i] {
			due[i] = due[i-1]
			continue
		}
		due[i] = slot
		slot += interval
	}
	return due
}

// loadResult holds per-request timings as offsets from the start of an
// open-loop run.
type loadResult struct {
	start time.Time
	due   []time.Duration
	// claimed is when a free worker took the request; sent is when it
	// went out, no earlier than due.
	claimed, sent, done []time.Duration
}

// latency is request i's latency timed from when it was due, so a stall
// counts against every request queued behind it.
func (r loadResult) latency(i int) time.Duration { return r.done[i] - r.due[i] }

// lag is how late the generator itself sent request i: the delay past
// its due time, or past when a worker came free for it if every
// connection was still busy then. Waiting for a busy connection is the
// system's queueing and counts in latency, not here.
func (r loadResult) lag(i int) time.Duration { return r.sent[i] - max(r.due[i], r.claimed[i]) }

// openLoop issues requests on a fixed schedule regardless of how fast
// they complete: each of conns workers claims the next request in
// schedule order, waits for its due time (not at all when it is already
// late) and calls do. It returns when every request has completed.
func openLoop(due []time.Duration, conns int, do func(i int)) loadResult {
	r := loadResult{
		start:   time.Now(),
		due:     due,
		claimed: make([]time.Duration, len(due)),
		sent:    make([]time.Duration, len(due)),
		done:    make([]time.Duration, len(due)),
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(due) {
					return
				}
				r.claimed[i] = time.Since(r.start)
				if wait := time.Until(r.start.Add(due[i])); wait > 0 {
					time.Sleep(wait)
				}
				r.sent[i] = time.Since(r.start)
				do(i)
				r.done[i] = time.Since(r.start)
			}
		}()
	}
	wg.Wait()
	return r
}
