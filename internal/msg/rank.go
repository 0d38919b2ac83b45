package msg

import (
	"fmt"

	"northstar/internal/sim"
)

// Rank is one SPMD process of a communicator. All methods must be called
// from the rank's own program function (they may suspend the underlying
// sim.Proc).
type Rank struct {
	comm     *Comm
	id       int
	proc     *sim.Proc
	finished bool

	// MPI-style matching state: intrusive FIFO lists of posted receives
	// and of arrived-but-unmatched messages.
	posted, postedTail         *request
	unexpected, unexpectedTail *envelope

	// collEpoch numbers collective calls; SPMD programs invoke
	// collectives in lockstep, so epochs agree across ranks and keep
	// consecutive collectives from cross-matching.
	collEpoch int

	// Stats accumulate over the run.
	Stats Stats
}

// Stats records a rank's activity.
type Stats struct {
	BytesSent   int64
	MsgsSent    int64
	Flops       float64
	ComputeTime sim.Time
	CommTime    sim.Time
}

type kindT int

const (
	kindEager kindT = iota
	kindRTS
)

// Request is a handle to a pending nonblocking operation. Wait blocks the
// rank until it completes. The operation's state lives in a pooled slot
// that Wait recycles; the handle carries the slot's generation, so a
// copy of a handle that outlives the Wait reports done and returns 0
// from Wait instead of another message's result. The zero Request is
// done.
type Request struct {
	q     *request
	gen   uint32
	bytes int64 // the result, kept once Wait has recycled the slot
}

// ID returns the rank's index in [0, Size).
func (r *Rank) ID() int { return r.id }

// Size returns the communicator size.
func (r *Rank) Size() int { return len(r.comm.ranks) }

// Comm returns the rank's communicator.
func (r *Rank) Comm() *Comm { return r.comm }

// Now returns the current virtual time.
func (r *Rank) Now() sim.Time { return r.proc.Now() }

// Compute advances the rank's clock by the roofline time of a local work
// phase: flops floating-point operations touching memBytes of memory.
func (r *Rank) Compute(flops, memBytes float64) {
	d := r.comm.mach.RankModel().ComputeTime(flops, memBytes)
	r.Stats.Flops += flops
	r.Stats.ComputeTime += d
	r.proc.Wait(d)
}

// Sleep advances the rank's clock by a fixed duration (non-modeled local
// work).
func (r *Rank) Sleep(d sim.Time) { r.proc.Wait(d) }

// Send sends bytes to rank dst with the given tag and blocks until the
// message is locally complete: fully injected for eager messages, or
// payload injected after the rendezvous handshake for large ones. Tags
// must be non-negative (negative tags are reserved for collectives).
func (r *Rank) Send(dst, tag int, bytes int64) {
	q := r.isend(dst, tag, bytes)
	r.await(q)
	r.comm.freeRequest(q)
}

// ISend starts a nonblocking send and returns its request.
func (r *Rank) ISend(dst, tag int, bytes int64) Request {
	return handle(r.isend(dst, tag, bytes))
}

func (r *Rank) isend(dst, tag int, bytes int64) *request {
	if dst < 0 || dst >= r.Size() {
		panic(fmt.Sprintf("msg: rank %d sending to invalid rank %d", r.id, dst))
	}
	if bytes < 0 {
		panic("msg: negative message size")
	}
	r.Stats.BytesSent += bytes
	r.Stats.MsgsSent++
	c := r.comm
	q := c.newRequest(r)
	q.bytes = bytes
	dstRank := &c.ranks[dst]

	if dst == r.id {
		// Self-send: a local memory copy, delivered through the normal
		// matching path after the copy time.
		c.trace(r.id, dst, tag, bytes, "local")
		copyTime := c.mach.RankModel().ComputeTime(0, 2*float64(bytes))
		e := c.newEnvelope(r.id, tag, bytes, kindEager, dstRank)
		e.sendReq = q
		c.mach.Kernel().After(copyTime, e.arrive)
		return q
	}

	fab := c.mach.Fabric()
	if bytes <= c.opts.EagerLimit {
		c.trace(r.id, dst, tag, bytes, "eager")
		e := c.newEnvelope(r.id, tag, bytes, kindEager, dstRank)
		fab.Send(r.id, dst, bytes+ctrlBytes, q.injected, e.arrive)
		return q
	}

	// Rendezvous: RTS -> (receiver matches) -> CTS -> payload.
	c.trace(r.id, dst, tag, bytes, "rendezvous")
	op := c.newSendOp()
	op.src, op.dst, op.bytes, op.req = r.id, dst, bytes, q
	e := c.newEnvelope(r.id, tag, bytes, kindRTS, dstRank)
	e.op = op
	fab.Send(r.id, dst, ctrlBytes, nil, e.arrive)
	return q
}

// Recv blocks until a message matching (src, tag) arrives and returns its
// size. Use AnySource and/or AnyTag as wildcards. It returns the actual
// source rank alongside the byte count.
func (r *Rank) Recv(src, tag int) (from int, bytes int64) {
	q := r.irecv(src, tag)
	r.await(q)
	from, bytes = q.from, q.bytes
	r.comm.freeRequest(q)
	return from, bytes
}

// IRecv posts a nonblocking receive and returns its request.
func (r *Rank) IRecv(src, tag int) Request { return handle(r.irecv(src, tag)) }

func (r *Rank) irecv(src, tag int) *request {
	if src != AnySource && (src < 0 || src >= r.Size()) {
		panic(fmt.Sprintf("msg: rank %d receiving from invalid rank %d", r.id, src))
	}
	q := r.comm.newRequest(r)
	q.src, q.tag = src, tag
	// Check the unexpected queue first (FIFO matching).
	var prev *envelope
	for e := r.unexpected; e != nil; prev, e = e, e.next {
		if q.matches(e) {
			if prev == nil {
				r.unexpected = e.next
			} else {
				prev.next = e.next
			}
			if r.unexpectedTail == e {
				r.unexpectedTail = prev
			}
			e.next = nil
			r.consume(q, e)
			return q
		}
	}
	if r.postedTail == nil {
		r.posted = q
	} else {
		r.postedTail.next = q
	}
	r.postedTail = q
	return q
}

// SendRecv posts the receive, performs the send, then waits for the
// receive — the deadlock-free exchange primitive ring and pairwise
// collectives are built from. It returns the received byte count.
func (r *Rank) SendRecv(dst, sendTag int, bytes int64, src, recvTag int) int64 {
	q := r.irecv(src, recvTag)
	r.Send(dst, sendTag, bytes)
	r.await(q)
	n := q.bytes
	r.comm.freeRequest(q)
	return n
}

// matches reports whether envelope e satisfies receive request q.
func (q *request) matches(e *envelope) bool {
	if q.src != AnySource && q.src != e.src {
		return false
	}
	if q.tag != AnyTag && q.tag != e.tag {
		return false
	}
	return true
}

// deliver handles a message arrival at this rank: match a posted receive
// or queue as unexpected.
func (r *Rank) deliver(e *envelope) {
	var prev *request
	for q := r.posted; q != nil; prev, q = q, q.next {
		if q.matches(e) {
			if prev == nil {
				r.posted = q.next
			} else {
				prev.next = q.next
			}
			if r.postedTail == q {
				r.postedTail = prev
			}
			q.next = nil
			r.consume(q, e)
			return
		}
	}
	if r.unexpectedTail == nil {
		r.unexpected = e
	} else {
		r.unexpectedTail.next = e
	}
	r.unexpectedTail = e
}

// consume completes a matched (request, envelope) pair and recycles the
// envelope. For eager envelopes the payload has already arrived; for RTS
// envelopes the receiver issues the CTS and completion happens at
// payload delivery.
func (r *Rank) consume(q *request, e *envelope) {
	c := r.comm
	q.from = e.src
	kind, bytes, op := e.kind, e.bytes, e.op
	c.freeEnvelope(e)
	switch kind {
	case kindEager:
		q.bytes = bytes
		q.complete()
	case kindRTS:
		op.recvReq = q
		// CTS control message back to the sender; on its arrival the
		// sender streams the payload.
		c.mach.Fabric().Send(r.id, op.src, ctrlBytes, nil, op.cts)
	}
}

// complete marks the request done and wakes its waiter.
func (q *request) complete() {
	if q.done {
		panic("msg: request completed twice")
	}
	q.done = true
	if q.waiting {
		q.waiting = false
		q.rank.proc.Resume(nil)
	}
}

// await blocks the rank until q completes.
func (r *Rank) await(q *request) {
	if !q.done {
		start := r.Now()
		q.waiting = true
		r.proc.Suspend()
		r.Stats.CommTime += r.Now() - start
	}
}

func handle(q *request) Request { return Request{q: q, gen: q.gen} }

// Done reports whether the request has completed.
func (req *Request) Done() bool {
	return req.q == nil || req.q.gen != req.gen || req.q.done
}

// Wait blocks the rank until the request completes and returns the byte
// count (for receives, the received size). Waiting again on the same
// handle returns the same count.
func (req *Request) Wait() int64 {
	if q := req.q; q != nil {
		if q.gen == req.gen {
			q.rank.await(q)
			req.bytes = q.bytes
			q.rank.comm.freeRequest(q)
		}
		req.q = nil
	}
	return req.bytes
}

// WaitAll waits for every request in order. It waits on the elements of
// reqs in place, so reqs[i].Wait() afterwards returns request i's count.
func WaitAll(reqs ...Request) {
	for i := range reqs {
		reqs[i].Wait()
	}
}
