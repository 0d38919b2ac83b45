package msg

import "sync"

// The message path allocates nothing in steady state. Every Request
// slot, envelope and rendezvous sendOp comes from its communicator's
// free lists, and each object binds the event callbacks it hands to the
// kernel and fabric once, when it is first built; the callbacks reach
// their state through the object itself, never through a fresh closure.
//
// Who returns what:
//   - a request slot goes back when its Wait returns (Request.Wait, or
//     the blocking Send/Recv/SendRecv); its generation is bumped, so a
//     Request handle kept after that reports done and never sees a later
//     message's state. A request that is never waited is not recycled.
//   - an envelope goes back when a receive consumes it.
//   - a sendOp goes back when its payload has been both injected and
//     delivered.
//
// No object is returned while an event that refers to it is pending:
// each callback clears its references before completing a request.

// freeLists are a communicator's recycled message objects, linked
// through their next fields.
type freeLists struct {
	reqs *request
	envs *envelope
	ops  *sendOp
}

// spareLists passes free lists from a drained communicator to the next
// one, so a program that runs many short communicators (a sweep that
// calls Run per point) reuses the objects and their bound callbacks.
// None of the pooled objects refers to a communicator while free.
var spareLists = sync.Pool{New: func() any { return new(freeLists) }}

// request is the pooled state behind a Request handle.
type request struct {
	rank     *Rank
	gen      uint32
	src, tag int // recv: filters (AnySource/AnyTag allowed)
	done     bool
	waiting  bool
	bytes    int64
	from     int      // recv: actual source once matched
	next     *request // posted queue or free list
	injected func()   // eager send: the payload left the NIC
}

// envelope is the wire-visible description of a message.
type envelope struct {
	src, tag int
	bytes    int64
	kind     kindT
	dst      *Rank
	op       *sendOp   // rendezvous: the RTS's send
	sendReq  *request  // self-send: completed when the copy lands
	next     *envelope // unexpected queue or free list
	arrive   func()    // the envelope reached dst
}

// sendOp tracks one rendezvous send from RTS to payload completion.
type sendOp struct {
	comm      *Comm
	src, dst  int
	bytes     int64
	req       *request // sender's request
	recvReq   *request // receiver's matched request (set at CTS time)
	left      int      // payload completions still to fire
	next      *sendOp  // free list
	cts       func()   // the CTS reached the sender: stream the payload
	injected  func()
	delivered func()
}

func (c *Comm) newRequest(r *Rank) *request {
	q := c.free.reqs
	if q == nil {
		q = &request{}
		q.injected = func() { q.complete() }
	} else {
		c.free.reqs = q.next
		q.next = nil
	}
	q.rank = r
	q.done = false
	return q
}

// freeRequest recycles q; bumping the generation spends every handle.
func (c *Comm) freeRequest(q *request) {
	q.gen++
	q.rank = nil
	q.next = c.free.reqs
	c.free.reqs = q
}

func (c *Comm) newEnvelope(src, tag int, bytes int64, kind kindT, dst *Rank) *envelope {
	e := c.free.envs
	if e == nil {
		e = &envelope{}
		e.arrive = func() {
			if q := e.sendReq; q != nil {
				e.sendReq = nil
				q.complete()
			}
			e.dst.deliver(e)
		}
	} else {
		c.free.envs = e.next
		e.next = nil
	}
	e.src, e.tag, e.bytes, e.kind, e.dst = src, tag, bytes, kind, dst
	return e
}

func (c *Comm) freeEnvelope(e *envelope) {
	e.dst, e.op = nil, nil
	e.next = c.free.envs
	c.free.envs = e
}

func (c *Comm) newSendOp() *sendOp {
	op := c.free.ops
	if op == nil {
		op = &sendOp{}
		op.cts = func() {
			op.comm.mach.Fabric().Send(op.src, op.dst, op.bytes, op.injected, op.delivered)
		}
		op.injected = func() {
			q := op.req
			op.req = nil
			q.complete()
			op.finish()
		}
		op.delivered = func() {
			q := op.recvReq
			op.recvReq = nil
			q.bytes = op.bytes
			q.complete()
			op.finish()
		}
	} else {
		c.free.ops = op.next
		op.next = nil
	}
	op.comm = c
	op.left = 2
	return op
}

// finish counts one payload completion and recycles the op after both.
func (op *sendOp) finish() {
	op.left--
	if op.left > 0 {
		return
	}
	c := op.comm
	op.comm = nil
	op.next = c.free.ops
	c.free.ops = op
}
