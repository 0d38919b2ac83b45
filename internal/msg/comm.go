// Package msg is the user-level message-passing layer that runs on a
// simulated machine: ranks, blocking and nonblocking point-to-point with
// MPI-style eager/rendezvous protocols, and the collective operations
// (barrier, broadcast, reduce, allreduce, allgather, alltoall) with
// selectable algorithms. Programs are written SPMD-style — an ordinary
// Go function executed by every rank as a sim.Proc — and all timing is
// virtual: the Go runtime's scheduling and GC cannot perturb measured
// latencies, which is exactly the substitution DESIGN.md §4 calls out
// for reproducing user-level messaging results inside a garbage-
// collected host.
package msg

import (
	"fmt"
	"io"

	"northstar/internal/machine"
	"northstar/internal/sim"
)

// Wildcards for Recv.
const (
	// AnySource matches a message from any rank.
	AnySource = -1
	// AnyTag matches a message with any tag.
	AnyTag = -1
)

// ctrlBytes is the size of a protocol control message (RTS/CTS header).
const ctrlBytes = 64

// Algo names a collective algorithm.
type Algo string

// Collective algorithm choices. Auto picks the conventional default for
// the operation (see each collective's documentation).
const (
	Auto              Algo = "auto"
	Binomial          Algo = "binomial"
	RecursiveDoubling Algo = "recursive-doubling"
	Ring              Algo = "ring"
	Dissemination     Algo = "dissemination"
	Pairwise          Algo = "pairwise"
	Linear            Algo = "linear"
	// SMPAware is a hierarchical algorithm for machines running several
	// ranks per node: combine within each node over shared memory,
	// exchange once per node over the wire, then fan back out. Falls
	// back to the flat default at one rank per node.
	SMPAware Algo = "smp-aware"
)

// Options configures a communicator.
type Options struct {
	// EagerLimit is the largest message sent eagerly (default 16 KiB);
	// larger messages use the rendezvous protocol.
	EagerLimit int64
	// Barrier, Bcast, Reduce, Allreduce, Allgather, Alltoall select
	// collective algorithms (default Auto).
	Barrier, Bcast, Reduce, Allreduce, Allgather, Alltoall Algo
	// Trace, when set, receives one CSV line per message send
	// (virtual time, src, dst, tag, bytes, protocol) — a deterministic
	// communication timeline for offline analysis. The header row is
	// written when the communicator is created.
	Trace io.Writer
}

func (o Options) withDefaults() Options {
	if o.EagerLimit == 0 {
		o.EagerLimit = 16 << 10
	}
	def := func(a *Algo) {
		if *a == "" {
			*a = Auto
		}
	}
	def(&o.Barrier)
	def(&o.Bcast)
	def(&o.Reduce)
	def(&o.Allreduce)
	def(&o.Allgather)
	def(&o.Alltoall)
	return o
}

// Comm is a communicator: P ranks bound to the nodes of one machine.
type Comm struct {
	mach     *machine.Machine
	opts     Options
	ranks    []Rank
	fn       func(r *Rank)
	finished int
	errs     []error
	// free holds the communicator's recycled message objects (see
	// pool.go); a drained Start hands them on to the next Comm.
	free *freeLists
}

// NewComm returns a communicator spanning all nodes of m.
func NewComm(m *machine.Machine, opts Options) *Comm {
	c := &Comm{
		mach:  m,
		opts:  opts.withDefaults(),
		ranks: make([]Rank, m.Ranks()),
	}
	for i := range c.ranks {
		c.ranks[i] = Rank{comm: c, id: i}
	}
	if c.opts.Trace != nil {
		fmt.Fprintln(c.opts.Trace, "time_s,src,dst,tag,bytes,protocol")
	}
	return c
}

// trace emits one timeline row if tracing is enabled.
func (c *Comm) trace(src, dst, tag int, bytes int64, protocol string) {
	if c.opts.Trace == nil {
		return
	}
	fmt.Fprintf(c.opts.Trace, "%.9f,%d,%d,%d,%d,%s\n",
		float64(c.mach.Kernel().Now()), src, dst, tag, bytes, protocol)
}

// Size returns the number of ranks.
func (c *Comm) Size() int { return len(c.ranks) }

// Machine returns the underlying machine.
func (c *Comm) Machine() *machine.Machine { return c.mach }

// Rank returns rank i (for inspecting stats after a run).
func (c *Comm) Rank(i int) *Rank { return &c.ranks[i] }

// Run executes fn SPMD-style on every rank and drives the simulation to
// completion. It returns the virtual time at which the last rank
// finished. If a rank panics, Run returns its error; if ranks block
// forever (a communication deadlock), Run reports which ranks were
// stuck.
func Run(m *machine.Machine, opts Options, fn func(r *Rank)) (sim.Time, error) {
	c := NewComm(m, opts)
	return c.Start(fn)
}

// Start is Run on an existing communicator, allowing post-run access to
// per-rank statistics.
func (c *Comm) Start(fn func(r *Rank)) (sim.Time, error) {
	k := c.mach.Kernel()
	c.fn = fn
	if c.free == nil {
		c.free = spareLists.Get().(*freeLists)
	}
	body := c.runRank
	for i := range c.ranks {
		c.ranks[i].proc = k.Go(body)
	}
	end := k.Run()
	if k.Pending() == 0 {
		// Drained: no event can reach a free object any more.
		spareLists.Put(c.free)
		c.free = nil
	}
	if len(c.errs) > 0 {
		return end, c.errs[0]
	}
	if c.finished != len(c.ranks) {
		var stuck []int
		for i := range c.ranks {
			if !c.ranks[i].finished {
				stuck = append(stuck, i)
			}
		}
		return end, fmt.Errorf("msg: deadlock: %d/%d ranks never finished (stuck: %v)", len(stuck), len(c.ranks), stuck)
	}
	return end, nil
}

// runRank is every rank's proc body. Start spawns the rank procs in rank
// order and the kernel numbers procs consecutively, so the proc ID
// locates the rank without a closure per rank.
func (c *Comm) runRank(p *sim.Proc) {
	r := &c.ranks[p.ID()-c.ranks[0].proc.ID()]
	defer func() {
		if e := recover(); e != nil {
			c.errs = append(c.errs, fmt.Errorf("msg: rank %d panicked: %v", r.id, e))
		}
		r.finished = true
		c.finished++
	}()
	c.fn(r)
}
