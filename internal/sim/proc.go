package sim

import (
	"fmt"
	"iter"
	"sync"
)

// Proc is a simulated sequential process: a coroutine that advances
// virtual time by blocking on the kernel. Procs make it possible to write
// simulated programs (for example MPI ranks) in ordinary sequential style
// — Send, Recv, compute — while the kernel interleaves them
// deterministically in virtual time.
//
// Exactly one party is runnable at any instant: either the kernel's
// driver or a single Proc holding the control token. A Proc relinquishes
// the token by calling Wait, Suspend, or by returning; the kernel hands
// the token to a Proc when a wake event for it fires. This handoff
// discipline means Procs need no locks for kernel state and the event
// order stays deterministic.
//
// The handoff rides on iter.Pull coroutines rather than goroutines parked
// on channels: a resume/yield pair is a direct coroutine switch with no
// scheduler round trip, which is roughly 4x cheaper and keeps the whole
// simulation on one OS thread. A consequence worth knowing: a panic
// inside a Proc now unwinds through the kernel's Run caller (where the
// suite's recovery shields catch it) instead of crashing the process from
// a detached goroutine.
//
// Proc methods must be called only from the Proc's own coroutine, with
// the exception of Resume and Interrupt which are called from event
// handlers or other Procs.
type Proc struct {
	k       *Kernel
	id      int
	w       *worker // the coroutine running fn
	fn      func(p *Proc)
	sig     procSignal // wake payload, set before the coroutine resumes
	resumed any        // Resume's payload, held until its wake event fires
	waking  bool       // a Resume is already in flight
	done    bool
	pending int // wake events scheduled for this proc and not yet fired
}

type procSignal struct {
	interrupted bool
	payload     any
}

// worker is a coroutine that runs Procs one after another. Its three
// wake callbacks are bound once, when the worker is built, and every
// wake event a Proc schedules uses one of them, so Wait, Resume and
// Interrupt allocate nothing. A worker whose Proc has finished goes back
// to idleWorkers only when none of that Proc's wake events are still
// pending, so a callback always acts on the Proc that scheduled it.
type worker struct {
	next  func() (struct{}, bool) // kernel side: hand the token to the proc
	stop  func()
	yield func(struct{}) bool // proc side: hand the token back
	p     *Proc               // current occupant; nil while idle

	wake      func() // start and timer wake-ups
	resume    func() // Resume: delivers p.resumed
	interrupt func()
}

// maxIdleWorkers bounds the finished coroutines kept for reuse across all
// kernels. A parked coroutine keeps its goroutine stack, so the bound
// trades rebuilding coroutines for runs with more procs than this
// against resident memory; at 1024 the suite's peak RSS grew by a sixth.
const maxIdleWorkers = 128

// idleWorkers holds parked coroutines that no kernel is using. It is
// shared by every kernel, so a fresh simulation reuses the coroutines
// of one that has finished instead of building new ones. Parked
// coroutines live until a Go takes them or the process exits.
var idleWorkers struct {
	sync.Mutex
	free []*worker
}

func newWorker() *worker {
	w := &worker{}
	w.wake = func() {
		if p := w.p; p.fired() {
			p.deliver(procSignal{})
		}
	}
	w.resume = func() {
		if p := w.p; p.fired() {
			payload := p.resumed
			p.resumed = nil
			p.deliver(procSignal{payload: payload})
		}
	}
	w.interrupt = func() {
		if p := w.p; p.fired() {
			p.deliver(procSignal{interrupted: true})
		}
	}
	w.next, w.stop = iter.Pull(func(yield func(struct{}) bool) {
		w.yield = yield
		for {
			p := w.p
			p.fn(p)
			p.fn = nil
			p.done = true
			// Park until the kernel hands this worker a new Proc; a
			// stopped worker (idle list full) ends its goroutine.
			if !yield(struct{}{}) {
				return
			}
		}
	})
	return w
}

// getWorker returns an idle worker, or a new one when none is parked.
func getWorker() *worker {
	idleWorkers.Lock()
	defer idleWorkers.Unlock()
	if n := len(idleWorkers.free); n > 0 {
		w := idleWorkers.free[n-1]
		idleWorkers.free[n-1] = nil
		idleWorkers.free = idleWorkers.free[:n-1]
		return w
	}
	return newWorker()
}

// putWorker parks a worker whose Proc finished, or ends its coroutine
// when enough workers are already idle.
func putWorker(w *worker) {
	w.p = nil
	idleWorkers.Lock()
	if len(idleWorkers.free) < maxIdleWorkers {
		idleWorkers.free = append(idleWorkers.free, w)
		w = nil
	}
	idleWorkers.Unlock()
	if w != nil {
		w.stop()
	}
}

// Go spawns fn as a simulated process, runnable immediately (at the
// current virtual time, after already-scheduled events at that time).
// It returns the Proc, which the caller may use to Resume or Interrupt it.
// Procs are numbered 1, 2, ... in Go order (see ID).
func (k *Kernel) Go(fn func(p *Proc)) *Proc {
	k.procs++
	w := getWorker()
	p := &Proc{k: k, id: k.procs, w: w, fn: fn}
	w.p = p
	p.schedule(0, w.wake)
	return p
}

// Kernel returns the kernel this process runs on.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// ID returns a small integer unique among Procs of this kernel: Procs
// are numbered consecutively from 1 in the order Go created them
// (restarting after Kernel.Reset).
func (p *Proc) ID() int { return p.id }

// Wait advances the process's virtual time by d seconds. Other events and
// processes run in the meantime. Wait panics on negative d. It reports
// whether the wait completed without interruption (an Interrupt delivered
// while waiting cancels the remaining delay).
func (p *Proc) Wait(d Time) bool {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative wait %v", d))
	}
	h := p.schedule(d, p.w.wake)
	sig := p.block()
	if sig.interrupted {
		if h.Cancel() {
			p.pending--
		}
		return false
	}
	return true
}

// Suspend blocks the process until another party calls Resume or
// Interrupt. It returns the payload passed to Resume (nil for Interrupt)
// and whether the wake was a normal Resume.
func (p *Proc) Suspend() (payload any, resumed bool) {
	sig := p.block()
	return sig.payload, !sig.interrupted
}

// Resume wakes a process blocked in Suspend, handing it payload. The wake
// is scheduled as an event at the current virtual time, preserving
// deterministic ordering. Resuming a process that is not suspended (or
// that already has a wake in flight) panics: it indicates a protocol bug
// in the caller, and silently dropping or queueing wakes would corrupt
// virtual-time bookkeeping.
func (p *Proc) Resume(payload any) {
	if p.done {
		panic("sim: Resume of finished proc")
	}
	if p.waking {
		panic("sim: Resume of proc with wake already in flight")
	}
	p.waking = true
	p.resumed = payload
	p.schedule(0, p.w.resume)
}

// Interrupt wakes a process blocked in Wait or Suspend with an
// interruption signal (Wait returns false; Suspend returns resumed=false).
// Interrupting a finished process is a no-op.
func (p *Proc) Interrupt() {
	if p.done || p.waking {
		return
	}
	p.waking = true
	p.schedule(0, p.w.interrupt)
}

// schedule books one of the worker's bound wake callbacks d from now.
func (p *Proc) schedule(d Time, wake func()) Handle {
	p.pending++
	return p.k.After(d, wake)
}

// fired accounts for a wake event of p firing and reports whether p
// should be woken; a wake that outlived its proc releases the worker
// once it is the last one pending.
func (p *Proc) fired() bool {
	p.pending--
	if !p.done {
		return true
	}
	if p.pending == 0 {
		putWorker(p.w)
	}
	return false
}

// deliver hands the control token to the proc; it returns when the proc
// blocks again or finishes.
func (p *Proc) deliver(sig procSignal) {
	p.waking = false
	p.sig = sig
	p.w.next()
	if p.done && p.pending == 0 {
		putWorker(p.w)
	}
}

// block parks the proc's coroutine, returning the control token to the
// kernel, until a wake signal arrives.
func (p *Proc) block() procSignal {
	if !p.w.yield(struct{}{}) {
		// The pull side was stopped; no wake will ever arrive. Unwind the
		// coroutine rather than return garbage.
		panic("sim: proc resumed after kernel stopped it")
	}
	return p.sig
}

// WaitGroup counts outstanding simulated activities and wakes a waiting
// Proc when the count reaches zero. Unlike sync.WaitGroup it is not
// thread-safe; it relies on the kernel's single-runnable discipline.
type WaitGroup struct {
	n      int
	waiter *Proc
}

// Add increments the outstanding count by delta.
func (w *WaitGroup) Add(delta int) {
	w.n += delta
	if w.n < 0 {
		panic("sim: negative WaitGroup counter")
	}
	if w.n == 0 && w.waiter != nil {
		p := w.waiter
		w.waiter = nil
		p.Resume(nil)
	}
}

// Done decrements the outstanding count by one.
func (w *WaitGroup) Done() { w.Add(-1) }

// Wait suspends p until the count reaches zero. Only one Proc may wait at
// a time.
func (w *WaitGroup) Wait(p *Proc) {
	if w.n == 0 {
		return
	}
	if w.waiter != nil {
		panic("sim: WaitGroup already has a waiter")
	}
	w.waiter = p
	p.Suspend()
}
