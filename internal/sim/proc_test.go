package sim

import (
	"testing"
)

func TestProcWaitAdvancesTime(t *testing.T) {
	k := New(1)
	var marks []Time
	k.Go(func(p *Proc) {
		marks = append(marks, p.Now())
		p.Wait(5)
		marks = append(marks, p.Now())
		p.Wait(3)
		marks = append(marks, p.Now())
	})
	k.Run()
	want := []Time{0, 5, 8}
	if len(marks) != len(want) {
		t.Fatalf("marks = %v, want %v", marks, want)
	}
	for i := range want {
		if marks[i] != want[i] {
			t.Fatalf("marks = %v, want %v", marks, want)
		}
	}
}

func TestProcsInterleaveDeterministically(t *testing.T) {
	run := func() []int {
		k := New(1)
		var order []int
		for i := 0; i < 4; i++ {
			i := i
			k.Go(func(p *Proc) {
				for step := 0; step < 3; step++ {
					p.Wait(Time(i+1) * 0.5)
					order = append(order, i)
				}
			})
		}
		k.Run()
		return order
	}
	a, b := run(), run()
	if len(a) != 12 {
		t.Fatalf("got %d steps, want 12", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic interleave: %v vs %v", a, b)
		}
	}
	// Proc 0 waits 0.5s per step, so it must log the first step.
	if a[0] != 0 {
		t.Fatalf("first step by proc %d, want 0", a[0])
	}
}

func TestProcSuspendResumePayload(t *testing.T) {
	k := New(1)
	var got any
	var waiter *Proc
	waiter = k.Go(func(p *Proc) {
		payload, resumed := p.Suspend()
		if !resumed {
			t.Error("suspend reported interrupted")
		}
		got = payload
	})
	k.Go(func(p *Proc) {
		p.Wait(2)
		waiter.Resume("hello")
	})
	k.Run()
	if got != "hello" {
		t.Fatalf("payload = %v, want hello", got)
	}
}

func TestProcInterruptCancelsWait(t *testing.T) {
	k := New(1)
	var completed bool
	var at Time
	var sleeper *Proc
	sleeper = k.Go(func(p *Proc) {
		completed = p.Wait(100)
		at = p.Now()
	})
	k.Go(func(p *Proc) {
		p.Wait(1)
		sleeper.Interrupt()
	})
	k.Run()
	if completed {
		t.Fatal("interrupted wait reported completion")
	}
	if at != 1 {
		t.Fatalf("woke at %v, want 1", at)
	}
}

func TestProcInterruptFinishedIsNoop(t *testing.T) {
	k := New(1)
	p := k.Go(func(p *Proc) {})
	k.Run()
	p.Interrupt() // must not panic or deadlock
	k.Run()
}

func TestProcDoubleResumePanics(t *testing.T) {
	k := New(1)
	var target *Proc
	target = k.Go(func(p *Proc) { p.Suspend() })
	k.Go(func(p *Proc) {
		p.Wait(1)
		target.Resume(nil)
		defer func() {
			if recover() == nil {
				t.Error("second Resume did not panic")
			}
		}()
		target.Resume(nil)
	})
	k.Run()
}

func TestProcSpawnsProc(t *testing.T) {
	k := New(1)
	var childTime Time
	k.Go(func(p *Proc) {
		p.Wait(4)
		p.Kernel().Go(func(c *Proc) {
			c.Wait(1)
			childTime = c.Now()
		})
	})
	k.Run()
	if childTime != 5 {
		t.Fatalf("child finished at %v, want 5", childTime)
	}
}

func TestWaitGroup(t *testing.T) {
	k := New(1)
	var wg WaitGroup
	var doneAt Time
	for i := 1; i <= 3; i++ {
		i := i
		wg.Add(1)
		k.Go(func(p *Proc) {
			p.Wait(Time(i) * 10)
			wg.Done()
		})
	}
	k.Go(func(p *Proc) {
		p.Wait(1) // let workers start
		wg.Wait(p)
		doneAt = p.Now()
	})
	k.Run()
	if doneAt != 30 {
		t.Fatalf("waitgroup released at %v, want 30", doneAt)
	}
}

func TestWaitGroupAlreadyZero(t *testing.T) {
	k := New(1)
	var wg WaitGroup
	ran := false
	k.Go(func(p *Proc) {
		wg.Wait(p) // returns immediately
		ran = true
	})
	k.Run()
	if !ran {
		t.Fatal("Wait on zero WaitGroup blocked")
	}
}

func TestManyProcs(t *testing.T) {
	k := New(1)
	const n = 1000
	finished := 0
	for i := 0; i < n; i++ {
		i := i
		k.Go(func(p *Proc) {
			p.Wait(Time(i) * Microsecond)
			finished++
		})
	}
	k.Run()
	if finished != n {
		t.Fatalf("finished %d of %d procs", finished, n)
	}
}

func BenchmarkProcContextSwitch(b *testing.B) {
	k := New(1)
	k.Go(func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Wait(Microsecond)
		}
	})
	b.ReportAllocs()
	k.Run()
}

func TestProcWaitAllocFree(t *testing.T) {
	k := New(1)
	var allocs float64
	k.Go(func(p *Proc) {
		p.Wait(1)
		allocs = testing.AllocsPerRun(100, func() { p.Wait(Microsecond) })
	})
	k.Run()
	if allocs != 0 {
		t.Fatalf("Proc.Wait allocates %.0f times, want 0", allocs)
	}
}

func TestProcResumeSuspendAllocFree(t *testing.T) {
	k := New(1)
	const runs = 100
	var allocs float64
	var a *Proc
	b := k.Go(func(b *Proc) {
		for i := 0; i < runs+2; i++ {
			b.Suspend()
			a.Resume(nil)
		}
	})
	a = k.Go(func(a *Proc) {
		roundTrip := func() {
			b.Resume(nil)
			a.Suspend()
		}
		roundTrip()
		allocs = testing.AllocsPerRun(runs, roundTrip)
	})
	k.Run()
	if allocs != 0 {
		t.Fatalf("Resume/Suspend round trip allocates %.0f times, want 0", allocs)
	}
}

func TestProcInterruptCancelsTimer(t *testing.T) {
	// The interrupted Wait's timer must not fire later: the proc goes on
	// to Suspend, and a stale timer at t=100 would wake it spuriously.
	k := New(1)
	var completed, resumed bool
	var at Time
	var sleeper *Proc
	sleeper = k.Go(func(p *Proc) {
		completed = p.Wait(100)
		_, resumed = p.Suspend()
		at = p.Now()
	})
	k.Go(func(p *Proc) {
		p.Wait(1)
		sleeper.Interrupt()
		p.Wait(200)
		sleeper.Resume(nil)
	})
	k.Run()
	if completed {
		t.Fatal("interrupted Wait returned true")
	}
	if !resumed || at != 201 {
		t.Fatalf("Suspend returned resumed=%v at %v, want true at 201", resumed, at)
	}
}

func TestProcStaleWakeSkipsRecycledCoroutine(t *testing.T) {
	// A Resume delivered while its target sits in Wait leaves the Wait's
	// timer pending after the target finishes. That timer must not wake
	// a proc spawned afterwards, whichever coroutine it runs on.
	k := New(1)
	var target *Proc
	target = k.Go(func(p *Proc) { p.Wait(10) })
	var late Time
	k.Go(func(p *Proc) {
		p.Wait(1)
		target.Resume(nil) // target returns from Wait at t=1 and finishes
		p.Wait(1)
		c := p.Kernel().Go(func(c *Proc) {
			c.Suspend() // only the Resume at t=20 may wake it
			late = c.Now()
		})
		p.Wait(18)
		c.Resume(nil)
	})
	k.Run()
	if late != 20 {
		t.Fatalf("new proc woke at %v, want 20", late)
	}
}

func TestProcWorkersReusedAcrossKernels(t *testing.T) {
	// Finished procs park their coroutines for the next kernel; runs on
	// fresh kernels must behave exactly like the first.
	run := func() []Time {
		k := New(1)
		var ends []Time
		for i := 0; i < 8; i++ {
			k.Go(func(p *Proc) {
				p.Wait(Time(i))
				ends = append(ends, p.Now())
			})
		}
		k.Run()
		return ends
	}
	first := run()
	for r := 0; r < 3; r++ {
		got := run()
		for i := range first {
			if got[i] != first[i] {
				t.Fatalf("run %d: ends %v, want %v", r, got, first)
			}
		}
	}
}

func TestProcWorkersSharedAcrossGoroutines(t *testing.T) {
	// Kernels on different goroutines draw coroutines from one idle
	// list; each simulation must still see only its own procs. Pairs of
	// procs hand off with Resume or Interrupt.
	run := func() Time {
		k := New(1)
		var sum Time
		procs := make([]*Proc, 40)
		for i := range procs {
			procs[i] = k.Go(func(p *Proc) {
				if i%2 == 1 {
					p.Wait(Time((i-1)%7+1) * Microsecond) // after the partner suspends
					if i%4 == 1 {
						procs[i-1].Interrupt()
					} else {
						procs[i-1].Resume(Time(i))
					}
					return
				}
				p.Wait(Time(i%7) * Microsecond)
				if v, resumed := p.Suspend(); resumed {
					sum += v.(Time) * p.Now()
				}
				sum += p.Now()
			})
		}
		k.Run()
		return sum
	}
	want := run()
	done := make(chan Time)
	for g := 0; g < 4; g++ {
		go func() {
			var got Time
			for r := 0; r < 25; r++ {
				got = run()
			}
			done <- got
		}()
	}
	for g := 0; g < 4; g++ {
		if got := <-done; got != want {
			t.Errorf("concurrent run = %v, want %v", got, want)
		}
	}
}

func TestProcID(t *testing.T) {
	k := New(1)
	var a, b int
	k.Go(func(p *Proc) { a = p.ID() })
	k.Go(func(p *Proc) { b = p.ID() })
	k.Run()
	if a == b {
		t.Fatalf("two procs share ID %d", a)
	}
}
