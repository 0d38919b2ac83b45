package msg

import (
	"strings"
	"testing"

	"northstar/internal/network"
)

// pairAllocs runs warm+runs+1 ping-pong round trips of size bytes
// between two ranks of one machine and returns the allocations per
// round trip after the warm-up, measured on rank 0 with AllocsPerRun.
func pairAllocs(t *testing.T, bytes int64) float64 {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	m := gigE(t, 2)
	const warm, runs = 10, 50
	var allocs float64
	_, err := Run(m, Options{}, func(r *Rank) {
		if r.ID() == 0 {
			pair := func() {
				r.Send(1, 0, bytes)
				r.Recv(1, 0)
			}
			for i := 0; i < warm; i++ {
				pair()
			}
			allocs = testing.AllocsPerRun(runs, pair)
			return
		}
		for i := 0; i < warm+runs+1; i++ {
			r.Recv(0, 0)
			r.Send(0, 0, bytes)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return allocs
}

func TestEagerPairAllocFree(t *testing.T) {
	if a := pairAllocs(t, 64); a != 0 {
		t.Fatalf("eager send/recv round trip allocates %.0f times, want 0", a)
	}
}

func TestRendezvousPairAllocFree(t *testing.T) {
	if a := pairAllocs(t, 1<<20); a != 0 {
		t.Fatalf("rendezvous send/recv round trip allocates %.0f times, want 0", a)
	}
}

func TestNonblockingPairAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	m := gigE(t, 2)
	const runs = 50
	var allocs float64
	_, err := Run(m, Options{}, func(r *Rank) {
		partner := 1 - r.ID()
		exchange := func() {
			reqs := [2]Request{r.IRecv(partner, 3), r.ISend(partner, 3, 512)}
			WaitAll(reqs[:]...)
		}
		for i := 0; i < 10; i++ {
			exchange()
		}
		if r.ID() == 0 {
			allocs = testing.AllocsPerRun(runs, exchange)
		} else {
			for i := 0; i < runs+1; i++ {
				exchange()
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("ISend/IRecv exchange allocates %.0f times, want 0", allocs)
	}
}

func TestAllreduce64ResetAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	m := testMachine(t, 64, network.InfiniBand4X())
	run := func() {
		m.Reset()
		if _, err := Run(m, Options{}, func(r *Rank) { r.Allreduce(65536) }); err != nil {
			t.Fatal(err)
		}
	}
	run()
	run()
	if a := testing.AllocsPerRun(10, run); a > 100 {
		t.Fatalf("64-rank allreduce on a reset machine allocates %.0f times, want <= 100", a)
	}
}

func TestStaleRequestHandle(t *testing.T) {
	m := gigE(t, 2)
	_, err := Run(m, Options{}, func(r *Rank) {
		if r.ID() == 1 {
			r.Send(0, 1, 100)
			r.Send(0, 2, 200)
			return
		}
		first := r.IRecv(1, 1)
		stale := first // a copy that outlives the Wait below
		if got := first.Wait(); got != 100 {
			panic("first receive got wrong size")
		}
		if got := first.Wait(); got != 100 {
			panic("second Wait on the waited handle changed its result")
		}
		// The next receive reuses the recycled slot.
		second := r.IRecv(1, 2)
		if second.q != stale.q {
			panic("slot was not recycled; the test no longer covers reuse")
		}
		if !stale.Done() {
			panic("stale handle reports not done while its slot is reused")
		}
		if got := stale.Wait(); got != 0 {
			panic("stale handle returned another message's bytes")
		}
		if got := second.Wait(); got != 200 {
			panic("second receive got wrong size")
		}
		var zero Request
		if !zero.Done() || zero.Wait() != 0 {
			panic("zero Request is not done")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestStaleRecvHandleKeepsSource(t *testing.T) {
	// A recycled slot must never leak its new source to an old handle
	// either: Recv reports the source of its own message.
	m := gigE(t, 3)
	var from [2]int
	_, err := Run(m, Options{}, func(r *Rank) {
		switch r.ID() {
		case 0:
			old := r.IRecv(AnySource, 5)
			old.Wait()
			from[0], _ = r.Recv(AnySource, 6)
			from[1], _ = r.Recv(AnySource, 5)
			if !old.Done() || old.Wait() != 10 {
				panic("waited handle lost its result")
			}
		case 1:
			r.Send(0, 5, 10)
			r.Sleep(1)
			r.Send(0, 6, 20)
		case 2:
			r.Sleep(2)
			r.Send(0, 5, 30)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if from != [2]int{1, 2} {
		t.Fatalf("sources = %v, want [1 2]", from)
	}
}

func TestDeadlockReportsExactStuckRanks(t *testing.T) {
	m := gigE(t, 4)
	_, err := Run(m, Options{}, func(r *Rank) {
		if r.ID() == 0 || r.ID() == 2 {
			r.Recv(r.ID()+1, 0) // never sent
		}
	})
	const want = "msg: deadlock: 2/4 ranks never finished (stuck: [0 2])"
	if err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
	// The machine is reusable after the deadlocked run.
	m.Reset()
	if _, err := Run(m, Options{}, func(r *Rank) { r.Barrier() }); err != nil {
		t.Fatalf("run after deadlock: %v", err)
	}
}

func TestPooledObjectsAcrossRuns(t *testing.T) {
	// Consecutive runs share recycled objects; a mixed workload must give
	// the same answer every time.
	m := testMachine(t, 8, network.InfiniBand4X())
	var first string
	for i := 0; i < 3; i++ {
		m.Reset()
		var sb strings.Builder
		end, err := Run(m, Options{Trace: &sb}, func(r *Rank) {
			r.Allreduce(64 << 10)
			r.Alltoall(100)
			r.Scan(8)
			r.Send((r.ID()+1)%r.Size(), 1, int64(r.ID())<<18)
			r.Recv(AnySource, 1)
		})
		if err != nil {
			t.Fatal(err)
		}
		got := end.String() + "\n" + sb.String()
		if i == 0 {
			first = got
		} else if got != first {
			t.Fatalf("run %d differs from run 0", i)
		}
	}
}

func TestConcurrentCommsShareSpareLists(t *testing.T) {
	// Communicators on different goroutines pass free lists through one
	// pool; every run must still produce its own exact timeline.
	run := func() string {
		m := testMachine(t, 8, network.InfiniBand4X())
		var sb strings.Builder
		for i := 0; i < 5; i++ {
			m.Reset()
			end, err := Run(m, Options{}, func(r *Rank) {
				r.Allreduce(64 << 10)
				r.Alltoall(1 << 10)
			})
			if err != nil {
				t.Error(err)
			}
			sb.WriteString(end.String())
		}
		return sb.String()
	}
	want := run()
	done := make(chan string)
	for g := 0; g < 4; g++ {
		go func() { done <- run() }()
	}
	for g := 0; g < 4; g++ {
		if got := <-done; got != want {
			t.Errorf("concurrent run = %s, want %s", got, want)
		}
	}
}
