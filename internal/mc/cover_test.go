package mc

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

func TestNewPoolClampsNegativeHelpers(t *testing.T) {
	p := NewPool(-3)
	defer p.Close()
	if got := p.Workers(); got != 1 {
		t.Fatalf("Workers() = %d for NewPool(-3), want 1", got)
	}
	var nilPool *Pool
	if got := nilPool.Workers(); got != 1 {
		t.Fatalf("nil pool Workers() = %d, want 1", got)
	}
	nilPool.Close() // must not panic
}

func TestPoolCloseIdempotent(t *testing.T) {
	p := NewPool(2)
	p.Close()
	p.Close() // a second Close is a no-op, not a panic
	if got := p.Workers(); got != 3 {
		t.Fatalf("Workers() = %d after Close, want 3", got)
	}
}

func TestDefaultPool(t *testing.T) {
	old := defaultPool.Swap(nil)
	defer func() {
		if p := defaultPool.Swap(old); p != nil && p != old {
			p.Close()
		}
	}()
	p := Default()
	if p == nil || p.Workers() < 1 {
		t.Fatalf("Default() = %v", p)
	}
	if again := Default(); again != p {
		t.Fatalf("second Default() returned a different pool")
	}
	// Race the first-use path from several goroutines: exactly one CAS
	// wins and everyone observes the same pool.
	defaultPool.Store(nil)
	var wg sync.WaitGroup
	pools := make([]*Pool, 8)
	for i := range pools {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pools[i] = Default()
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(pools); i++ {
		if pools[i] != pools[0] {
			t.Fatalf("concurrent Default() returned distinct pools")
		}
	}
	pools[0].Close()
}

func TestDoBusyHelperRunsInline(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	block := make(chan struct{})
	started := make(chan struct{})
	// Occupy the single helper so Do's non-blocking hand-off fails and
	// the calling goroutine drains every task itself.
	p.jobs <- func() { close(started); <-block }
	<-started
	var ran atomic.Int64
	tasks := make([]func(), 16)
	for i := range tasks {
		tasks[i] = func() { ran.Add(1) }
	}
	p.Do(tasks)
	close(block)
	if got := ran.Load(); got != int64(len(tasks)) {
		t.Fatalf("ran %d tasks, want %d", got, len(tasks))
	}
}

func TestShardsFloorAtOne(t *testing.T) {
	// n <= 0 drives the clamp-to-n branch below 1; the floor restores it.
	if got := Shards(nil, -1, 0); got != 1 {
		t.Fatalf("Shards(nil, -1, 0) = %d, want 1", got)
	}
}

func TestEmptyWorkEarlyReturns(t *testing.T) {
	called := false
	ForEach(nil, 0, func(int) { called = true })
	Replicate(nil, 1, 0, 1, func(int, *rand.Rand) { called = true })
	ReplicateSetup(nil, 1, -1, 1, func() int { called = true; return 0 },
		func(int, *rand.Rand, int) { called = true })
	if called {
		t.Fatal("zero-size work invoked a body")
	}
	var nilPool *Pool
	nilPool.Do(nil) // n == 0 early return on a nil pool
}
