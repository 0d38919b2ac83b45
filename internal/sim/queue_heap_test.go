package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// assertReferenceOrder schedules the given offsets on a fresh kernel,
// runs it, and requires the fire order to match the reference: the
// scheduling indexes sorted stably by offset, which is the (at, seq)
// total order the kernel promises.
func assertReferenceOrder(t *testing.T, offsets []Time) {
	t.Helper()
	k := New(1)
	got := make([]int, 0, len(offsets))
	for i, d := range offsets {
		i := i
		k.After(d, func() { got = append(got, i) })
	}
	k.Run()
	want := make([]int, len(offsets))
	for i := range want {
		want[i] = i
	}
	sort.SliceStable(want, func(a, b int) bool { return offsets[want[a]] < offsets[want[b]] })
	if len(got) != len(want) {
		t.Fatalf("fired %d events, scheduled %d", len(got), len(want))
	}
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("fire order diverged from reference at position %d: event %d, want %d", j, got[j], want[j])
		}
	}
}

// TestKernelFarTailOrder schedules a far-flung tail (offsets spread over
// ~11 virtual days) with duplicate timestamps, so the (at, seq)
// tie-break is exercised among entries far apart in the heap.
func TestKernelFarTailOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	offsets := make([]Time, 0, 64)
	for i := 0; i < 64; i++ {
		offsets = append(offsets, Time(rng.Float64()*1e6)*Second)
	}
	offsets = append(offsets, offsets[3], offsets[17], offsets[3])
	assertReferenceOrder(t, offsets)
}

// TestKernelDenseOrder packs 1e4+ pending events into one second, deep
// enough that sift chains span several heap levels.
func TestKernelDenseOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	offsets := make([]Time, 0, 12_000)
	for i := 0; i < cap(offsets); i++ {
		offsets = append(offsets, Time(rng.Float64())*Second)
	}
	assertReferenceOrder(t, offsets)
}

// TestKernelAllSameTimeOrder schedules every event at one future
// instant: the heap must fire them in pure FIFO order.
func TestKernelAllSameTimeOrder(t *testing.T) {
	offsets := make([]Time, 100)
	for i := range offsets {
		offsets[i] = Hour
	}
	assertReferenceOrder(t, offsets)
}

// TestKernelCompactAfterFire fires one event before a cancellation storm
// on half the remaining schedule: Cancel must compact once dead entries
// outnumber live ones past compactMin, without disturbing the fire order
// of the survivors.
func TestKernelCompactAfterFire(t *testing.T) {
	const n = 200
	k := New(7)
	fired := make([]int, 0, n)
	handles := make([]Handle, n)
	for i := 0; i < n; i++ {
		i := i
		handles[i] = k.At(Time(i+1)*Microsecond, func() { fired = append(fired, i) })
	}
	k.Step()
	cancelled := 0
	for i := 1; i < n; i += 2 {
		if handles[i].Cancel() {
			cancelled++
		}
	}
	if handles[1].Cancel() {
		t.Fatal("double Cancel reported pending")
	}
	if k.q.size() >= compactMin && k.dead*2 > k.q.size() {
		t.Fatalf("compaction did not trigger: dead=%d size=%d", k.dead, k.q.size())
	}
	k.Run()
	if want := 1 + (n - 1 - cancelled); len(fired) != want {
		t.Fatalf("fired %d events, want %d", len(fired), want)
	}
	for j := 1; j < len(fired); j++ {
		if fired[j] <= fired[j-1] {
			t.Fatalf("fire order broken at %d: %d after %d", j, fired[j], fired[j-1])
		}
	}
}

// TestKernelCancelAndCompactAtDepth cancels two of every three events of
// a bimodal schedule (a dense near cluster plus a far tail): Live must
// stay truthful through lazy deletion and compaction, and the survivors
// must fire in reference order.
func TestKernelCancelAndCompactAtDepth(t *testing.T) {
	k := New(1)
	rng := rand.New(rand.NewSource(11))
	var offsets []Time
	for i := 0; i < 500; i++ {
		offsets = append(offsets, Time(rng.Float64())*Second)
	}
	for i := 0; i < 100; i++ {
		offsets = append(offsets, Time(1e5+rng.Float64()*1e5)*Second)
	}
	var fired []int
	handles := make([]Handle, len(offsets))
	for i, d := range offsets {
		i := i
		handles[i] = k.After(d, func() { fired = append(fired, i) })
	}
	var want []int
	for i := range handles {
		if i%3 != 0 {
			if !handles[i].Cancel() {
				t.Fatalf("Cancel of pending event %d reported not pending", i)
			}
		} else {
			want = append(want, i)
		}
	}
	if got := k.Live(); got != len(want) {
		t.Fatalf("Live() = %d after cancelling two thirds of %d, want %d", got, len(handles), len(want))
	}
	if k.Pending() >= len(handles) {
		t.Fatalf("no compaction: %d entries pending for %d live", k.Pending(), len(want))
	}
	sort.SliceStable(want, func(a, b int) bool { return offsets[want[a]] < offsets[want[b]] })
	k.Run()
	if len(fired) != len(want) {
		t.Fatalf("fired %d, want %d", len(fired), len(want))
	}
	for j := range want {
		if fired[j] != want[j] {
			t.Fatalf("survivor order diverged at %d: event %d, want %d", j, fired[j], want[j])
		}
	}
}

// TestKernelResetReplaysAtDepth runs a deep schedule, resets, and runs
// it again: the second run must replay the first exactly.
func TestKernelResetReplaysAtDepth(t *testing.T) {
	k := New(42)
	run := func() []Time {
		rng := rand.New(rand.NewSource(7))
		var times []Time
		for i := 0; i < 1500; i++ {
			k.After(Time(rng.Float64())*Second, func() { times = append(times, k.Now()) })
		}
		k.Run()
		return times
	}
	first := run()
	k.Reset()
	second := run()
	if len(first) != len(second) {
		t.Fatalf("replay fired %d events, first run %d", len(second), len(first))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("replay diverged at event %d: %v vs %v", i, second[i], first[i])
		}
	}
}

// TestKernelZeroAllocSteadyState pins the heap's steady state: at 1e4+
// pending events, a warmed-up kernel schedules and fires without
// allocating — the heap array and the payload free list are reused.
func TestKernelZeroAllocSteadyState(t *testing.T) {
	k := New(1)
	rng := rand.New(rand.NewSource(7))
	n := 0
	const depth = 10_000
	var fn func()
	fn = func() {
		if n > 0 {
			n--
			k.After(Time(rng.Float64())*Millisecond, fn)
		}
	}
	churn := func(events int) {
		n = events
		for i := 0; i < depth; i++ {
			k.After(Time(rng.Float64())*Millisecond, fn)
		}
		k.Run()
	}
	churn(50_000) // warm-up: heap capacity and free list reach the high-water mark
	allocs := testing.AllocsPerRun(5, func() { churn(50_000) })
	if allocs > 0 {
		t.Fatalf("steady state allocates: %.1f allocs per 50k-event run", allocs)
	}
}
