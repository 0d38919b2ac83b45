package sim

import (
	"testing"
	"testing/quick"
)

func TestResourceGrantsImmediatelyWhenFree(t *testing.T) {
	k := New(1)
	r := NewResource(k, 2)
	var grantedAt Time = -1
	r.Acquire(1, func(release func()) {
		grantedAt = k.Now()
		release()
	})
	k.Run()
	if grantedAt != 0 {
		t.Fatalf("granted at %v, want 0", grantedAt)
	}
	if r.InUse() != 0 {
		t.Fatalf("InUse = %d after release", r.InUse())
	}
}

func TestResourceBlocksWhenFull(t *testing.T) {
	k := New(1)
	r := NewResource(k, 1)
	var secondAt Time = -1
	k.Go(func(p *Proc) {
		rel := r.AcquireProc(p, 1)
		p.Wait(10)
		rel()
	})
	k.Go(func(p *Proc) {
		p.Wait(1)
		rel := r.AcquireProc(p, 1)
		secondAt = p.Now()
		rel()
	})
	k.Run()
	if secondAt != 10 {
		t.Fatalf("second acquire at %v, want 10", secondAt)
	}
}

func TestResourceFCFSNoOvertaking(t *testing.T) {
	k := New(1)
	r := NewResource(k, 2)
	var order []int
	// Holder takes both units until t=5.
	k.Go(func(p *Proc) {
		rel := r.AcquireProc(p, 2)
		p.Wait(5)
		rel()
	})
	// Big request (2 units) arrives at t=1, small (1 unit) at t=2.
	// FCFS means the small request must NOT overtake the big one.
	k.Go(func(p *Proc) {
		p.Wait(1)
		rel := r.AcquireProc(p, 2)
		order = append(order, 2)
		p.Wait(1)
		rel()
	})
	k.Go(func(p *Proc) {
		p.Wait(2)
		rel := r.AcquireProc(p, 1)
		order = append(order, 1)
		rel()
	})
	k.Run()
	if len(order) != 2 || order[0] != 2 || order[1] != 1 {
		t.Fatalf("grant order = %v, want [2 1]", order)
	}
}

func TestResourceOverCapacityPanics(t *testing.T) {
	k := New(1)
	r := NewResource(k, 2)
	defer func() {
		if recover() == nil {
			t.Error("acquiring more than capacity did not panic")
		}
	}()
	r.Acquire(3, func(func()) {})
}

func TestResourceDoubleReleasePanics(t *testing.T) {
	k := New(1)
	r := NewResource(k, 1)
	r.Acquire(1, func(release func()) {
		release()
		defer func() {
			if recover() == nil {
				t.Error("double release did not panic")
			}
		}()
		release()
	})
	k.Run()
}

// Property: with random hold times and request sizes, in-use never exceeds
// capacity and every request is eventually granted and released.
func TestResourceConservationProperty(t *testing.T) {
	prop := func(seed int64, rawCap uint8) bool {
		capacity := int(rawCap%8) + 1
		k := New(seed)
		r := NewResource(k, capacity)
		rng := k.Rand()
		granted, released := 0, 0
		ok := true
		const n = 50
		for i := 0; i < n; i++ {
			units := 1 + rng.Intn(capacity)
			start := Time(rng.Float64() * 10)
			hold := Time(rng.Float64())
			k.At(start, func() {
				r.Acquire(units, func(release func()) {
					granted++
					if r.InUse() > capacity {
						ok = false
					}
					k.After(hold, func() {
						released++
						release()
					})
				})
			})
		}
		k.Run()
		return ok && granted == n && released == n && r.InUse() == 0 && r.Queued() == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestQueueFIFO(t *testing.T) {
	k := New(1)
	q := NewQueue[int](k)
	var got []int
	for i := 0; i < 5; i++ {
		q.Put(i)
	}
	for i := 0; i < 5; i++ {
		q.Get(func(v int) { got = append(got, v) })
	}
	k.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("queue not FIFO: %v", got)
		}
	}
}

func TestQueueBlocksConsumer(t *testing.T) {
	k := New(1)
	q := NewQueue[string](k)
	var gotAt Time = -1
	var got string
	k.Go(func(p *Proc) {
		got = q.GetProc(p)
		gotAt = p.Now()
	})
	k.At(7, func() { q.Put("x") })
	k.Run()
	if got != "x" || gotAt != 7 {
		t.Fatalf("got %q at %v, want x at 7", got, gotAt)
	}
}

func TestQueueMultipleConsumersFIFO(t *testing.T) {
	k := New(1)
	q := NewQueue[int](k)
	var by [2][]int
	for c := 0; c < 2; c++ {
		c := c
		k.Go(func(p *Proc) {
			for i := 0; i < 2; i++ {
				by[c] = append(by[c], q.GetProc(p))
			}
		})
	}
	k.At(1, func() {
		for i := 0; i < 4; i++ {
			q.Put(i)
		}
	})
	k.Run()
	total := len(by[0]) + len(by[1])
	if total != 4 {
		t.Fatalf("consumed %d items, want 4", total)
	}
	// Consumer 0 registered first, so it gets items 0 then 2 (alternating
	// FIFO service between the two waiting readers after re-registration).
	if by[0][0] != 0 {
		t.Fatalf("first consumer's first item = %d, want 0", by[0][0])
	}
}

func TestResourceAccessors(t *testing.T) {
	k := New(1)
	r := NewResource(k, 3)
	if got := r.Capacity(); got != 3 {
		t.Errorf("Capacity() = %d, want 3", got)
	}
	q := NewQueue[int](k)
	if got := q.Len(); got != 0 {
		t.Errorf("empty Queue Len() = %d", got)
	}
	q.Put(42)
	if got := q.Len(); got != 1 {
		t.Errorf("Queue Len() = %d after Put, want 1", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("NewResource with capacity 0 did not panic")
		}
	}()
	NewResource(k, 0)
}
