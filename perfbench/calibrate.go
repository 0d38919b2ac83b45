package main

import (
	"container/heap"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Host speed on a shared machine drifts by a third and more over tens of
// minutes, and it moves CPU time as well as wall time, so raw times from
// two sets of runs disagree beyond any useful bound. Every timed
// end-to-end figure is therefore reported at reference speed: the raw
// time scaled by calRef over the time of a fixed calibration load,
// measured in slices between the workload's own operations in the same
// process (set-up times, measured just before, are scaled by the same
// figure). Single slices are noisy (an interquartile spread of a fifth
// on the reference host, with or without the collector, in wall or CPU
// time), so a run spends about a fifth of its time calibrating and takes
// the interquartile mean of its slices. A slice runs as many copies of
// the load in parallel as the workload keeps CPUs busy — one beside the
// sequential suite, nproc beside the service — because the host can slow
// one vCPU and not the other. The calibration is benchmark code, not
// program code, so a change to the program never moves it; host-speed
// drift moves both and cancels.

// calRef is the calibration time that defines reference speed: a
// normalized figure is what the raw one would read on a host where one
// calibration slice takes calRef.
const calRef = 100 * time.Millisecond

// calEvents is the work of one copy of the calibration load. It takes
// about calRef on a 2-vCPU Xeon VM in a quiet hour.
const calEvents = 200_000

// calEvent is one entry of the calibration's event queue.
type calEvent struct {
	at      float64
	payload []byte
}

type calQueue []*calEvent

func (q calQueue) Len() int           { return len(q) }
func (q calQueue) Less(i, j int) bool { return q[i].at < q[j].at }
func (q calQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *calQueue) Push(x any)        { *q = append(*q, x.(*calEvent)) }
func (q *calQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

// calSlicesPerOp is how many calibration slices run before each suite
// pass or serve_churn stretch.
const calSlicesPerOp = 4

// calibrateInto appends calSlicesPerOp calibration slices of width
// parallel copies to calib, each slice the wall seconds until every copy
// is done. Each starts from a freshly collected heap so the collector's
// phase, left over from whatever ran before, does not leak into it.
func calibrateInto(calib []float64, width int) []float64 {
	for i := 0; i < calSlicesPerOp; i++ {
		runtime.GC()
		t0 := time.Now()
		var wg sync.WaitGroup
		for c := 0; c < width; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				calibrate()
			}()
		}
		wg.Wait()
		calib = append(calib, time.Since(t0).Seconds())
	}
	return calib
}

// calSink keeps the calibration's result alive.
var calSink atomic.Int64

// calibrate runs one copy of the calibration load. The load is shaped like the simulator's: a pointer heap of pending
// events popped and rescheduled with a fresh small allocation each,
// map updates, a stream of retained buffers that the collector must
// trace and free, and a sort. Its work is fixed: the same on every call
// and every seed.
func calibrate() {
	rng := rand.New(rand.NewSource(1))
	q := make(calQueue, 0, 4096)
	for i := 0; i < 4096; i++ {
		q = append(q, &calEvent{at: rng.Float64()})
	}
	heap.Init(&q)
	counts := make(map[int]int)
	var kept [][]byte
	for i := 0; i < calEvents; i++ {
		e := heap.Pop(&q).(*calEvent)
		e.at += rng.Float64()
		e.payload = make([]byte, 48)
		heap.Push(&q, e)
		counts[i&65535] += i
		if i%64 == 0 {
			kept = append(kept, make([]byte, 512))
			if len(kept) > 2000 {
				kept = kept[1000:]
			}
		}
	}
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = rng.Float64()
	}
	sort.Float64s(xs)
	calSink.Add(int64(len(counts)+len(kept)) + int64(xs[0]*1e6))
}

// speedScale is the factor that turns a raw time measured alongside the
// calibration slices into a time at reference speed; its inverse turns
// a raw rate into a rate at reference speed.
func speedScale(calib []float64) float64 {
	return calRef.Seconds() / interquartileMean(calib)
}

// interquartileMean is the mean of the middle half of xs: steadier than
// the median, and as deaf to a few slices a host hiccup stretched.
func interquartileMean(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	lo, hi := len(s)/4, len(s)-len(s)/4
	sum := 0.0
	for _, x := range s[lo:hi] {
		sum += x
	}
	return sum / float64(hi-lo)
}
