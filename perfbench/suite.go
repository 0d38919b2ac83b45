package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"northstar/internal/experiments"
	"northstar/internal/mc"
	"northstar/internal/obs"
)

// spanIDs are the experiments whose traced full-mode time is at least
// 10 ms on the reference host; each gets an experiments.spec_s.<ID>
// metric.
var spanIDs = []string{"E4", "E5", "E6", "E6b", "E7", "E8", "E10", "E11", "X1", "X2", "X6", "X7"}

// suiteBench runs the full-mode reproduction suite strictly
// sequentially — one runner worker and a default mc pool with no
// helpers — pass after pass, in a seeded spec order, and checks every
// pass's tables byte for byte against the committed reference output.
type suiteBench struct {
	specs []experiments.Spec // canonical order, Run wrapped in a span
	ref   [][]byte           // reference table bytes, parallel to specs
	order *rand.Rand
	spans []float64 // last pass's span per spec, parallel to specs

	warmFailed bool
}

// passResult is one suite pass.
type passResult struct {
	cost   delta
	ok     bool
	spans  []float64 // seconds per spec, canonical order
	events uint64    // kernel events fired (observed passes only)
}

// newSuite loads the reference output, pins the Monte Carlo default
// pool to zero helpers, and runs one checked warm-up pass so lazy
// initialization is done before anything is timed.
func newSuite(root string, seed int64) (*suiteBench, error) {
	raw, err := os.ReadFile(filepath.Join(root, "results", "full_output.txt"))
	if err != nil {
		return nil, fmt.Errorf("suite reference: %w", err)
	}
	segs := splitTables(raw)
	mc.SetDefaultWorkers(0)
	s := &suiteBench{order: rand.New(rand.NewSource(seed))}
	var joined []byte
	for i, sp := range experiments.All() {
		ref, ok := segs[sp.ID]
		if !ok {
			return nil, fmt.Errorf("suite reference has no table for %s", sp.ID)
		}
		run := sp.Run
		sp.Run = func(quick bool) (*experiments.Table, error) {
			t0 := time.Now()
			t, err := run(quick)
			s.spans[i] = time.Since(t0).Seconds()
			return t, err
		}
		s.specs = append(s.specs, sp)
		s.ref = append(s.ref, ref)
		joined = append(joined, ref...)
	}
	if !bytes.Equal(joined, raw) {
		return nil, fmt.Errorf("suite reference holds tables beyond the %d experiments", len(s.specs))
	}
	s.spans = make([]float64, len(s.specs))
	s.warmFailed = !s.pass(nil).ok
	return s, nil
}

func (s *suiteBench) setupOps() (attempted, failed int) {
	if s.warmFailed {
		return 1, 1
	}
	return 1, 0
}

func (s *suiteBench) close() {}

// window runs passes for about seconds, at least one; traced passes run
// under the process's suite observer, untraced ones each after
// calibration slices.
func (s *suiteBench) window(seconds float64, traced bool) windowStats {
	var o *obs.SuiteObserver
	if traced {
		o = suiteObserver()
	}
	w := s.passes(seconds, o)
	ws := windowStats{
		ops:        len(w.passes),
		failed:     w.failed(),
		lat:        w.perPass(func(p passResult) float64 { return p.cost.wall }),
		lag:        w.gaps,
		calib:      w.calib,
		cost:       w.cost,
		perOpCPU:   w.perPass(func(p passResult) float64 { return p.cost.cpu }),
		perOpAlloc: w.perPass(func(p passResult) float64 { return p.cost.alloc }),
	}
	for _, p := range w.passes {
		ws.rate += p.cost.wall
	}
	ws.rate = float64(len(w.passes)) / ws.rate
	if traced {
		for _, p := range w.passes {
			ws.events += p.events
		}
		ws.spans = s.spanMedians(w)
	}
	return ws
}

// splitTables cuts suite output into per-experiment tables keyed by ID.
// Each table starts with a "== ID: title ==" line.
func splitTables(out []byte) map[string][]byte {
	segs := make(map[string][]byte)
	var starts []int
	for i := 0; i < len(out); {
		if bytes.HasPrefix(out[i:], []byte("== ")) {
			starts = append(starts, i)
		}
		nl := bytes.IndexByte(out[i:], '\n')
		if nl < 0 {
			break
		}
		i += nl + 1
	}
	for k, st := range starts {
		end := len(out)
		if k+1 < len(starts) {
			end = starts[k+1]
		}
		head := out[st+3:]
		colon := bytes.IndexByte(head, ':')
		if colon < 0 {
			continue
		}
		segs[string(head[:colon])] = out[st:end]
	}
	return segs
}

// pass runs every experiment once, in a fresh seeded order, through the
// suite runner with one worker. o, when non-nil, observes the pass.
func (s *suiteBench) pass(o *obs.SuiteObserver) passResult {
	perm := s.order.Perm(len(s.specs))
	specs := make([]experiments.Spec, len(perm))
	var want bytes.Buffer
	for i, j := range perm {
		specs[i] = s.specs[j]
		want.Write(s.ref[j])
	}
	var before map[string]int64
	if o != nil {
		before = firedBySpec(o)
	}
	var out bytes.Buffer
	out.Grow(want.Len())
	u0 := readUsage()
	_, err := experiments.RunSpecs(&out, specs, experiments.Options{Workers: 1, Observer: o})
	r := passResult{cost: readUsage().since(u0)}
	r.ok = err == nil && bytes.Equal(out.Bytes(), want.Bytes())
	r.spans = append([]float64(nil), s.spans...)
	if o != nil {
		for id, n := range firedBySpec(o) {
			r.events += uint64(n - before[id])
		}
	}
	return r
}

// firedBySpec reads the cumulative kernel events each experiment's
// observer scope has recorded.
func firedBySpec(o *obs.SuiteObserver) map[string]int64 {
	m := make(map[string]int64)
	for _, sc := range o.Registry().Snapshot().Scopes {
		if n, ok := sc.Counters["events_fired"]; ok && sc.Name != "suite" {
			m[sc.Name] = n
		}
	}
	return m
}

// suiteWindow is the record of passes run for a stretch of time.
type suiteWindow struct {
	passes []passResult
	gaps   []float64 // harness seconds between a pass's turn and its timed start
	calib  []float64 // calibration slices, unobserved windows only
	cost   delta     // the passes' cost, calibration excluded
}

// passes runs passes until seconds have elapsed (the pass in progress
// finishes), at least one. Without an observer each pass follows
// calibration slices.
func (s *suiteBench) passes(seconds float64, o *obs.SuiteObserver) suiteWindow {
	var w suiteWindow
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for len(w.passes) == 0 || time.Now().Before(deadline) {
		if o == nil {
			w.calib = calibrateInto(w.calib, 1)
		}
		start := time.Now()
		u0 := readUsage()
		w.gaps = append(w.gaps, u0.wall.Sub(start).Seconds())
		p := s.pass(o)
		w.passes = append(w.passes, p)
		w.cost = w.cost.plus(readUsage().since(u0))
	}
	return w
}

func (w suiteWindow) failed() int {
	n := 0
	for _, p := range w.passes {
		if !p.ok {
			n++
		}
	}
	return n
}

func (w suiteWindow) perPass(f func(passResult) float64) []float64 {
	xs := make([]float64, len(w.passes))
	for i, p := range w.passes {
		xs[i] = f(p)
	}
	return xs
}

// spanMedians is the median span of each experiment over the window's
// passes, keyed by ID.
func (s *suiteBench) spanMedians(w suiteWindow) map[string]float64 {
	out := make(map[string]float64, len(s.specs))
	for i, sp := range s.specs {
		out[sp.ID] = median(w.perPass(func(p passResult) float64 { return p.spans[i] }))
	}
	return out
}
