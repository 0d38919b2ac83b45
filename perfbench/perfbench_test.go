package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for perfbench when a run
// starts set-up probes, which re-execute the running program.
func TestMain(m *testing.M) {
	for _, a := range os.Args[1:] {
		if a == "--setup-probe" {
			os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
		}
	}
	os.Exit(m.Run())
}

// A stall in one request must count against every request queued
// behind it: latency runs from the due time, not the send time, and the
// generator's own lag stays small because it was the server, not the
// generator, that fell behind.
func TestOpenLoopCountsStallFromDueTime(t *testing.T) {
	const n, stall = 30, 3
	due := fixedRate(n, 200, nil) // every 5 ms
	r := openLoop(due, 1, func(i int) {
		d := time.Millisecond
		if i == stall {
			d = 60 * time.Millisecond
		}
		time.Sleep(d)
	})
	ms := func(d time.Duration) float64 { return d.Seconds() * 1e3 }
	if l := ms(r.latency(stall - 1)); l > 20 {
		t.Errorf("request before the stall: latency %.1f ms, want about 1 ms", l)
	}
	// Request stall+1 was due 5 ms after the stalled one and waited for
	// it: about 60 - 5 + 1 ms.
	if l := ms(r.latency(stall + 1)); l < 40 {
		t.Errorf("request behind the stall: latency %.1f ms, want >= 40 ms", l)
	}
	if l := ms(r.done[stall+1] - r.sent[stall+1]); l > 20 {
		t.Errorf("request behind the stall took %.1f ms once sent, want about 1 ms", l)
	}
	if g := ms(r.lag(stall + 1)); g > 20 {
		t.Errorf("generator lag %.1f ms for a request queued behind a busy connection, want about 0", g)
	}
	if l := ms(r.latency(n - 1)); l > 20 {
		t.Errorf("last request: latency %.1f ms; the backlog should have drained", l)
	}
	for i := 1; i < n; i++ {
		if r.sent[i] < r.due[i] {
			t.Fatalf("request %d sent %v before it was due %v", i, r.sent[i], r.due[i])
		}
	}
}

func TestFixedRateBurstPairsShareADueTime(t *testing.T) {
	due := fixedRate(5, 100, map[int]bool{2: true})
	want := []time.Duration{0, 10 * time.Millisecond, 10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond}
	for i := range want {
		if due[i] != want[i] {
			t.Fatalf("due = %v, want %v", due, want)
		}
	}
}

func TestSummarizeTailHasFiftySamplesBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	xs[500] = 1e6 // one stall, in place of 501
	if s := summarize(xs); s.tailQ != 0.95 || s.tail != 951 || s.max != 1e6 || s.p50 != 500 {
		t.Errorf("tail p%g=%g max=%g p50=%g; want p95=951, max=1e6, p50=500", s.tailQ*100, s.tail, s.max, s.p50)
	}
	small := summarize([]float64{5, 1, 4, 2, 3})
	if small.p50 != 3 || small.tailQ != 0.5 || small.tail != 3 {
		t.Errorf("five samples: p50=%g tail p%g=%g; the median should stand in for the tail", small.p50, small.tailQ*100, small.tail)
	}
}

func TestTailLevelNeedsFiftySamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5000, 0.99}, {4999, 0.95}, {1000, 0.95}, {999, 0.90}, {500, 0.90}, {499, 0.75}, {200, 0.75}, {199, 0.5}, {10, 0.5}} {
		if got := tailLevel(c.n); got != c.want {
			t.Errorf("tailLevel(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestChurnTrafficDeterministicWithFixedMix(t *testing.T) {
	gen := func(seed int64) *churnGen {
		return &churnGen{rng: rand.New(rand.NewSource(seed)), nextSeed: 1, variant: make(map[string]int)}
	}
	slots := 4 * len(churnBlock)
	a, sameA := gen(3).next(slots)
	b, sameB := gen(3).next(slots)
	if len(a) != len(b) || len(sameA) != len(sameB) {
		t.Fatal("same seed generated traffic of different shape")
	}
	for i := range a {
		if !bytes.Equal(a[i].body, b[i].body) || a[i].check != b[i].check || sameA[i] != sameB[i] {
			t.Fatalf("request %d differs between two generators with one seed", i)
		}
	}
	c, _ := gen(4).next(slots)
	differ := false
	for i := range c {
		differ = differ || !bytes.Equal(a[i].body, c[i].body)
	}
	if !differ {
		t.Fatal("different seeds generated identical traffic")
	}
	// Every block carries the same requests: 4 burst pairs add 4 to its
	// 32 slots, and the model mix does not depend on the seed.
	if len(a) != 4*36 || len(sameA) != 4*4 {
		t.Fatalf("%d requests, %d pair seconds over 4 blocks; want 144 and 16", len(a), len(sameA))
	}
	mix := func(calls []call) map[string]int {
		m := make(map[string]int)
		for _, cl := range calls {
			id := cl.req.ID
			if cl.req.Spec != nil {
				id = cl.req.Spec.ID
			}
			m[id]++
		}
		return m
	}
	ma, mc := mix(a), mix(c)
	for id, n := range ma {
		// Repeats re-send a recent key, so allow for them.
		if d := n - mc[id]; d > 16 || d < -16 {
			t.Errorf("%s: %d requests with seed 3, %d with seed 4", id, n, mc[id])
		}
	}
	for i := range sameA {
		if !bytes.Equal(a[i].body, a[i-1].body) {
			t.Errorf("burst pair at %d does not repeat its key", i)
		}
	}
}

// Every block has its heavy slots at the same evenly spaced positions,
// whatever the seed, and the rest of churnBlock shuffled between them.
func TestChurnBlockSpacesHeavySlots(t *testing.T) {
	count := func(block []churnSlot) map[churnSlot]int {
		m := make(map[churnSlot]int)
		for _, s := range block {
			m[s]++
		}
		return m
	}
	want := count(churnBlock)
	heavyPerBlock := 0
	for s, n := range want {
		if s.id == heavyID {
			heavyPerBlock += n
		}
	}
	step := len(churnBlock) / heavyPerBlock
	orders := make(map[string]bool)
	for seed := int64(0); seed < 20; seed++ {
		g := &churnGen{rng: rand.New(rand.NewSource(seed))}
		block := g.arrange()
		got := count(block)
		if len(got) != len(want) {
			t.Fatalf("seed %d: block has %d kinds of slot, churnBlock %d", seed, len(got), len(want))
		}
		for s, n := range want {
			if got[s] != n {
				t.Fatalf("seed %d: %d of %v, churnBlock has %d", seed, got[s], s, n)
			}
		}
		heavy := 0
		for i, s := range block {
			if s.id != heavyID {
				continue
			}
			heavy++
			if i%step != 0 {
				t.Errorf("seed %d: heavy slot at %d, want every %d slots from 0", seed, i, step)
			}
		}
		if heavy != heavyPerBlock {
			t.Errorf("seed %d: %d heavy slots, want %d", seed, heavy, heavyPerBlock)
		}
		orders[fmt.Sprint(block)] = true
	}
	if len(orders) < 2 {
		t.Error("every seed arranged the block the same way")
	}
}

// protoBuf hand-encodes the profile.proto messages the folding reads.
type protoBuf struct{ b []byte }

func (p *protoBuf) varint(field int, v uint64) {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3)
	p.b = binary.AppendUvarint(p.b, v)
}

func (p *protoBuf) bytes(field int, v []byte) {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(v)))
	p.b = append(p.b, v...)
}

func (p *protoBuf) packed(field int, vs ...uint64) {
	var q []byte
	for _, v := range vs {
		q = binary.AppendUvarint(q, v)
	}
	p.bytes(field, q)
}

// handProfile builds a gzipped CPU profile whose samples have the given
// stacks (function names, leaf first) and CPU nanoseconds. Each
// function gets one location, except that stacks[0]'s first two frames
// share a location as an inlined pair, and samples alternate between
// packed and unpacked encodings.
func handProfile(t *testing.T, stacks [][]string, ns []uint64) []byte {
	var prof protoBuf
	strs := []string{""}
	funcID := map[string]uint64{}
	fn := func(name string) uint64 {
		if id, ok := funcID[name]; ok {
			return id
		}
		strs = append(strs, name)
		id := uint64(len(funcID) + 1)
		funcID[name] = id
		var f protoBuf
		f.varint(1, id)
		f.varint(2, uint64(len(strs)-1))
		prof.bytes(5, f.b)
		return id
	}
	nextLoc := uint64(0)
	location := func(names ...string) uint64 {
		nextLoc++
		var l protoBuf
		l.varint(1, nextLoc)
		for _, n := range names {
			var line protoBuf
			line.varint(1, fn(n))
			l.bytes(4, line.b)
		}
		prof.bytes(4, l.b)
		return nextLoc
	}
	for i, st := range stacks {
		var locs []uint64
		frames := st
		if i == 0 && len(st) >= 2 {
			locs = append(locs, location(st[0], st[1]))
			frames = st[2:]
		}
		for _, f := range frames {
			locs = append(locs, location(f))
		}
		var s protoBuf
		if i%2 == 0 {
			s.packed(1, locs...)
			s.packed(2, ns[i]/1e7, ns[i])
		} else {
			for _, l := range locs {
				s.varint(1, l)
			}
			s.varint(2, ns[i]/1e7)
			s.varint(2, ns[i])
		}
		prof.bytes(2, s.b)
	}
	for _, s := range strs {
		prof.bytes(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(prof.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

func TestFoldProfileChargesInnermostInternalFrame(t *testing.T) {
	stacks := [][]string{
		// Inlined allocation inside msg, called from sim: charged to msg.
		{"runtime.mallocgc", "northstar/internal/msg.(*Rank).ISend", "northstar/internal/sim.(*Kernel).Run", "runtime.goexit"},
		{"northstar/internal/sim.(*Kernel).Run", "northstar/internal/experiments.(*ScenarioSpec).RunOn", "main.main"},
		{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"},
		{"runtime.futex", "runtime.findRunnable", "runtime.schedule"},
		{"encoding/json.Marshal", "main.(*serveBench).do"},
		{"net/http.(*persistConn).readLoop", "runtime.goexit"},
		{"northstar/internal/newpkg.F"},
	}
	ns := []uint64{40e6, 20e6, 10e6, 10e6, 10e6, 5e6, 5e6}
	shares, err := foldProfile(handProfile(t, stacks, ns))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"msg": 40, "sim": 20, "runtime.gc": 10, "runtime.other": 10, "bench": 10, "std": 5, "other": 5,
	}
	total := 0.0
	for b, v := range shares {
		total += v
		if math.Abs(v-want[b]) > 1e-9 {
			t.Errorf("cpu.%s = %g%%, want %g%%", b, v, want[b])
		}
	}
	if math.Abs(total-100) > 1e-9 {
		t.Errorf("shares sum to %g%%", total)
	}
	if len(shares) != len(cpuPackages)+len(cpuBuckets) {
		t.Errorf("%d buckets, want every package and bucket listed", len(shares))
	}
}

func TestFoldProfileRejectsGarbage(t *testing.T) {
	if _, err := foldProfile([]byte("not a profile")); err == nil {
		t.Fatal("folded a non-gzip profile")
	}
}

func TestSplitTablesRoundTrips(t *testing.T) {
	out := []byte("== E1: one ==\na\n\n== E2: two: more ==\nb\n\n")
	segs := splitTables(out)
	if string(segs["E1"]) != "== E1: one ==\na\n\n" || string(segs["E2"]) != "== E2: two: more ==\nb\n\n" || len(segs) != 2 {
		t.Fatalf("segments = %q", segs)
	}
}

// benchmarkSpec is BENCHMARK.json's metric lists.
type benchmarkSpec struct {
	Command   []string `json:"command"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readBenchmarkSpec(t *testing.T) benchmarkSpec {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// runResult runs perfbench in-process against the repository and
// returns its final JSON line.
func runResult(t *testing.T, args ...string) (res struct {
	Correct           bool
	Attempted, Failed int
	Metrics           map[string]metric
}) {
	t.Helper()
	var out, errOut bytes.Buffer
	if code := run(append(args, "--root", ".."), &out, &errOut); code != 0 {
		t.Fatalf("perfbench %v exited %d: %s", args, code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, out.String())
	}
	t.Logf("%s", out.String())
	return res
}

func checkMetrics(t *testing.T, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%d metrics reported, BENCHMARK.json lists %d", len(got), len(want))
	}
	for _, m := range want {
		g, ok := got[m.Name]
		if !ok {
			t.Errorf("metric %s missing", m.Name)
			continue
		}
		if g.Unit != m.Unit {
			t.Errorf("metric %s in %s, BENCHMARK.json says %s", m.Name, g.Unit, m.Unit)
		}
	}
}

// Smoke runs of every workload, untraced and traced: outputs check out
// (error ratio 0) and each run reports exactly the metrics
// BENCHMARK.json lists, every one a number.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the suite and the service")
	}
	spec := readBenchmarkSpec(t)
	for _, w := range spec.Workloads {
		if !slices.Contains(workloads, w.Name) {
			t.Fatalf("BENCHMARK.json workload %s is not one perfbench runs (%v)", w.Name, workloads)
		}
	}
	for _, c := range []struct {
		workload, trace string
		want            []struct{ Name, Unit string }
	}{
		{"suite", "0", spec.EndToEnd},
		{"serve_churn", "0", spec.EndToEnd},
		{"suite", "1", spec.PerLayer},
		{"serve_churn", "1", spec.PerLayer},
	} {
		t.Run(c.workload+"/trace="+c.trace, func(t *testing.T) {
			res := runResult(t, "--workload", c.workload, "--seed", "3", "--seconds", "1", "--trace", c.trace)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("correct=%v failed=%d attempted=%d, want an error ratio of 0", res.Correct, res.Failed, res.Attempted)
			}
			checkMetrics(t, res.Metrics, c.want)
		})
	}
}

func TestRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "suite", "--trace", "2"},
		{"--workload", "suite", "--seconds", "0"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q; want a failure and no result", args, code, out.String())
		}
	}
}
