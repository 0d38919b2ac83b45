// Command bench measures the repository's perf-critical paths — the
// event kernel, the experiment suite, and the sharded Monte Carlo engine
// — and writes the results as JSON (BENCH_runner.json at the repo root;
// regenerate with scripts/bench.sh). The JSON seeds the repo's perf
// trajectory: each perf PR reruns it and the numbers must not regress.
//
// Usage:
//
//	bench                      # full-scale suite, 2M kernel events
//	bench -quick               # CI-scale suite
//	bench -events 500000       # shorter kernel run
//	bench -par 4               # parallel suite worker count (0 = CPUs)
//	bench -o out.json          # write somewhere else ("-" for stdout)
//
// Wall-clock numbers are host-dependent; the committed file records the
// reference container.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"time"

	"northstar/internal/experiments"
	"northstar/internal/fault"
	"northstar/internal/machine"
	"northstar/internal/mc"
	"northstar/internal/network"
	"northstar/internal/node"
	"northstar/internal/obs"
	"northstar/internal/sim"
	"northstar/internal/stats"
	"northstar/internal/tech"
	"northstar/internal/topology"
)

// benchSchema is the report schema version. v8 dropped the queue and
// seed_baseline sections (the kernel has one event queue; the seed
// figures live in CHANGES.md). v7 rebased the long-pole baseline to the
// committed v6 numbers. v6 added the serve section (scenario-service
// load: cached vs uncached qps and latency percentiles, `bench -serve`).
const benchSchema = "northstar-bench/v8"

// Report is the schema of BENCH_runner.json (northstar-bench/v8; the
// schema is documented in EXPERIMENTS.md). Kernel is the unobserved
// (nil-probe) hot path; KernelProbed repeats the measurement with an
// obs.KernelProbe attached, pinning the enabled-observability overhead
// and proving the disabled path stays allocation-free. Fabric and
// FabricProbed make the same nil-vs-attached claim for the model-level
// domain probe on a packet-fabric send chain (`bench -probeguard`
// holds the gap under 10%). Memory records bytes/node for machine+topology
// builds at growing scale — the budget ROADMAP item 2 tracks. Shards
// measures the Monte Carlo shard engine on the suite's slowest
// replication loop.
// LongPoles records the long-pole attack (committed v6 baseline vs this
// run) — see LongPoleDelta.
type Report struct {
	Schema       string        `json:"schema"`
	Generated    string        `json:"generated_by"`
	Host         HostInfo      `json:"host"`
	Kernel       KernelRes     `json:"kernel"`
	KernelProbed KernelRes     `json:"kernel_probed"`
	Fabric       KernelRes     `json:"fabric"`
	FabricProbed KernelRes     `json:"fabric_probed"`
	Memory       MemoryRes     `json:"memory"`
	Suite        SuiteRes      `json:"suite"`
	Shards       ShardRes      `json:"shard_scaling"`
	Serve        ServeRes      `json:"serve"`
	LongPoles    LongPoleDelta `json:"long_pole_delta"`
}

// MemoryRes reports heap cost per simulated node for machine builds at
// growing scale (the memory ceiling is the enemy of the 10^5-10^6 node
// goal; this is its budget line).
type MemoryRes struct {
	Model  string        `json:"model"`
	Points []MemoryPoint `json:"points"`
}

// MemoryPoint is one machine-build measurement: settled heap growth
// (GC forced before each read) attributable to the build.
type MemoryPoint struct {
	Nodes        int     `json:"nodes"`
	HeapBytes    uint64  `json:"heap_bytes"`
	BytesPerNode float64 `json:"bytes_per_node"`
}

// HostInfo identifies the measuring host; wall-clock numbers are only
// comparable within one host.
type HostInfo struct {
	Go         string `json:"go"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// KernelRes reports event-kernel throughput (the hot path of every
// simulation in the repo).
type KernelRes struct {
	Events         int     `json:"events"`
	NsPerEvent     float64 `json:"ns_per_event"`
	AllocsPerEvent float64 `json:"allocs_per_event"`
	BytesPerEvent  float64 `json:"bytes_per_event"`
}

// SuiteRes reports experiment-suite wall clock, sequential vs parallel.
// SpecSeconds is the per-spec breakdown from an observed sequential run
// (the numbers behind the Spec.Cost scheduling hints), and LongPoles
// names its top five — the specs future perf PRs should target.
// Efficiency normalizes Speedup by min(workers, NumCPU): on a 1-CPU
// host a ~1.0x speedup at efficiency ~1.0 means the pool is doing its
// job and the host, not the runner, is the bottleneck.
type SuiteRes struct {
	Quick              bool               `json:"quick"`
	Experiments        int                `json:"experiments"`
	SequentialSeconds  float64            `json:"sequential_seconds"`
	ParallelWorkers    int                `json:"parallel_workers"`
	ParallelSeconds    float64            `json:"parallel_seconds"`
	Speedup            float64            `json:"speedup"`
	ParallelEfficiency float64            `json:"parallel_efficiency"`
	SpecSeconds        map[string]float64 `json:"spec_seconds"`
	LongPoles          []LongPole         `json:"long_poles"`
}

// LongPole names one of the slowest specs in the observed breakdown.
type LongPole struct {
	ID      string  `json:"id"`
	Seconds float64 `json:"seconds"`
}

// LongPoleDelta records the long-pole optimization campaign: for each
// targeted spec, the sequential seconds measured at the committed v6
// baseline (post order-statistics/shared-oracle, pre v7 kernel work,
// reference container) against this run's spec_seconds, plus the
// suite-wide before/after and the sequential-time budget the CI guard
// enforces (`bench -guard`).
type LongPoleDelta struct {
	Baseline           string      `json:"baseline"`
	SuiteBudgetSeconds float64     `json:"suite_budget_seconds"`
	SuiteBefore        float64     `json:"suite_sequential_before_seconds"`
	SuiteAfter         float64     `json:"suite_sequential_after_seconds"`
	Poles              []PoleDelta `json:"poles"`
}

// PoleDelta is one targeted spec's before/after measurement.
type PoleDelta struct {
	ID      string  `json:"id"`
	Before  float64 `json:"before_seconds"`
	After   float64 `json:"after_seconds"`
	Speedup float64 `json:"speedup"`
}

// poleBaseline is the committed northstar-bench/v6 spec_seconds for the
// five tail poles of the v7 long-pole campaign, measured on the
// reference container after the order-statistics/shared-oracle/
// machine-reuse work but before the v7 kernel work, coroutine proc
// delivery, and per-shard probe hoisting. The guard checks these poles.
// suiteBaselineSeconds is that report's full sequential suite time;
// suiteBudgetSeconds is the post-campaign budget the guard holds the
// suite to.
var poleBaseline = []PoleDelta{
	{ID: "E10", Before: 0.603},
	{ID: "E6", Before: 0.465},
	{ID: "E4", Before: 0.440},
	{ID: "X6", Before: 0.252},
	{ID: "E8", Before: 0.195},
}

const (
	suiteBaselineSeconds = 2.102
	suiteBudgetSeconds   = 2.0
)

// ShardRes reports the Monte Carlo shard engine's scaling on the E9
// first-failure loop (the suite's slowest replication body): ns per
// replication at shards 1/2/4/8 on a pool sized to match, the
// pre-sharding single-stream loop as baseline, the shards=1 overhead
// against it, and a bit-identity self-check across shard counts.
type ShardRes struct {
	Model                string       `json:"model"`
	Runs                 int          `json:"runs"`
	SingleStreamNsPerRep float64      `json:"single_stream_baseline_ns_per_rep"`
	Shards1OverheadPct   float64      `json:"shards1_overhead_pct_vs_single_stream"`
	BitIdentical         bool         `json:"bit_identical_shards_1_2_8"`
	Points               []ShardPoint `json:"points"`
}

// ShardPoint is one shard-count measurement.
type ShardPoint struct {
	Shards   int     `json:"shards"`
	NsPerRep float64 `json:"ns_per_rep"`
	Speedup  float64 `json:"speedup_vs_shards1"`
}

func main() {
	events := flag.Int("events", 2_000_000, "kernel benchmark event count")
	quick := flag.Bool("quick", false, "run the suite at CI scale")
	par := flag.Int("par", 0, "parallel suite workers; 0 = one per CPU")
	out := flag.String("o", "BENCH_runner.json", `output path ("-" for stdout)`)
	guard := flag.Bool("guard", false,
		"regression-guard mode: measure spec_seconds only and fail if any long pole regresses >25% vs the committed baseline or the suite exceeds its budget")
	probeGuard := flag.Bool("probeguard", false,
		"probe-overhead guard mode: measure the fabric send chain nil-probe vs domain-probe and fail if the attached probe costs >10% per send")
	serveBench := flag.Bool("serve", false,
		"serve-benchmark mode: load-test the scenario service (cached and uncached traffic) and merge the serve section into the committed report")
	baseline := flag.String("baseline", "BENCH_runner.json", "committed report the guard compares against")
	flag.Parse()

	if *guard {
		os.Exit(runGuard(*baseline))
	}
	if *probeGuard {
		os.Exit(runProbeGuard())
	}
	if *serveBench {
		os.Exit(runServeBench(*baseline))
	}

	rep := Report{
		Schema:    benchSchema,
		Generated: "go run ./cmd/bench (see scripts/bench.sh)",
		Host: HostInfo{
			Go:         runtime.Version(),
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
			CPUs:       runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
		},
	}

	fmt.Fprintf(os.Stderr, "bench: kernel throughput (%d events, nil probe)...\n", *events)
	rep.Kernel = benchKernel(*events, nil)
	fmt.Fprintf(os.Stderr, "bench: kernel throughput (%d events, counting probe)...\n", *events)
	probe := obs.NewKernelProbe()
	rep.KernelProbed = benchKernel(*events, probe)
	if got := int(probe.Fired()); got != *events+1 {
		fatal(fmt.Errorf("probe counted %d fired events, want %d", got, *events+1))
	}

	fsends := *events / 4
	fmt.Fprintf(os.Stderr, "bench: fabric send chain (%d sends, nil probe)...\n", fsends)
	rep.Fabric = benchFabric(fsends, nil)
	fmt.Fprintf(os.Stderr, "bench: fabric send chain (%d sends, domain probe)...\n", fsends)
	dp := obs.NewDomainProbe()
	rep.FabricProbed = benchFabric(fsends, dp)
	if got := dp.Messages(network.KindPacket); got != uint64(fsends) {
		fatal(fmt.Errorf("domain probe counted %d messages, want %d", got, fsends))
	}

	fmt.Fprintf(os.Stderr, "bench: machine memory footprint (bytes/node)...\n")
	rep.Memory = benchMemory()

	workers := *par
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	rep.Suite.Quick = *quick
	rep.Suite.Experiments = len(experiments.All())
	rep.Suite.ParallelWorkers = workers

	fmt.Fprintf(os.Stderr, "bench: suite sequential (quick=%v)...\n", *quick)
	rep.Suite.SequentialSeconds = benchSuite(*quick, 1, nil)
	fmt.Fprintf(os.Stderr, "bench: suite sequential, observed (per-spec breakdown)...\n")
	rep.Suite.SpecSeconds, rep.Suite.LongPoles = benchSpecBreakdown(*quick)
	fmt.Fprintf(os.Stderr, "bench: suite parallel (workers=%d)...\n", workers)
	rep.Suite.ParallelSeconds = benchSuite(*quick, workers, nil)
	if rep.Suite.ParallelSeconds > 0 {
		rep.Suite.Speedup = round3(rep.Suite.SequentialSeconds / rep.Suite.ParallelSeconds)
		// Speedup is bounded by the narrower of the pool and the host;
		// normalizing by that bound separates "the runner failed to
		// parallelize" from "the host has nothing to parallelize onto".
		bound := workers
		if cpus := runtime.NumCPU(); cpus < bound {
			bound = cpus
		}
		rep.Suite.ParallelEfficiency = round3(rep.Suite.Speedup / float64(bound))
	}

	fmt.Fprintf(os.Stderr, "bench: shard scaling (Monte Carlo engine)...\n")
	rep.Shards = benchShards()

	fmt.Fprintf(os.Stderr, "bench: scenario service load (cached + uncached)...\n")
	rep.Serve = benchServe()

	rep.LongPoles = poleDelta(rep.Suite.SequentialSeconds, rep.Suite.SpecSeconds)
	printDelta(os.Stderr, rep.LongPoles)

	if *out == "-" {
		enc, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(append(enc, '\n'))
		return
	}
	if err := writeReport(*out, rep); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "bench: wrote %s (kernel %.1f ns/event nil probe, %.1f probed, %.2f allocs/event; fabric %.1f -> %.1f ns/send probed; suite %.2fs -> %.2fs, %.2fx, eff %.2f; shards=1 overhead %+.1f%%)\n",
		*out, rep.Kernel.NsPerEvent, rep.KernelProbed.NsPerEvent, rep.Kernel.AllocsPerEvent,
		rep.Fabric.NsPerEvent, rep.FabricProbed.NsPerEvent,
		rep.Suite.SequentialSeconds, rep.Suite.ParallelSeconds, rep.Suite.Speedup,
		rep.Suite.ParallelEfficiency, rep.Shards.Shards1OverheadPct)
}

// benchKernel mirrors BenchmarkKernelEventThroughput (internal/sim): a
// self-rescheduling event chain with random future offsets, measured with
// memstats deltas so it needs no testing harness. A non-nil probe is
// attached before the run (the kernel_probed measurement).
func benchKernel(events int, probe *obs.KernelProbe) KernelRes {
	k := sim.New(1)
	if probe != nil {
		k.SetProbe(probe)
	}
	rng := rand.New(rand.NewSource(7))
	n := 0
	var fn func()
	fn = func() {
		if n < events {
			n++
			k.After(sim.Time(rng.Float64()), fn)
		}
	}
	k.After(0, fn)

	var before, after runtime.MemStats
	readMem(&before)
	start := time.Now()
	k.Run()
	elapsed := time.Since(start)
	readMem(&after)

	return KernelRes{
		Events:         events,
		NsPerEvent:     round3(float64(elapsed.Nanoseconds()) / float64(events)),
		AllocsPerEvent: round3(float64(after.Mallocs-before.Mallocs) / float64(events)),
		BytesPerEvent:  round3(float64(after.TotalAlloc-before.TotalAlloc) / float64(events)),
	}
}

// readMem forces a collection before reading, so heap numbers are
// settled state rather than whatever garbage happened to be pending —
// without it the alloc deltas swing with GC timing.
func readMem(m *runtime.MemStats) {
	runtime.GC()
	runtime.ReadMemStats(m)
}

// benchFabric drives a packet-level fabric with a self-rechaining send
// loop (each delivery triggers the next send to a random peer), the
// fabric analog of benchKernel: a 64-node Myrinet torus carrying 2-5
// packet messages over multi-hop routes — the per-message work the
// domain probe's hooks amortize against. A non-nil probe is attached
// before the run (the fabric_probed measurement / the -probeguard
// comparison); nil exercises the unobserved hot path. Events counts
// sends; ns_per_event is host nanoseconds per send.
func benchFabric(sends int, probe network.Probe) KernelRes {
	const side = 8 // 8x8 torus, 64 endpoints
	k := sim.New(1)
	f := network.NewPacketNet(k, network.Myrinet2000(), topology.Torus2D(side, side))
	f.SetProbe(probe)
	const endpoints = side * side
	mtu := int64(network.Myrinet2000().MTU)
	rng := rand.New(rand.NewSource(7))
	n := 0
	var send func()
	send = func() {
		if n >= sends {
			return
		}
		n++
		src := rng.Intn(endpoints)
		dst := rng.Intn(endpoints - 1)
		if dst >= src {
			dst++
		}
		f.Send(src, dst, mtu*2+int64(rng.Int63n(mtu*3)), nil, send)
	}
	k.After(0, send)

	var before, after runtime.MemStats
	readMem(&before)
	start := time.Now()
	k.Run()
	elapsed := time.Since(start)
	readMem(&after)

	return KernelRes{
		Events:         sends,
		NsPerEvent:     round3(float64(elapsed.Nanoseconds()) / float64(sends)),
		AllocsPerEvent: round3(float64(after.Mallocs-before.Mallocs) / float64(sends)),
		BytesPerEvent:  round3(float64(after.TotalAlloc-before.TotalAlloc) / float64(sends)),
	}
}

// benchMemory measures settled heap growth per simulated node for
// packet-level machine builds at 1e3/1e4/1e5 nodes — conventional 2002
// nodes on a Myrinet torus, the configuration the scale experiments
// use. GC runs before each read so the delta is live structure, not
// construction garbage.
func benchMemory() MemoryRes {
	model := node.MustBuild(node.Conventional, tech.Default2002(), 2002)
	res := MemoryRes{
		Model: "machine.New: conventional 2002 nodes, packet-level torus3d, myrinet2000",
	}
	for _, nodes := range []int{1_000, 10_000, 100_000} {
		var before, after runtime.MemStats
		readMem(&before)
		m, err := machine.New(machine.Config{
			Nodes:       nodes,
			Node:        model,
			Fabric:      network.Myrinet2000(),
			PacketLevel: true,
			Topology:    machine.TopoTorus3D,
			Seed:        1,
		})
		if err != nil {
			fatal(err)
		}
		readMem(&after)
		heap := after.HeapAlloc - before.HeapAlloc
		res.Points = append(res.Points, MemoryPoint{
			Nodes:        nodes,
			HeapBytes:    heap,
			BytesPerNode: round3(float64(heap) / float64(nodes)),
		})
		runtime.KeepAlive(m)
	}
	return res
}

// runProbeGuard is the CI probe-overhead guard: best-of-reps fabric
// send timing with a nil probe against an attached obs.DomainProbe,
// failing if the attached probe costs more than 10% per send — the
// same claim the kernel/kernel_probed sections pin for sim.Probe.
func runProbeGuard() int {
	const sends, reps = 400_000, 7
	best := func(mk func() network.Probe) float64 {
		b := math.Inf(1)
		for i := 0; i < reps; i++ {
			if ns := benchFabric(sends, mk()).NsPerEvent; ns < b {
				b = ns
			}
		}
		return b
	}
	nilNs := best(func() network.Probe { return nil })
	probedNs := best(func() network.Probe { return obs.NewDomainProbe() })
	pct := (probedNs - nilNs) / nilNs * 100
	fmt.Fprintf(os.Stderr, "bench: probeguard: fabric send %.1f ns nil probe, %.1f ns domain probe (%+.1f%%)\n",
		nilNs, probedNs, pct)
	if pct > 10 {
		fmt.Fprintf(os.Stderr, "bench: probeguard: attached domain probe exceeds the 10%% overhead budget\n")
		return 1
	}
	fmt.Fprintf(os.Stderr, "bench: probeguard: ok (within 10%%)\n")
	return 0
}

// benchSuite runs the whole experiment suite once and reports seconds.
// The intra-experiment Monte Carlo pool is budgeted against the suite
// workers (helpers = GOMAXPROCS - workers, floored at 0) so the two
// levels of parallelism share one CPU budget. A non-nil observer
// instruments the run.
func benchSuite(quick bool, workers int, observer *obs.SuiteObserver) float64 {
	mc.SetDefaultWorkers(runtime.GOMAXPROCS(0) - workers)
	defer mc.SetDefaultWorkers(runtime.GOMAXPROCS(0) - 1)
	start := time.Now()
	opts := experiments.Options{Quick: quick, Workers: workers, Observer: observer}
	if _, err := experiments.RunSuite(io.Discard, opts); err != nil {
		fatal(err)
	}
	return round3(time.Since(start).Seconds())
}

// benchSpecBreakdown runs the suite sequentially under the observer and
// extracts each spec's host wall clock from the metrics registry
// (host_seconds gauge per spec scope), plus the top-5 long poles.
func benchSpecBreakdown(quick bool) (map[string]float64, []LongPole) {
	observer := obs.NewSuiteObserver(nil, nil, nil)
	benchSuite(quick, 1, observer)
	specSeconds := make(map[string]float64, len(experiments.All()))
	for _, s := range experiments.All() {
		specSeconds[s.ID] = round3(observer.Registry().Scope(s.ID).Gauge("host_seconds"))
	}
	poles := make([]LongPole, 0, len(specSeconds))
	for id, secs := range specSeconds {
		poles = append(poles, LongPole{ID: id, Seconds: secs})
	}
	sort.Slice(poles, func(i, j int) bool {
		if poles[i].Seconds != poles[j].Seconds {
			return poles[i].Seconds > poles[j].Seconds
		}
		return poles[i].ID < poles[j].ID
	})
	if len(poles) > 5 {
		poles = poles[:5]
	}
	return specSeconds, poles
}

// benchShards measures the sharded Monte Carlo engine on the E9
// first-failure model (Weibull infant mortality, 1000 nodes — the
// suite's slowest replication loop) at shards 1/2/4/8, against the
// pre-sharding single-stream loop, and self-checks bit-identity across
// shard counts.
func benchShards() ShardRes {
	system := fault.System{
		Nodes:    1000,
		Lifetime: stats.Weibull{Shape: 0.7, Scale: float64(1000 * sim.Day)},
	}
	const runs, seed, reps = 2000, 7, 15

	res := ShardRes{
		Model: "fault.System.FirstFailureMean, 1000 nodes, weibull(0.7) lifetimes",
		Runs:  runs,
	}

	// Pre-sharding baseline: one rand stream, no pool, no reseeding —
	// the loop FirstFailureMean ran before the shard engine existed.
	singleStream := func() sim.Time {
		rng := rand.New(rand.NewSource(seed))
		var sum float64
		for r := 0; r < runs; r++ {
			first := math.Inf(1)
			for n := 0; n < system.Nodes; n++ {
				if t := system.Lifetime.Sample(rng); t < first {
					first = t
				}
			}
			sum += first
		}
		return sim.Time(sum / runs)
	}
	// Best-of-reps: the minimum is the run least perturbed by host
	// scheduling noise, which on a shared container dwarfs the few-percent
	// effects this section exists to measure.
	bestOf := func(f func()) float64 {
		best := math.Inf(1)
		for i := 0; i < reps; i++ {
			start := time.Now()
			f()
			if ns := float64(time.Since(start).Nanoseconds()); ns < best {
				best = ns
			}
		}
		return round3(best / runs)
	}
	res.SingleStreamNsPerRep = bestOf(func() { singleStream() })

	var base sim.Time
	for _, shards := range []int{1, 2, 4, 8} {
		p := mc.NewPool(shards - 1)
		v := system.FirstFailureMeanSharded(p, runs, seed, shards)
		ns := bestOf(func() { system.FirstFailureMeanSharded(p, runs, seed, shards) })
		pt := ShardPoint{Shards: shards, NsPerRep: ns}
		if shards == 1 {
			base = v
			res.Shards1OverheadPct = round3((ns - res.SingleStreamNsPerRep) / res.SingleStreamNsPerRep * 100)
			res.BitIdentical = true
			pt.Speedup = 1
		} else {
			if v != base {
				res.BitIdentical = false
			}
			if ns > 0 {
				pt.Speedup = round3(res.Points[0].NsPerRep / ns)
			}
		}
		res.Points = append(res.Points, pt)
		p.Close()
	}
	// A quick checkpoint-model cross-check on the same invariant.
	c := fault.Checkpoint{
		Work: 168 * sim.Hour, Interval: sim.Hour, Overhead: 5 * sim.Minute,
		Restart: 10 * sim.Minute, MTBF: 12 * sim.Hour,
	}
	p := mc.NewPool(7)
	defer p.Close()
	c1, err := c.SimulateSharded(p, 200, 42, 1)
	if err != nil {
		fatal(err)
	}
	for _, shards := range []int{2, 8} {
		cs, err := c.SimulateSharded(p, 200, 42, shards)
		if err != nil {
			fatal(err)
		}
		if cs != c1 {
			res.BitIdentical = false
		}
	}
	if !res.BitIdentical {
		fatal(fmt.Errorf("shard bit-identity self-check failed; results depend on shard count"))
	}
	return res
}

// poleDelta fills the long_pole_delta section from this run's observed
// sequential breakdown against the hardcoded v3 baseline.
func poleDelta(suiteSeconds float64, specSeconds map[string]float64) LongPoleDelta {
	d := LongPoleDelta{
		Baseline: "northstar-bench/v6 (pre v7 kernel work / coroutine procs / " +
			"per-shard probe hoisting), reference container",
		SuiteBudgetSeconds: suiteBudgetSeconds,
		SuiteBefore:        suiteBaselineSeconds,
		SuiteAfter:         suiteSeconds,
	}
	for _, p := range poleBaseline {
		p.After = specSeconds[p.ID]
		if p.After > 0 {
			p.Speedup = round3(p.Before / p.After)
		}
		d.Poles = append(d.Poles, p)
	}
	return d
}

// printDelta renders the long-pole before/after table (the headline of
// the perf campaign; scripts/bench.sh shows it after every run).
func printDelta(w io.Writer, d LongPoleDelta) {
	fmt.Fprintf(w, "bench: long-pole delta vs v6 baseline\n")
	fmt.Fprintf(w, "  %-6s %10s %10s %9s\n", "spec", "before-s", "after-s", "speedup")
	for _, p := range d.Poles {
		fmt.Fprintf(w, "  %-6s %10.3f %10.3f %8.1fx\n", p.ID, p.Before, p.After, p.Speedup)
	}
	fmt.Fprintf(w, "  %-6s %10.3f %10.3f   (budget %.1f s)\n",
		"suite", d.SuiteBefore, d.SuiteAfter, d.SuiteBudgetSeconds)
}

// guardRuns is how many sequential suite passes the guard measures; it
// compares per-spec medians and the median suite time, so one pass
// disturbed by host noise cannot fail it on its own.
const guardRuns = 3

// runGuard is the CI regression guard: it measures only the sequential
// spec breakdown (the cheap part of the full report) guardRuns times,
// loads the committed report, and fails with guardVerdict's findings.
func runGuard(baselinePath string) int {
	committed, err := loadReport(baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: guard: %v\n", err)
		return 1
	}
	budget := committed.LongPoles.SuiteBudgetSeconds
	if budget <= 0 {
		budget = suiteBudgetSeconds
	}

	runs := make([]map[string]float64, guardRuns)
	suites := make([]float64, guardRuns)
	for r := range runs {
		fmt.Fprintf(os.Stderr, "bench: guard: suite sequential (full scale, observed), pass %d/%d...\n", r+1, guardRuns)
		start := time.Now()
		runs[r], _ = benchSpecBreakdown(false)
		suites[r] = round3(time.Since(start).Seconds())
	}
	specSeconds := make(map[string]float64, len(runs[0]))
	for id := range runs[0] {
		vals := make([]float64, guardRuns)
		for r := range runs {
			vals[r] = runs[r][id]
		}
		specSeconds[id] = median(vals)
	}
	suiteSeconds := median(suites)

	printDelta(os.Stderr, poleDelta(suiteSeconds, specSeconds))
	failures := guardVerdict(committed.Suite.SpecSeconds, specSeconds, suiteSeconds, budget)
	for _, f := range failures {
		fmt.Fprintf(os.Stderr, "bench: guard: %s\n", f)
	}
	if len(failures) > 0 {
		return 1
	}
	fmt.Fprintf(os.Stderr, "bench: guard: ok (median suite %.3f s within %.1f s budget, long poles within 25%% of committed)\n",
		suiteSeconds, budget)
	return 0
}

// guardVerdict judges measured seconds against the committed report: a
// long pole (poleBaseline) fails if it is more than 25% slower than its
// committed spec_seconds, and the suite fails if it exceeds budget.
// Wall-clock numbers are host-dependent, so the 25% margin plus the
// absolute budget — not equality — is the contract. It returns one
// message per failure; none means the guard passes.
func guardVerdict(committed, measured map[string]float64, suiteSeconds, budget float64) []string {
	var failures []string
	for _, p := range poleBaseline {
		was, now := committed[p.ID], measured[p.ID]
		if was > 0 && now > was*1.25 {
			failures = append(failures, fmt.Sprintf("%s regressed: %.3f s vs committed %.3f s (>25%%)", p.ID, now, was))
		}
	}
	if suiteSeconds > budget {
		failures = append(failures, fmt.Sprintf("suite sequential %.3f s exceeds budget %.1f s", suiteSeconds, budget))
	}
	return failures
}

// median returns the median of vals (the mean of the middle two for an
// even count), sorting vals in place.
func median(vals []float64) float64 {
	sort.Float64s(vals)
	n := len(vals)
	if n%2 == 1 {
		return vals[n/2]
	}
	return (vals[n/2-1] + vals[n/2]) / 2
}

// loadReport reads a committed bench report.
func loadReport(path string) (Report, error) {
	var rep Report
	raw, err := os.ReadFile(path)
	if err != nil {
		return rep, fmt.Errorf("cannot read committed report: %w", err)
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		return rep, fmt.Errorf("cannot parse %s: %w", path, err)
	}
	return rep, nil
}

// writeReport writes a bench report as indented JSON.
func writeReport(path string, rep Report) error {
	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(enc, '\n'), 0o644)
}

func round3(v float64) float64 { return float64(int64(v*1000+0.5)) / 1000 }

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
