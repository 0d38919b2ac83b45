// Command perfbench is northstar's benchmark. It runs one workload —
// the sequential reproduction suite (suite) or cache-missing traffic
// against an in-process scenario service (serve_churn) — for a fixed
// time, checks every output it measures, and prints a report whose last
// line is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Untraced runs (--trace 0) report the end-to-end metrics, their times
// scaled to reference speed by a calibration load measured alongside
// (see calibrate.go). Traced runs
// (--trace 1) report the per-layer metrics: an untraced and a traced
// window of the same workload (their CPU-per-operation gap is the
// tracing overhead), a CPU profile folded by package, the suite's
// per-experiment spans and kernel event counts, and a benchmark of each
// layer's exported entry points. Every layer is measured from outside,
// through its public API and the program's public observers.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload suite --seed 1 --seconds 30 --trace 0
//
// BENCHMARK.json lists the workloads and metrics; perfbench/README.md
// maps each per-layer metric to the end-to-end metric it should move.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime/pprof"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"northstar/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string
}

var workloads = []string{"suite", "serve_churn"}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 for a traced run reporting per-layer metrics")
	fs.StringVar(&o.root, "root", ".", "repository root")
	setupProbe := fs.Bool("setup-probe", false, "set up the workload, print the time it became ready, and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = *trace == 1
	if !slices.Contains(workloads, o.workload) || o.seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload %s, --seconds > 0 and --trace 0 or 1\n", strings.Join(workloads, "|"))
		return 2
	}
	if *setupProbe {
		b, err := setUp(o)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "ready %d\n", time.Now().UnixNano())
		b.close()
		return 0
	}

	r := newReport(o, stdout)
	var err error
	if o.trace {
		err = tracedRun(o, r)
	} else {
		err = untracedRun(o, r)
	}
	if err == nil {
		err = r.finish()
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// bench is a workload after set-up.
type bench interface {
	// window runs the workload for about seconds; traced windows
	// attach the program's observers.
	window(seconds float64, traced bool) windowStats
	// setupOps reports the operations set-up ran and how many failed
	// their checks.
	setupOps() (attempted, failed int)
	// close releases the workload's resources; calling it again does
	// nothing.
	close()
}

// windowStats is what one measured window of any workload yields.
type windowStats struct {
	ops, failed int
	rate        float64   // operations per second of the throughput sample
	lat         []float64 // seconds per operation of the latency sample
	openLat     []float64 // seconds from due time to completion, open-loop requests
	lag         []float64 // seconds the generator (or harness) ran late
	calib       []float64 // seconds per calibration slice (untraced windows)
	cost        delta     // resources used by the workload over the window
	// perOpCPU and perOpAlloc hold per-operation costs where each
	// operation is measured alone (suite passes); otherwise the window
	// total is divided by ops.
	perOpCPU, perOpAlloc []float64
	events               uint64             // kernel events fired (traced windows)
	spans                map[string]float64 // experiment spans (traced suite windows)
	varz                 map[string]int64   // serve-scope counter deltas
	notes                []string
}

func (w windowStats) cpuPerOp() float64 {
	if len(w.perOpCPU) > 0 {
		return median(w.perOpCPU)
	}
	return w.cost.cpu / float64(w.ops)
}

func (w windowStats) allocPerOp() float64 {
	if len(w.perOpAlloc) > 0 {
		return median(w.perOpAlloc)
	}
	return w.cost.alloc / float64(w.ops)
}

func setUp(o options) (bench, error) {
	if o.workload == "suite" {
		return newSuite(o.root, o.seed)
	}
	return newServe(o.root, o.seed)
}

// setupRuns is how many fresh processes time set-up per run.
func setupRuns(workload string) int {
	if workload == "suite" {
		return 5 // each runs a full warm-up pass
	}
	return 15
}

// setupTimes starts fresh copies of this program that only set up, and
// returns for each the seconds from starting it to its ready mark:
// process start, package init, lazy init and warm-up included.
func setupTimes(o options, n int) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe, "--setup-probe", "--workload", o.workload,
			"--seed", strconv.FormatInt(o.seed, 10), "--root", o.root)
		cmd.Stderr = os.Stderr
		t0 := time.Now()
		stdout, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("set-up probe: %w", err)
		}
		var ready int64
		if _, err := fmt.Sscanf(string(stdout), "ready %d", &ready); err != nil {
			return nil, fmt.Errorf("set-up probe printed %q", stdout)
		}
		out = append(out, float64(ready-t0.UnixNano())/1e9)
	}
	return out, nil
}

// untracedRun measures the end-to-end metrics.
func untracedRun(o options, r *report) error {
	setups, err := setupTimes(o, setupRuns(o.workload))
	if err != nil {
		return err
	}
	b, err := setUp(o)
	if err != nil {
		return err
	}
	defer b.close()
	r.countSetup(b)
	w := b.window(o.seconds, false)
	r.count(w)
	r.notes(w.notes...)

	// The set-up processes ran just before the window, so the window's
	// calibration, taken over many more slices than a set-up process
	// could afford, scales them too.
	scale := speedScale(w.calib)
	lat := summarize(w.lat)
	r.notes(fmt.Sprintf("calibration: interquartile mean %.4g ms over %d slices (spread %.3g); times below are raw x %.4g",
		interquartileMean(w.calib)*1e3, len(w.calib), summarize(w.calib).spreadOverMedian, scale))
	r.put("setup_s", median(setups)*scale, "s", fmt.Sprintf("median of %d fresh processes, raw %s s", len(setups), fmtList(setups, 3)))
	r.put("p50_ms", lat.p50*scale*1e3, "ms", "raw "+lat.describe(1e3))
	r.put("tail_ms", lat.tail*scale*1e3, "ms", "raw "+lat.describe(1e3))
	r.put("ops_per_s", w.rate/scale, "1/s", fmt.Sprintf("raw %.4g/s", w.rate))
	alloc := summarize(w.perOpAlloc)
	r.put("alloc_mb_per_op", w.allocPerOp()/(1<<20), "MB", alloc.describeIf(1.0/(1<<20)))
	r.put("peak_rss_mb", peakRSSMB(), "MB", "getrusage maxrss of the measuring process")
	return nil
}

// tracedWindowShare is the share of --seconds given to each of the
// untraced and traced windows of a traced run; the rest goes to the
// layer benchmarks.
const tracedWindowShare = 0.3

// tracedRun measures the per-layer metrics.
func tracedRun(o options, r *report) error {
	b, err := setUp(o)
	if err != nil {
		return err
	}
	defer b.close()
	r.countSetup(b)
	span := o.seconds * tracedWindowShare
	plain := b.window(span, false)
	r.count(plain)

	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return err
	}
	traced := b.window(span, true)
	pprof.StopCPUProfile()
	r.count(traced)
	r.notes(traced.notes...)
	b.close() // before the suite run and layer benchmarks below share the CPUs

	r.put("cpu_ms_per_op", plain.cpuPerOp()*1e3, "ms", "getrusage, untraced window: "+summarize(plain.perOpCPU).describeIf(1e3))
	overhead := 100 * (traced.cpuPerOp()/plain.cpuPerOp() - 1)
	r.put("trace.overhead_pct", overhead, "%", fmt.Sprintf("CPU per operation: untraced %.4g ms, traced %.4g ms",
		plain.cpuPerOp()*1e3, traced.cpuPerOp()*1e3))
	r.put("host.calib_ms", interquartileMean(plain.calib)*1e3, "ms", fmt.Sprintf("interquartile mean of %d calibration slices, untraced window; %g ms is reference speed", len(plain.calib), calRef.Seconds()*1e3))
	r.put("gc.cpu_share", plain.cost.gcShare(), "%", "runtime/metrics, untraced window")
	r.put("gc.cycles_per_op", plain.cost.gcCycles/float64(plain.ops), "count", "untraced window")
	lag := append([]float64(nil), plain.lag...)
	sort.Float64s(lag)
	r.put("loadgen.lag_p99_ms", quantile(lag, 0.99)*1e3, "ms", fmt.Sprintf("n=%d, untraced window", len(lag)))
	openLat := append([]float64(nil), plain.openLat...)
	sort.Float64s(openLat)
	openP50, openP99 := 0.0, 0.0 // suite has no open loop
	if len(openLat) > 0 {
		openP50, openP99 = quantile(openLat, 0.5), quantile(openLat, 0.99)
	}
	r.put("serve.open_p50_ms", openP50*1e3, "ms", fmt.Sprintf("open-loop latency from due time, n=%d, untraced window", len(openLat)))
	r.put("serve.open_p99_ms", openP99*1e3, "ms", "")
	r.put("sim.events_per_op", float64(traced.events)/float64(traced.ops), "count", "KernelProbe, traced window")
	hits, misses, collapsed := traced.varz["hits"], traced.varz["misses"], traced.varz["inflight_collapsed"]
	ratio := 0.0
	if n := hits + misses + collapsed; n > 0 {
		ratio = float64(hits) / float64(n)
	}
	r.put("serve.hit_ratio", ratio, "ratio", fmt.Sprintf("/varz: %d hits, %d misses, %d collapsed", hits, misses, collapsed))
	r.put("serve.collapsed", float64(collapsed), "count", "/varz, traced window")
	r.put("serve.evictions", float64(traced.varz["evictions"]), "count", "/varz, traced window")

	// The suite's layer figures: from this run's windows on the suite
	// workload, from a short sequential suite run otherwise.
	suitePlain, suiteTraced := plain, traced
	if o.workload != "suite" {
		s, err := newSuite(o.root, o.seed)
		if err != nil {
			return err
		}
		r.countSetup(s)
		suitePlain, suiteTraced = s.window(0, false), s.window(0, true)
		r.count(suitePlain)
		r.count(suiteTraced)
	}
	r.put("sim.host_ns_per_event", suitePlain.cpuPerOp()*1e9/(float64(suiteTraced.events)/float64(suiteTraced.ops)), "ns",
		"untraced suite CPU per pass over traced kernel events per pass")
	for _, id := range spanIDs {
		r.put("experiments.spec_s."+id, suiteTraced.spans[id], "s", "")
	}

	if err := runLayers(func(name string, v float64, unit string) { r.put(name, v, unit, "") }); err != nil {
		return err
	}

	shares, err := foldProfile(prof.Bytes())
	if err != nil {
		return err
	}
	for _, b := range append(append([]string(nil), cpuPackages...), cpuBuckets...) {
		r.put("cpu."+b, shares[b], "%", "")
	}
	return nil
}

var suiteObserver = sync.OnceValue(func() *obs.SuiteObserver {
	// One observer per process: SuiteObserver.Begin panics when
	// observed runs overlap, so every traced pass reuses this one.
	return obs.NewSuiteObserver(nil, nil, nil)
})

// report accumulates a run's metrics and prints them, one per line,
// ahead of the final JSON result line.
type report struct {
	w         io.Writer
	attempted int
	failed    int
	metrics   map[string]metric
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newReport(o options, w io.Writer) *report {
	h := currentHost()
	mode := "untraced (end-to-end metrics)"
	if o.trace {
		mode = "traced (per-layer metrics)"
	}
	fmt.Fprintf(w, "perfbench workload=%s seed=%d seconds=%g mode=%s\n", o.workload, o.seed, o.seconds, mode)
	fmt.Fprintf(w, "host nproc=%d gomaxprocs=%d go=%s os=%s cpu=%q\n", h.NProc, h.GOMAXPROCS, h.GoVersion, h.OS, h.CPUModel)
	switch o.workload {
	case "suite":
		fmt.Fprintf(w, "settings closed loop, full mode, 21 experiments per pass in seeded order, suite workers=1, mc default pool helpers=0 (strictly sequential)\n")
	default:
		fmt.Fprintf(w, "settings rounds of %d blocks closed loop then %d blocks open loop at a fixed interval offering %g of the closed-loop rate, connections=%d, server pool width=%d, cache budget=%d B, latency limit=%s on the open-loop tail percentile\n",
			closedBlocks, openBlocks, churnLoad, h.NProc, h.NProc, churnCacheBytes, churnLimit)
	}
	if !o.trace {
		fmt.Fprintf(w, "settings timed end-to-end figures at reference speed: raw x %g ms / interquartile mean calibration slice\n", calRef.Seconds()*1e3)
	}
	return &report{w: w, metrics: make(map[string]metric)}
}

func (r *report) countSetup(b bench) {
	a, f := b.setupOps()
	r.attempted += a
	r.failed += f
}

func (r *report) count(w windowStats) {
	r.attempted += w.ops
	r.failed += w.failed
}

func (r *report) notes(lines ...string) {
	for _, l := range lines {
		fmt.Fprintln(r.w, l)
	}
}

func (r *report) put(name string, v float64, unit, detail string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	if detail != "" {
		detail = "  (" + detail + ")"
	}
	fmt.Fprintf(r.w, "metric %-32s %14.6g %-6s%s\n", name, v, unit, detail)
}

// finish prints the result line.
func (r *report) finish() error {
	for name, m := range r.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is not a number", name)
		}
	}
	if r.attempted < 1 {
		return errors.New("no operation was attempted")
	}
	fmt.Fprintf(r.w, "error_ratio %d/%d = %.6g\n", r.failed, r.attempted, float64(r.failed)/float64(r.attempted))
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, r.metrics}
	enc, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(r.w, "%s\n", enc)
	return err
}

func (s summary) describe(scale float64) string {
	if s.n == 0 {
		return "no samples"
	}
	return fmt.Sprintf("n=%d p25=%.4g p50=%.4g p75=%.4g p%g=%.4g max=%.4g spread=%.3g",
		s.n, s.p25*scale, s.p50*scale, s.p75*scale, s.tailQ*100, s.tail*scale, s.max*scale, s.spreadOverMedian)
}

// describeIf describes a per-operation sample when there is one; window
// totals divided by operations have none.
func (s summary) describeIf(scale float64) string {
	if s.n == 0 {
		return "window total / operations"
	}
	return s.describe(scale)
}

func fmtList(xs []float64, digits int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'g', digits, 64)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
