package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// usage is one reading of the process's resource counters. Differences
// of two readings give the cost of whatever ran between them.
type usage struct {
	wall     time.Time
	cpu      time.Duration // user+sys, from getrusage
	alloc    uint64        // cumulative heap bytes allocated
	gcCycles uint64
	gcCPU    float64 // runtime estimate of GC CPU seconds
	allCPU   float64 // runtime estimate of all CPU seconds
}

var usageMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readUsage() usage {
	s := make([]metrics.Sample, len(usageMetrics))
	for i, name := range usageMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	return usage{
		wall:     time.Now(),
		cpu:      processCPU(),
		alloc:    s[0].Value.Uint64(),
		gcCycles: s[1].Value.Uint64(),
		gcCPU:    s[2].Value.Float64(),
		allCPU:   s[3].Value.Float64(),
	}
}

// delta is the cost between two readings.
type delta struct {
	wall, cpu     float64 // seconds
	alloc         float64 // bytes
	gcCycles      float64
	gcCPU, allCPU float64 // seconds
}

func (u usage) since(prev usage) delta {
	return delta{
		wall:     u.wall.Sub(prev.wall).Seconds(),
		cpu:      (u.cpu - prev.cpu).Seconds(),
		alloc:    float64(u.alloc - prev.alloc),
		gcCycles: float64(u.gcCycles - prev.gcCycles),
		gcCPU:    u.gcCPU - prev.gcCPU,
		allCPU:   u.allCPU - prev.allCPU,
	}
}

func (d delta) plus(e delta) delta {
	return delta{
		wall:     d.wall + e.wall,
		cpu:      d.cpu + e.cpu,
		alloc:    d.alloc + e.alloc,
		gcCycles: d.gcCycles + e.gcCycles,
		gcCPU:    d.gcCPU + e.gcCPU,
		allCPU:   d.allCPU + e.allCPU,
	}
}

// gcShare is the runtime's estimate of the share of CPU spent in GC, in
// percent.
func (d delta) gcShare() float64 {
	if d.allCPU <= 0 {
		return 0
	}
	return 100 * d.gcCPU / d.allCPU
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MB (getrusage
// reports KiB on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// quantile is the nearest-rank q-quantile of an ascending sample.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// tailLevels are the percentiles a tail may be reported at, highest
// first.
var tailLevels = []float64{0.99, 0.95, 0.90, 0.75}

// tailBeyond is how many samples a tail percentile needs beyond it. On
// a shared host, steal from the neighbours stalls a run now and then for
// tens of milliseconds; with ten samples beyond it the p99 of a
// thousand requests counted those stalls, not the program, and spread
// by a third between runs of the same code.
const tailBeyond = 50

// tailLevel picks the highest percentile of tailLevels that has at least
// tailBeyond samples beyond it in a sample of n; with fewer samples no
// tail is supported and the median (0.5) stands in.
func tailLevel(n int) float64 {
	for _, q := range tailLevels {
		if n-int(math.Ceil(q*float64(n))) >= tailBeyond {
			return q
		}
	}
	return 0.5
}

// summary is the distribution of one per-operation measurement.
type summary struct {
	n                int
	p25, p50, p75    float64
	tail, tailQ, max float64
	spreadOverMedian float64 // (p75 - p25) / p50
}

// summarize describes a sample. The tail is the highest percentile with
// tailBeyond samples beyond it (see tailLevel).
func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return summary{}
	}
	out := summary{
		n:     len(s),
		p25:   quantile(s, 0.25),
		p50:   quantile(s, 0.5),
		p75:   quantile(s, 0.75),
		max:   s[len(s)-1],
		tailQ: tailLevel(len(s)),
	}
	out.tail = quantile(s, out.tailQ)
	if out.p50 != 0 {
		out.spreadOverMedian = (out.p75 - out.p25) / out.p50
	}
	return out
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// host describes the machine and settings a report was measured under.
type host struct {
	NProc, GOMAXPROCS       int
	GoVersion, CPUModel, OS string
}

func currentHost() host {
	return host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		OS:         runtime.GOOS + "/" + runtime.GOARCH,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
