package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"time"

	"northstar/internal/experiments"
	"northstar/internal/fault"
	"northstar/internal/machine"
	"northstar/internal/mc"
	"northstar/internal/msg"
	"northstar/internal/network"
	"northstar/internal/node"
	"northstar/internal/sched"
	"northstar/internal/serve"
	"northstar/internal/sim"
	"northstar/internal/tech"
	"northstar/internal/topology"
)

// opCost is the cost of one operation of a layer benchmark.
type opCost struct {
	ns, allocs, bytes float64
}

// layerTarget is how long one repetition of a layer benchmark runs.
const layerTarget = 40 * time.Millisecond

// measureOps times run(n), which performs n operations, at an n that
// takes about layerTarget, and returns the median over reps
// repetitions. Allocations come from runtime.MemStats, as in testing.B.
func measureOps(reps int, run func(n int) error) (opCost, error) {
	n := 1
	for {
		t0 := time.Now()
		if err := run(n); err != nil {
			return opCost{}, err
		}
		el := time.Since(t0)
		if el >= layerTarget/4 {
			n = int(float64(n) * float64(layerTarget) / float64(el))
			break
		}
		n *= 8
	}
	if n < 1 {
		n = 1
	}
	costs := make([]opCost, reps)
	var ms0, ms1 runtime.MemStats
	for r := range costs {
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		if err := run(n); err != nil {
			return opCost{}, err
		}
		el := time.Since(t0)
		runtime.ReadMemStats(&ms1)
		costs[r] = opCost{
			ns:     float64(el.Nanoseconds()) / float64(n),
			allocs: float64(ms1.Mallocs-ms0.Mallocs) / float64(n),
			bytes:  float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(n),
		}
	}
	sort.Slice(costs, func(i, j int) bool { return costs[i].ns < costs[j].ns })
	return costs[reps/2], nil
}

// putFunc records one named figure with its unit.
type putFunc func(name string, v float64, unit string)

// layerBench is one benchmark of a layer's exported entry points.
type layerBench struct {
	name string
	run  func(put putFunc) error
}

// layerReps is how many timed repetitions each layer benchmark takes.
const layerReps = 5

// layerBenches are the per-layer benchmarks, each timing calls into one
// package's exported API from outside.
var layerBenches = []layerBench{
	{"sim.event", func(put putFunc) error {
		c, err := measureOps(layerReps, func(n int) error {
			k := sim.New(1)
			rng := rand.New(rand.NewSource(7))
			left := n
			var fn func()
			fn = func() {
				if left > 0 {
					left--
					k.After(sim.Time(rng.Float64()), fn)
				}
			}
			k.After(0, fn)
			k.Run()
			return nil
		})
		put("sim.event_ns", c.ns, "ns")
		put("sim.event_allocs", c.allocs, "count")
		return err
	}},
	{"sim.proc_switch", func(put putFunc) error {
		c, err := measureOps(layerReps, func(n int) error {
			k := sim.New(1)
			k.Go(func(p *sim.Proc) {
				for i := 0; i < n; i++ {
					p.Wait(sim.Microsecond)
				}
			})
			k.Run()
			return nil
		})
		put("sim.proc_switch_ns", c.ns, "ns")
		put("sim.proc_switch_allocs", c.allocs, "count")
		return err
	}},
	{"msg.sendrecv", func(put putFunc) error {
		c, err := measureOps(layerReps, func(n int) error {
			mach, err := newMachine(2, network.GigabitEthernet())
			if err != nil {
				return err
			}
			_, err = msg.Run(mach, msg.Options{}, func(r *msg.Rank) {
				for i := 0; i < n; i++ {
					if r.ID() == 0 {
						r.Send(1, 0, 64)
					} else {
						r.Recv(0, 0)
					}
				}
			})
			return err
		})
		put("msg.sendrecv_ns", c.ns, "ns")
		put("msg.sendrecv_allocs", c.allocs, "count")
		return err
	}},
	{"msg.allreduce64", func(put putFunc) error {
		// One machine, reset between runs, so only msg.Run and the
		// Allreduce are timed, not building the kernel and fabric.
		mach, err := newMachine(64, network.InfiniBand4X())
		if err != nil {
			return err
		}
		c, err := measureOps(layerReps, func(n int) error {
			for i := 0; i < n; i++ {
				mach.Reset()
				if _, err := msg.Run(mach, msg.Options{}, func(r *msg.Rank) { r.Allreduce(65536) }); err != nil {
					return err
				}
			}
			return nil
		})
		put("msg.allreduce64_us", c.ns/1e3, "us")
		put("msg.allreduce64_allocs", c.allocs, "count")
		put("msg.allreduce64_bytes", c.bytes, "B")
		return err
	}},
	{"network.loggp_send", func(put putFunc) error {
		c, err := measureOps(layerReps, func(n int) error {
			k := sim.New(1)
			f := network.NewLogGP(k, network.InfiniBand4X(), 64)
			for i := 0; i < n; i++ {
				f.Send(i%64, (i+1)%64, 4096, nil, nil)
				if k.Pending() > 10000 {
					k.Run()
				}
			}
			k.Run()
			return nil
		})
		put("network.loggp_send_ns", c.ns, "ns")
		return err
	}},
	{"network.packet_send", func(put putFunc) error {
		c, err := measureOps(layerReps, func(n int) error {
			k := sim.New(1)
			f := network.NewPacketNet(k, network.InfiniBand4X(), topology.FatTree(4, 2))
			for i := 0; i < n; i++ {
				f.Send(i%16, (i+5)%16, 8192, nil, nil)
				if k.Pending() > 10000 {
					k.Run()
				}
			}
			k.Run()
			return nil
		})
		put("network.packet_send_ns", c.ns, "ns")
		put("network.packet_send_allocs", c.allocs, "count")
		return err
	}},
	{"topology.route", func(put putFunc) error {
		g := topology.FatTree(8, 3)
		eps := g.Endpoints()
		c, err := measureOps(layerReps, func(n int) error {
			for i := 0; i < n; i++ {
				g.Route(eps[i%len(eps)], eps[(i*7+13)%len(eps)])
			}
			return nil
		})
		put("topology.route_ns", c.ns, "ns")
		put("topology.route_allocs", c.allocs, "count")
		return err
	}},
	{"sched.easy", func(put putFunc) error {
		const jobs = 1000
		trace, err := sched.GenerateTrace(sched.TraceConfig{Jobs: jobs, MaxNodes: 128, Load: 0.8, Seed: 1})
		if err != nil {
			return err
		}
		c, err := measureOps(layerReps, func(n int) error {
			for i := 0; i < n; i++ {
				cp := make([]*sched.Job, len(trace))
				for j, jb := range trace {
					v := *jb
					cp[j] = &v
				}
				if _, err := sched.Simulate(128, cp, sched.EASY{}); err != nil {
					return err
				}
			}
			return nil
		})
		put("sched.easy_us_per_job", c.ns/1e3/jobs, "us")
		return err
	}},
	{"fault.checkpoint", func(put putFunc) error {
		const runs = 10
		ck := fault.Checkpoint{
			Work:     168 * sim.Hour,
			Interval: sim.Hour,
			Overhead: 5 * sim.Minute,
			Restart:  10 * sim.Minute,
			MTBF:     12 * sim.Hour,
		}
		c, err := measureOps(layerReps, func(n int) error {
			for i := 0; i < n; i++ {
				if _, err := ck.Simulate(runs, int64(i)); err != nil {
					return err
				}
			}
			return nil
		})
		put("fault.checkpoint_rep_us", c.ns/1e3/runs, "us")
		return err
	}},
	{"mc.fanout", func(put putFunc) error {
		const tasks = 64
		p := mc.NewPool(runtime.NumCPU() - 1)
		defer p.Close()
		var slots [tasks]int
		c, err := measureOps(layerReps, func(n int) error {
			for i := 0; i < n; i++ {
				mc.ForEach(p, tasks, func(j int) { slots[j]++ })
			}
			return nil
		})
		put("mc.fanout_ns_per_task", c.ns/tasks, "ns")
		return err
	}},
	{"mc.replicate", func(put putFunc) error {
		width := runtime.NumCPU()
		seq, par := mc.NewPool(0), mc.NewPool(width-1)
		defer par.Close()
		out := make([]float64, 4096)
		body := func(r int, rng *rand.Rand) {
			s := 0.0
			for k := 0; k < 64; k++ {
				s += rng.ExpFloat64()
			}
			out[r] = s
		}
		timed := func(p *mc.Pool, shards int) (opCost, error) {
			return measureOps(layerReps, func(n int) error {
				for i := 0; i < n; i++ {
					mc.Replicate(p, shards, len(out), 42, body)
				}
				return nil
			})
		}
		one, err := timed(seq, 1)
		if err != nil {
			return err
		}
		all, err := timed(par, width)
		put("mc.replicate_speedup", one.ns/all.ns, "ratio")
		return err
	}},
	{"experiments.interp", func(put putFunc) error {
		sc, err := experiments.ScenarioByID(cheapestScenario)
		if err != nil {
			return err
		}
		c, err := measureOps(layerReps, func(n int) error {
			for i := 0; i < n; i++ {
				if err := sc.Validate(); err != nil {
					return err
				}
				if _, err := sc.Fingerprint(true); err != nil {
					return err
				}
				if _, err := sc.RunOn(nil, true); err != nil {
					return err
				}
			}
			return nil
		})
		put("experiments.interp_us", c.ns/1e3, "us")
		return err
	}},
	{"serve.handler", func(put putFunc) error {
		srv := serve.New(serve.Config{PoolWorkers: 1})
		defer srv.Close()
		h := srv.Handler()
		post := func(body []byte) error {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/scenario", bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				return fmt.Errorf("serve handler: status %d: %s", rec.Code, rec.Body.Bytes())
			}
			return nil
		}
		hot := []byte(`{"id":"` + cheapestScenario + `","quick":true}`)
		if err := post(hot); err != nil {
			return err
		}
		hit, err := measureOps(layerReps, func(n int) error {
			for i := 0; i < n; i++ {
				if err := post(hot); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		seed := int64(0)
		miss, err := measureOps(layerReps, func(n int) error {
			bodies := make([][]byte, n)
			for i := range bodies {
				seed++
				bodies[i], _ = json.Marshal(serve.Request{ID: cheapestScenario, Seed: &seed, Quick: true})
			}
			for _, b := range bodies {
				if err := post(b); err != nil {
					return err
				}
			}
			return nil
		})
		put("serve.hit_us", hit.ns/1e3, "us")
		put("serve.miss_us", miss.ns/1e3, "us")
		return err
	}},
}

// cheapestScenario is the registered scenario with the smallest
// interpretation cost.
const cheapestScenario = "E1"

func newMachine(nodes int, fabric network.Preset) (*machine.Machine, error) {
	return machine.New(machine.Config{
		Nodes:  nodes,
		Node:   node.MustBuild(node.Conventional, tech.Default2002(), 2002),
		Fabric: fabric,
		Seed:   1,
	})
}

// runLayers runs every layer benchmark, handing each figure to put.
func runLayers(put putFunc) error {
	for _, lb := range layerBenches {
		if err := lb.run(put); err != nil {
			return fmt.Errorf("layer %s: %w", lb.name, err)
		}
	}
	return nil
}
