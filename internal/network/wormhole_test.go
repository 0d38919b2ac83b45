package network

import (
	"math"
	"testing"

	"northstar/internal/sim"
	"northstar/internal/topology"
)

func TestWormholeSingleMessageMatchesPacketNet(t *testing.T) {
	// Uncontended, the credit-flow model and the reservation model must
	// agree closely.
	p := InfiniBand4X()
	for _, bytes := range []int64{1024, 64 << 10, 1 << 20} {
		k1 := sim.New(1)
		wh := NewWormholeNet(k1, p, topology.Crossbar(4), 8)
		var tW sim.Time
		wh.Send(0, 1, bytes, nil, func() { tW = k1.Now() })
		k1.Run()

		k2 := sim.New(1)
		pk := NewPacketNet(k2, p, topology.Crossbar(4))
		var tP sim.Time
		pk.Send(0, 1, bytes, nil, func() { tP = k2.Now() })
		k2.Run()

		if diff := math.Abs(float64(tW-tP)) / float64(tP); diff > 0.10 {
			t.Errorf("%d bytes: wormhole %v vs packet %v (%.1f%% apart)", bytes, tW, tP, diff*100)
		}
	}
}

func TestWormholeInjectionCallback(t *testing.T) {
	p := Myrinet2000()
	k := sim.New(1)
	wh := NewWormholeNet(k, p, topology.Crossbar(2), 4)
	var injected, delivered sim.Time
	wh.Send(0, 1, 256<<10, func() { injected = k.Now() }, func() { delivered = k.Now() })
	k.Run()
	if injected <= 0 || delivered <= 0 {
		t.Fatalf("injected=%v delivered=%v", injected, delivered)
	}
	if injected >= delivered {
		t.Fatalf("injection %v not before delivery %v", injected, delivered)
	}
}

func TestWormholeZeroByteMessage(t *testing.T) {
	k := sim.New(1)
	wh := NewWormholeNet(k, QsNet(), topology.Crossbar(2), 4)
	done := false
	wh.Send(0, 1, 0, nil, func() { done = true })
	k.Run()
	if !done {
		t.Fatal("zero-byte message never delivered")
	}
}

func TestWormholeBackpressureStalls(t *testing.T) {
	// Incast: many senders to one destination. With shallow buffers the
	// destination's link saturates and upstream packets stall for
	// credits; the stall counter must show it.
	p := InfiniBand4X()
	k := sim.New(1)
	g := topology.FatTree(4, 2)
	wh := NewWormholeNet(k, p, g, 2)
	const bytes = 1 << 20
	done := 0
	for src := 1; src < 16; src++ {
		wh.Send(src, 0, bytes, nil, func() { done++ })
	}
	k.Run()
	if done != 15 {
		t.Fatalf("delivered %d of 15 incast flows", done)
	}
	if wh.Stalls == 0 {
		t.Fatal("incast produced no credit stalls; flow control not engaged")
	}
}

func TestWormholeCongestionSpreadsToVictim(t *testing.T) {
	// The congestion-tree effect: a victim flow that merely shares
	// switches with an incast hotspot slows down, even though its own
	// destination is idle. Measure the victim's completion with and
	// without background incast.
	p := InfiniBand4X()
	const victimBytes = 256 << 10
	runVictim := func(withIncast bool) sim.Time {
		k := sim.New(1)
		g := topology.FatTree(4, 2)
		wh := NewWormholeNet(k, p, g, 2)
		if withIncast {
			for src := 4; src < 16; src++ {
				wh.Send(src, 1, 4<<20, nil, nil) // hotspot at endpoint 1
			}
		}
		var done sim.Time
		// Victim: endpoint 5 -> endpoint 2 (dst shares the hotspot's leaf
		// switch but is itself idle).
		wh.Send(5, 2, victimBytes, nil, func() { done = k.Now() })
		k.Run()
		return done
	}
	alone := runVictim(false)
	congested := runVictim(true)
	if congested < 2*alone {
		t.Errorf("victim under incast %v vs alone %v: congestion should spread (>2x)", congested, alone)
	}
}

func TestWormholeDeterministic(t *testing.T) {
	run := func() sim.Time {
		k := sim.New(3)
		wh := NewWormholeNet(k, Myrinet2000(), topology.FatTree(4, 2), 4)
		var last sim.Time
		for i := 0; i < 16; i++ {
			for j := 0; j < 16; j++ {
				if i != j {
					wh.Send(i, j, 32<<10, nil, func() { last = k.Now() })
				}
			}
		}
		k.Run()
		return last
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %v vs %v", a, b)
	}
}

func TestWormholeCreditsConserved(t *testing.T) {
	k := sim.New(1)
	wh := NewWormholeNet(k, QsNet(), topology.FatTree(2, 2), 3)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if i != j {
				wh.Send(i, j, 100<<10, nil, nil)
			}
		}
	}
	k.Run()
	for i, l := range wh.links {
		if l.credits != 3 {
			t.Fatalf("link %d ends with %d credits, want 3", i, l.credits)
		}
		if l.busy || l.waiting.len() != 0 || l.onWire.len() != 0 {
			t.Fatalf("link %d not quiescent", i)
		}
	}
}

// wormholeAlltoall builds a 16-endpoint fat tree and runs one 16 KiB
// all-to-all over it.
func wormholeAlltoall() {
	k := sim.New(1)
	wh := NewWormholeNet(k, InfiniBand4X(), topology.FatTree(4, 2), 4)
	for s := 0; s < 16; s++ {
		for d := 0; d < 16; d++ {
			if s != d {
				wh.Send(s, d, 16<<10, nil, nil)
			}
		}
	}
	k.Run()
}

func BenchmarkWormholeAlltoall(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		wormholeAlltoall()
	}
}

func TestWormholeAlltoallAllocs(t *testing.T) {
	// 23,428 allocations per all-to-all when every packet and hop
	// allocated its own closures; the bound is 10% of that. What is left
	// is building the kernel, topology routes and fabric, and warming
	// their pools.
	if a := testing.AllocsPerRun(5, wormholeAlltoall); a > 2342 {
		t.Fatalf("wormhole all-to-all allocates %.0f times, want <= 2342", a)
	}
}

func TestWormholeSteadyStateAllocFree(t *testing.T) {
	// On a reused fabric the send path allocates nothing.
	k := sim.New(1)
	wh := NewWormholeNet(k, Myrinet2000(), topology.FatTree(4, 2), 2)
	delivered := 0
	onDelivered := func() { delivered++ }
	round := func() {
		for s := 0; s < 16; s++ {
			wh.Send(s, (s+5)%16, 40<<10, nil, onDelivered)
		}
		k.Run()
	}
	round()
	round()
	if a := testing.AllocsPerRun(10, round); a != 0 {
		t.Fatalf("steady-state wormhole round allocates %.0f times, want 0", a)
	}
	if delivered != 13*16 {
		t.Fatalf("delivered %d messages, want %d", delivered, 13*16)
	}
}
