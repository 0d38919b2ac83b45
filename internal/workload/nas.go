package workload

import (
	"fmt"
	"math"

	"northstar/internal/msg"
)

// MG is a multigrid V-cycle skeleton in the NAS MG mold: each cycle
// relaxes on a hierarchy of grids from fine to coarse and back. Fine
// levels move large halos (bandwidth-bound); coarse levels move tiny
// halos whose cost is pure latency — so MG stresses both ends of the
// fabric curve at once, which neither the stencil nor the ping-pong
// does.
type MG struct {
	// Grid is the fine-grid edge (points per dimension, global).
	Grid int
	// Levels is the V-cycle depth (0 = as deep as the local grid allows).
	Levels int
	// Cycles is the number of V-cycles.
	Cycles int
}

// Name implements App.
func (m MG) Name() string { return fmt.Sprintf("mg-%d-l%d", m.Grid, m.Levels) }

// Run implements App.
func (m MG) Run(r *msg.Rank) {
	p := r.Size()
	px, py := processGrid(p)
	myX, myY := r.ID()%px, r.ID()/px
	localX := m.Grid / px
	localY := m.Grid / py
	if localX < 2 || localY < 2 {
		panic("workload: MG grid smaller than process grid")
	}
	levels := m.Levels
	maxLevels := int(math.Log2(float64(min2(localX, localY))))
	if levels <= 0 || levels > maxLevels {
		levels = maxLevels
	}
	cycles := m.Cycles
	if cycles <= 0 {
		cycles = 1
	}
	neighbor := func(dx, dy int) int {
		nx, ny := myX+dx, myY+dy
		if nx < 0 || nx >= px || ny < 0 || ny >= py {
			return -1
		}
		return ny*px + nx
	}
	peers := []int{neighbor(-1, 0), neighbor(1, 0), neighbor(0, -1), neighbor(0, 1)}
	const elem = 8
	exchange := func(lx, ly, tag int) {
		var reqs []msg.Request
		sizes := []int64{int64(ly * elem), int64(ly * elem), int64(lx * elem), int64(lx * elem)}
		for i, peer := range peers {
			if peer >= 0 {
				reqs = append(reqs, r.IRecv(peer, tag))
				_ = sizes[i]
			}
		}
		for i, peer := range peers {
			if peer >= 0 {
				r.Send(peer, tag, sizes[i])
			}
		}
		msg.WaitAll(reqs...)
	}
	tag := 0
	for c := 0; c < cycles; c++ {
		// Down sweep: fine -> coarse (restriction), then up (prolongation).
		for pass := 0; pass < 2; pass++ {
			for l := 0; l < levels; l++ {
				level := l
				if pass == 1 {
					level = levels - 1 - l
				}
				lx := localX >> uint(level)
				ly := localY >> uint(level)
				points := float64(lx) * float64(ly)
				exchange(lx, ly, tag)
				tag++
				// Relaxation: ~9 flops, ~10 accesses per point.
				r.Compute(9*points, 10*elem*points)
			}
		}
		// Coarse-grid residual norm: a scalar allreduce per cycle.
		r.Allreduce(8)
	}
}

func min2(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// IS is the NAS Integer Sort pattern: rank local key counting, a bucket
// histogram allreduce, an alltoall redistribution of the keys, and a
// local ranking pass. Communication (the alltoall) dominates for all
// but tiny problems, making IS the classic bisection-bandwidth
// benchmark.
type IS struct {
	// Keys is the total key count.
	Keys int64
}

// Name implements App.
func (s IS) Name() string { return fmt.Sprintf("is-%d", s.Keys) }

// Run implements App.
func (s IS) Run(r *msg.Rank) {
	p := int64(r.Size())
	local := s.Keys / p
	if local < 1 {
		panic("workload: IS smaller than communicator")
	}
	const keyBytes = 4
	// Local histogram: one pass over the keys.
	r.Compute(float64(local), 2*keyBytes*float64(local))
	// Bucket-boundary agreement: histogram allreduce (1024 buckets).
	r.Allreduce(1024 * keyBytes)
	// Key redistribution: on average local/p keys to every peer.
	r.Alltoall(local / p * keyBytes)
	// Local ranking pass over received keys.
	r.Compute(float64(local), 2*keyBytes*float64(local))
}
