// Package workload provides parallel application skeletons — the codes
// the keynote's cluster users actually run — expressed over the msg
// layer: a latency/bandwidth microbenchmark, a Jacobi stencil, a
// distributed FFT transpose, an embarrassingly parallel kernel, a sparse
// conjugate-gradient loop, a dense LU factorization in the HPL mold, and
// a master/worker task farm. Each skeleton performs the communication
// pattern and roofline-modeled compute of the real code without the
// numerics, which is exactly what the architecture/fabric experiments
// (E4–E7) need.
package workload

import (
	"fmt"
	"math"

	"northstar/internal/machine"
	"northstar/internal/msg"
	"northstar/internal/sim"
)

// App is a parallel application skeleton, runnable SPMD-style.
type App interface {
	// Name identifies the app (for reports).
	Name() string
	// Run is the per-rank program body.
	Run(r *msg.Rank)
}

// Report summarizes one application execution.
type Report struct {
	App     string
	Nodes   int
	Elapsed sim.Time
	// TotalFlops is the useful work performed across all ranks.
	TotalFlops float64
	// SustainedFlops is TotalFlops / Elapsed.
	SustainedFlops float64
	// Efficiency is SustainedFlops over the machine's peak.
	Efficiency float64
	// BytesSent is total fabric traffic.
	BytesSent int64
	// MeanComputeTime and MeanCommTime are per-rank averages.
	MeanComputeTime sim.Time
	MeanCommTime    sim.Time
}

// String renders the report on one line.
func (rep Report) String() string {
	return fmt.Sprintf("%s on %d nodes: %v elapsed, %.3g flops sustained (%.1f%% of peak), %d bytes moved",
		rep.App, rep.Nodes, rep.Elapsed, rep.SustainedFlops, rep.Efficiency*100, rep.BytesSent)
}

// Execute runs app on machine m and returns its report.
func Execute(m *machine.Machine, opts msg.Options, app App) (Report, error) {
	c := msg.NewComm(m, opts)
	end, err := c.Start(app.Run)
	if err != nil {
		return Report{}, fmt.Errorf("workload %s: %w", app.Name(), err)
	}
	rep := Report{App: app.Name(), Nodes: m.Nodes(), Elapsed: end}
	for i := 0; i < c.Size(); i++ {
		s := c.Rank(i).Stats
		rep.TotalFlops += s.Flops
		rep.BytesSent += s.BytesSent
		rep.MeanComputeTime += s.ComputeTime
		rep.MeanCommTime += s.CommTime
	}
	n := sim.Time(c.Size())
	rep.MeanComputeTime /= n
	rep.MeanCommTime /= n
	if end > 0 {
		rep.SustainedFlops = rep.TotalFlops / float64(end)
		rep.Efficiency = rep.SustainedFlops / m.PeakFlops()
	}
	return rep, nil
}

// PingPong bounces a message between ranks 0 and 1 Reps times; all other
// ranks idle. With Reps >= 1 and two nodes it is the standard
// latency/bandwidth microbenchmark (experiment E5).
type PingPong struct {
	Bytes int64
	Reps  int
}

// Name implements App.
func (p PingPong) Name() string { return fmt.Sprintf("pingpong-%dB", p.Bytes) }

// Run implements App.
func (p PingPong) Run(r *msg.Rank) {
	if r.Size() < 2 {
		panic("workload: pingpong needs 2 ranks")
	}
	reps := p.Reps
	if reps <= 0 {
		reps = 1
	}
	switch r.ID() {
	case 0:
		for i := 0; i < reps; i++ {
			r.Send(1, 0, p.Bytes)
			r.Recv(1, 0)
		}
	case 1:
		for i := 0; i < reps; i++ {
			r.Recv(0, 0)
			r.Send(0, 0, p.Bytes)
		}
	}
}

// Stencil2D is an iterative 5-point Jacobi relaxation on a GridX×GridY
// global grid, block-decomposed over an approximately square process
// grid. Each iteration exchanges one-cell halos with up to four
// neighbors, then relaxes: ~5 flops and ~6 memory accesses (8 B each)
// per point — memory-bandwidth-bound on every 2002-era node, which is
// why PIM wins it (experiment E4).
type Stencil2D struct {
	GridX, GridY int
	Iters        int
}

// Name implements App.
func (s Stencil2D) Name() string {
	return fmt.Sprintf("stencil2d-%dx%dx%d", s.GridX, s.GridY, s.Iters)
}

// Run implements App.
func (s Stencil2D) Run(r *msg.Rank) {
	p := r.Size()
	px, py := processGrid(p)
	myX, myY := r.ID()%px, r.ID()/px
	localX := s.GridX / px
	localY := s.GridY / py
	if localX < 1 || localY < 1 {
		panic("workload: stencil grid smaller than process grid")
	}
	points := float64(localX) * float64(localY)
	const elem = 8
	haloX := int64(localX * elem) // north/south exchange size
	haloY := int64(localY * elem) // east/west exchange size

	neighbor := func(dx, dy int) int {
		nx, ny := myX+dx, myY+dy
		if nx < 0 || nx >= px || ny < 0 || ny >= py {
			return -1
		}
		return ny*px + nx
	}
	type exch struct {
		peer  int
		bytes int64
	}
	var peers []exch
	for _, e := range []exch{
		{neighbor(-1, 0), haloY}, {neighbor(1, 0), haloY},
		{neighbor(0, -1), haloX}, {neighbor(0, 1), haloX},
	} {
		if e.peer >= 0 {
			peers = append(peers, e)
		}
	}
	for it := 0; it < s.Iters; it++ {
		var reqs []msg.Request
		for _, e := range peers {
			reqs = append(reqs, r.IRecv(e.peer, it))
		}
		for _, e := range peers {
			r.Send(e.peer, it, e.bytes)
		}
		msg.WaitAll(reqs...)
		// 5-point relaxation: 4 adds + 1 multiply; read 5 + write 1.
		r.Compute(5*points, 6*elem*points)
	}
}

// processGrid factors p into the most square px×py grid.
func processGrid(p int) (px, py int) {
	px = int(math.Sqrt(float64(p)))
	for p%px != 0 {
		px--
	}
	return px, p / px
}

// FFT1D is a distributed 1D complex FFT of N points via the transpose
// method: local FFT, global alltoall transpose, local FFT. Its alltoall
// makes it the bisection-bandwidth stress test (experiment E7).
type FFT1D struct {
	N int64 // total complex points; must be >= Size
}

// Name implements App.
func (f FFT1D) Name() string { return fmt.Sprintf("fft1d-%d", f.N) }

// Run implements App.
func (f FFT1D) Run(r *msg.Rank) {
	p := int64(r.Size())
	local := f.N / p
	if local < 1 {
		panic("workload: FFT smaller than communicator")
	}
	const elem = 16 // complex128
	// 5 N log2 N flops total for a complex FFT, split across two phases.
	logN := math.Log2(float64(f.N))
	phaseFlops := 2.5 * float64(local) * logN
	phaseBytes := float64(local*elem) * 2 // streaming read+write

	r.Compute(phaseFlops, phaseBytes)
	// Transpose: each rank sends local/p elements to every other rank.
	r.Alltoall(local / p * elem)
	r.Compute(phaseFlops, phaseBytes)
}

// EP is the embarrassingly parallel kernel: pure local compute with a
// trivial final reduction — insensitive to both fabric and memory
// system, the control case in E4.
type EP struct {
	FlopsPerRank float64
}

// Name implements App.
func (e EP) Name() string { return "ep" }

// Run implements App.
func (e EP) Run(r *msg.Rank) {
	// Compute-bound: negligible memory traffic.
	r.Compute(e.FlopsPerRank, e.FlopsPerRank/64)
	r.Allreduce(8)
}

// CG is a conjugate-gradient-style sparse solver skeleton on an N-row
// matrix with NNZPerRow nonzeros, row-partitioned. Each iteration is a
// sparse matvec (memory-bound), a halo exchange with ring neighbors, and
// two 8-byte allreduces (the dot products) — the latency-sensitive
// workload of E4/E6.
type CG struct {
	N         int64
	NNZPerRow int
	Iters     int
}

// Name implements App.
func (c CG) Name() string { return fmt.Sprintf("cg-%d", c.N) }

// Run implements App.
func (c CG) Run(r *msg.Rank) {
	p := int64(r.Size())
	rows := c.N / p
	if rows < 1 {
		panic("workload: CG smaller than communicator")
	}
	nnz := float64(rows) * float64(c.NNZPerRow)
	const elem = 8
	haloBytes := int64(float64(rows) * 0.05 * elem) // 5% boundary rows
	if haloBytes < elem {
		haloBytes = elem
	}
	right := (r.ID() + 1) % int(p)
	left := (r.ID() - 1 + int(p)) % int(p)
	for it := 0; it < c.Iters; it++ {
		if p > 1 {
			r.SendRecv(right, it, haloBytes, left, it)
		}
		// SpMV: 2 flops/nonzero; ~12 bytes/nonzero (value + index + x).
		r.Compute(2*nnz, 12*nnz)
		r.Allreduce(8)
		// Vector updates: 3 axpy-like sweeps.
		r.Compute(6*float64(rows), 3*3*elem*float64(rows))
		r.Allreduce(8)
	}
}

// HPL is a dense LU factorization skeleton in the High-Performance
// Linpack mold: for each block column, the owner factors the panel and
// broadcasts it, then everyone applies a trailing-matrix update. Dense
// compute dominates (2/3 N³ flops), so it tracks peak flops — the
// benchmark the keynote's "trans-Petaflops regime" is measured by.
type HPL struct {
	N  int64 // matrix dimension
	NB int64 // block size
}

// Name implements App.
func (h HPL) Name() string { return fmt.Sprintf("hpl-%d", h.N) }

// Run implements App.
func (h HPL) Run(r *msg.Rank) {
	p := int64(r.Size())
	nb := h.NB
	if nb <= 0 {
		nb = 64
	}
	const elem = 8
	steps := h.N / nb
	for k := int64(0); k < steps; k++ {
		trailing := float64(h.N - k*nb)
		owner := int(k % p)
		if r.ID() == owner {
			// Panel factorization: ~nb^2 * trailing flops, owner only.
			r.Compute(float64(nb*nb)*trailing, float64(nb)*trailing*elem)
		}
		r.Bcast(owner, nb*int64(trailing)*elem)
		// Trailing update: 2*nb*trailing^2 flops split across ranks;
		// blocked DGEMM reuses cache, so memory traffic is small.
		flops := 2 * float64(nb) * trailing * trailing / float64(p)
		r.Compute(flops, flops/16)
	}
	r.Barrier()
}

// MasterWorker is a task farm: rank 0 dispatches Tasks units of
// TaskFlops work to workers and collects ResultBytes replies, modeling
// the commercial/throughput uses the keynote expects clusters to absorb.
type MasterWorker struct {
	Tasks       int
	TaskFlops   float64
	ResultBytes int64
}

// Name implements App.
func (mw MasterWorker) Name() string { return fmt.Sprintf("masterworker-%d", mw.Tasks) }

// Run implements App. The protocol distinguishes work from shutdown by
// message size: a work assignment is a taskBytes-byte descriptor, a stop
// is zero bytes on the same tag.
func (mw MasterWorker) Run(r *msg.Rank) {
	const (
		tagWork   = 1
		tagDone   = 2
		taskBytes = 128
	)
	if r.Size() < 2 {
		panic("workload: master/worker needs 2 ranks")
	}
	if r.ID() == 0 {
		assigned := 0
		for w := 1; w < r.Size() && assigned < mw.Tasks; w++ {
			r.Send(w, tagWork, taskBytes)
			assigned++
		}
		primed := assigned
		for results := 0; results < mw.Tasks; results++ {
			from, _ := r.Recv(msg.AnySource, tagDone)
			if assigned < mw.Tasks {
				r.Send(from, tagWork, taskBytes)
				assigned++
			} else {
				r.Send(from, tagWork, 0) // stop
			}
		}
		// Workers that never received a task still need a stop.
		for w := primed + 1; w < r.Size(); w++ {
			r.Send(w, tagWork, 0)
		}
	} else {
		for {
			_, n := r.Recv(0, tagWork)
			if n == 0 {
				return
			}
			r.Compute(mw.TaskFlops, mw.TaskFlops/8)
			r.Send(0, tagDone, mw.ResultBytes)
		}
	}
}
