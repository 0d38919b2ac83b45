package msg

// Additional collectives: gather, scatter, reduce-scatter, and scan.
// Like the core set, each rank calls these in lockstep and blocks until
// its own part completes.

// Gather collects bytes from every rank onto root (root ends with
// P·bytes). Binomial tree: each internal vertex forwards its whole
// subtree's data, so wire volume doubles per level like MPICH's
// implementation.
func (r *Rank) Gather(root int, bytes int64) {
	r.collEpoch++
	p := r.Size()
	if p == 1 {
		return
	}
	vrank := (r.id - root + p) % p
	for mask := 1; mask < p; mask <<= 1 {
		if vrank&mask != 0 {
			// Send my accumulated subtree (min(mask, p-vrank) ranks'
			// worth) to the parent and exit.
			sub := mask
			if p-vrank < sub {
				sub = p - vrank
			}
			dst := ((vrank &^ mask) + root) % p
			r.Send(dst, r.collTag(0), int64(sub)*bytes)
			return
		}
		srcV := vrank | mask
		if srcV < p {
			src := (srcV + root) % p
			r.Recv(src, r.collTag(0))
		}
	}
}

// Scatter distributes bytes to every rank from root (each rank receives
// bytes; root starts with P·bytes). Reverse binomial tree: each vertex
// forwards the half of its payload destined for the subtree it peels
// off.
func (r *Rank) Scatter(root int, bytes int64) {
	r.collEpoch++
	p := r.Size()
	if p == 1 {
		return
	}
	vrank := (r.id - root + p) % p
	// Find my subtree span: the largest mask at which I receive.
	mask := 1
	for mask < p {
		if vrank&mask != 0 {
			break
		}
		mask <<= 1
	}
	if vrank != 0 {
		src := ((vrank &^ mask) + root) % p
		r.Recv(src, r.collTag(0))
	} else {
		mask = 1
		for mask < p {
			mask <<= 1
		}
	}
	// Forward to children in descending order.
	for mask >>= 1; mask > 0; mask >>= 1 {
		if vrank+mask < p {
			sub := mask
			if p-(vrank+mask) < sub {
				sub = p - (vrank + mask)
			}
			dst := ((vrank + mask) + root) % p
			r.Send(dst, r.collTag(0), int64(sub)*bytes)
		}
	}
}

// ReduceScatter combines P·bytes across all ranks and leaves each rank
// with its bytes-sized share of the result — the first half of a ring
// allreduce, useful on its own for distributed matrix kernels. Ring
// algorithm: P-1 steps of bytes each.
func (r *Rank) ReduceScatter(bytes int64) {
	r.collEpoch++
	p := r.Size()
	if p == 1 {
		return
	}
	right := (r.id + 1) % p
	left := (r.id - 1 + p) % p
	for step := 0; step < p-1; step++ {
		r.SendRecv(right, r.collTag(step), bytes, left, r.collTag(step))
		r.reduceCost(bytes)
	}
}

// Scan computes an inclusive prefix reduction: rank i ends with the
// combination of ranks 0..i's contributions. Hillis–Steele recursive
// doubling: ceil(log2 P) rounds, each shipping the full vector.
func (r *Rank) Scan(bytes int64) {
	r.collEpoch++
	p := r.Size()
	if p == 1 {
		return
	}
	for round, mask := 0, 1; mask < p; round, mask = round+1, mask*2 {
		var req Request
		recv := r.id-mask >= 0
		if recv {
			req = r.IRecv(r.id-mask, r.collTag(round))
		}
		if r.id+mask < p {
			r.Send(r.id+mask, r.collTag(round), bytes)
		}
		if recv {
			req.Wait()
			r.reduceCost(bytes)
		}
	}
}

// allreduceSMP is the SMP-aware allreduce: intra-node reduction to each
// node's leader rank over shared memory, recursive-doubling allreduce
// among leaders over the wire (one NIC crossing per node instead of one
// per rank), then intra-node broadcast. Requires ranks to be laid out
// node-major, which the machine guarantees.
func (r *Rank) allreduceSMP(bytes int64) {
	rpn := r.comm.mach.RanksPerNode()
	p := r.Size()
	if rpn <= 1 || p <= rpn {
		r.allreduceRD(bytes)
		return
	}
	leader := (r.id / rpn) * rpn
	if r.id != leader {
		// Fold into the leader, then wait for the result.
		r.Send(leader, r.collTag(40), bytes)
		r.Recv(leader, r.collTag(41))
		return
	}
	for member := leader + 1; member < leader+rpn && member < p; member++ {
		r.Recv(member, r.collTag(40))
		r.reduceCost(bytes)
	}
	// Leaders run recursive doubling among themselves.
	nodes := (p + rpn - 1) / rpn
	myNode := r.id / rpn
	pof2 := 1
	for pof2*2 <= nodes {
		pof2 *= 2
	}
	rem := nodes - pof2
	newRank := -1
	switch {
	case myNode < 2*rem && myNode%2 == 0:
		r.Send((myNode+1)*rpn, r.collTag(42), bytes)
	case myNode < 2*rem:
		r.Recv((myNode-1)*rpn, r.collTag(42))
		r.reduceCost(bytes)
		newRank = myNode / 2
	default:
		newRank = myNode - rem
	}
	if newRank >= 0 {
		realNode := func(nr int) int {
			if nr < rem {
				return nr*2 + 1
			}
			return nr + rem
		}
		for mask := 1; mask < pof2; mask <<= 1 {
			partner := realNode(newRank^mask) * rpn
			r.SendRecv(partner, r.collTag(43), bytes, partner, r.collTag(43))
			r.reduceCost(bytes)
		}
	}
	switch {
	case myNode < 2*rem && myNode%2 == 0:
		r.Recv((myNode+1)*rpn, r.collTag(44))
	case myNode < 2*rem:
		r.Send((myNode-1)*rpn, r.collTag(44), bytes)
	}
	// Fan the result back out within the node.
	for member := leader + 1; member < leader+rpn && member < p; member++ {
		r.Send(member, r.collTag(41), bytes)
	}
}
