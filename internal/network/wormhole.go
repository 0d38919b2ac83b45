package network

import (
	"fmt"

	"northstar/internal/sim"
	"northstar/internal/topology"
)

// WormholeNet is the highest-fidelity fabric model: event-driven
// per-hop packet forwarding with credit-based flow control, as in
// InfiniBand and the proprietary 2002 fabrics. Each directed link has a
// finite downstream input buffer (BufferPackets); a packet may start
// crossing a link only when the link is idle AND a buffer slot is free
// on the far side. When a destination is oversubscribed, its buffers
// fill, upstream packets stall holding *their* buffers, and congestion
// spreads backwards through the switches — the congestion-tree /
// head-of-line-blocking behavior the era's fabric papers fought, which
// the reservation-based PacketNet cannot express.
//
// Compared to PacketNet, WormholeNet serializes packets in true arrival
// order at every link and lets unrelated traffic be delayed by a
// saturated hotspot it merely shares a switch with.
//
// Caution: like real wormhole fabrics without virtual channels, cyclic
// topologies (tori, hypercubes) can deadlock under heavy load — buffer
// cycles are a physical phenomenon this model reproduces faithfully.
// Use it on up/down-routed topologies (crossbar, fat tree), as the
// 2002 fabrics did.
type WormholeNet struct {
	Counters
	k *sim.Kernel
	p Preset
	g *topology.Graph
	// BufferPackets is the input-buffer depth per directed link.
	bufferPackets int
	eps           []int
	links         []wlink
	probe         Probe
	// Stalls counts packet-start attempts deferred for want of a credit
	// — the congestion metric.
	Stalls int64
	// Per-send routing scratch.
	scrEdges []int
	scrVerts []int

	// The steady-state send path allocates nothing: message state is
	// recycled through spare, packets travel by value through the link
	// queues, and every event callback is bound once. Each callback
	// finds its packet or message at the head of a FIFO, because the
	// events it serves fire in the order they were scheduled: every
	// Send waits the same overhead (injecting), every packet the same
	// wire latency at its destination (landing), and a link transmits
	// one packet at a time with the same per-hop delay (wlink.onWire).
	spare      []*wmsg
	injecting  fifo[*wmsg] // sent, waiting out the sender overhead
	landing    fifo[*wmsg] // a packet of each arrived, waiting out the latency
	injectNext func()
	landNext   func()
}

// wlink is one directed link's flow-control state.
type wlink struct {
	busy    bool
	credits int           // free slots in the downstream input buffer
	waiting fifo[wpacket] // queued for the link
	onWire  fifo[wpacket] // crossing it, in arrival order
	free    func()        // bound: the wire is free for the next packet
	arrive  func()        // bound: the head of onWire reached the far end
}

// wpacket is one packet in flight.
type wpacket struct {
	m       *wmsg
	size    int64
	hop     int // next link index to traverse
	inbound int // directed link whose buffer slot we occupy (-1 at source)
	// onFirstHop fires when the packet clears the source's injection
	// link (set on a message's last packet, for local send completion).
	onFirstHop func()
}

// wmsg is one message's state from Send until its last packet lands.
type wmsg struct {
	dlinks      []int  // directed link ids along the route
	route       [8]int // dlinks' storage for routes of up to 8 hops
	bytes       int64
	npkts       int64
	pending     int // packets not yet landed
	sendAt      sim.Time
	onInjected  func()
	onDelivered func()
}

// fifo is a head-indexed queue: a pop advances the head instead of
// reslicing, so the backing array is reused once the queue drains.
type fifo[T any] struct {
	buf  []T
	head int
}

func (q *fifo[T]) len() int { return len(q.buf) - q.head }

func (q *fifo[T]) push(v T) {
	if q.buf == nil {
		q.buf = make([]T, 0, 16)
	} else if q.head > 0 && len(q.buf) == cap(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, v)
}

func (q *fifo[T]) pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head++
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return v
}

func (q *fifo[T]) reset() {
	clear(q.buf)
	q.buf, q.head = q.buf[:0], 0
}

// NewWormholeNet builds a wormhole fabric over g with the preset's
// timing and the given per-link input-buffer depth (packets). A depth
// of 0 uses the conventional 4.
func NewWormholeNet(k *sim.Kernel, p Preset, g *topology.Graph, bufferPackets int) *WormholeNet {
	if bufferPackets <= 0 {
		bufferPackets = 4
	}
	f := &WormholeNet{
		k: k, p: p, g: g,
		bufferPackets: bufferPackets,
		eps:           g.Endpoints(),
		links:         make([]wlink, 2*g.Edges()),
	}
	for i := range f.links {
		l := &f.links[i]
		l.credits = bufferPackets
		l.free = func() {
			l.busy = false
			f.tryStart(i)
		}
		l.arrive = func() { f.arrive(i) }
	}
	f.injectNext = f.inject
	f.landNext = f.land
	f.SetProbe(newProbe())
	return f
}

// SetProbe attaches p (nil detaches); the fabric registers its directed
// link count with the probe. Probes observe, never perturb.
func (f *WormholeNet) SetProbe(p Probe) {
	f.probe = p
	if p != nil {
		p.FabricBuilt(KindWormhole, 2*f.g.Edges())
	}
}

// Name implements Fabric.
func (f *WormholeNet) Name() string { return f.p.Name + "/wormhole/" + f.g.Name }

// Kernel implements Fabric.
func (f *WormholeNet) Kernel() *sim.Kernel { return f.k }

// NumEndpoints implements Fabric.
func (f *WormholeNet) NumEndpoints() int { return len(f.eps) }

// Graph returns the underlying topology.
func (f *WormholeNet) Graph() *topology.Graph { return f.g }

// Reset implements Fabric: every link idle with a full credit pool, no
// waiting packets, counters zeroed. Call only after a drained run; a
// packet still in flight would resume against the refilled credits.
func (f *WormholeNet) Reset() {
	f.Counters.reset()
	f.Stalls = 0
	for i := range f.links {
		l := &f.links[i]
		l.busy = false
		l.credits = f.bufferPackets
		l.waiting.reset()
		l.onWire.reset()
	}
	f.injecting.reset()
	f.landing.reset()
}

// Send implements Fabric.
func (f *WormholeNet) Send(src, dst int, bytes int64, onInjected, onDelivered func()) {
	if src < 0 || src >= len(f.eps) || dst < 0 || dst >= len(f.eps) {
		panic(fmt.Sprintf("network: endpoint out of range: %d->%d of %d", src, dst, len(f.eps)))
	}
	if bytes < 0 {
		panic("network: negative message size")
	}
	if src == dst {
		panic("network: self-send must be handled above the fabric")
	}
	f.count(bytes)

	m := f.newMsg()
	edges, verts := f.g.RouteAppend(f.eps[src], f.eps[dst], f.scrEdges, f.scrVerts)
	f.scrEdges, f.scrVerts = edges, verts
	for i, e := range edges {
		dir := 0
		if f.g.Edge(e).A != verts[i] {
			dir = 1
		}
		m.dlinks = append(m.dlinks, 2*e+dir)
	}
	mtu := int64(f.p.MTU)
	npkts := bytes / mtu
	if bytes%mtu != 0 || bytes == 0 {
		npkts++
	}
	m.bytes, m.npkts, m.pending = bytes, npkts, int(npkts)
	m.sendAt = f.k.Now()
	m.onInjected, m.onDelivered = onInjected, onDelivered
	if f.probe != nil {
		f.probe.MessageInjected(KindWormhole, bytes, npkts)
	}
	f.injecting.push(m)
	f.k.After(f.p.Overhead, f.injectNext)
}

func (f *WormholeNet) newMsg() *wmsg {
	if n := len(f.spare); n > 0 {
		m := f.spare[n-1]
		f.spare = f.spare[:n-1]
		return m
	}
	m := &wmsg{}
	m.dlinks = m.route[:0]
	return m
}

// inject segments the message whose sender overhead has elapsed into
// packets and queues them on its injection link. The last packet
// carries the local-completion callback: it fires when that packet
// clears the first link.
func (f *WormholeNet) inject() {
	m := f.injecting.pop()
	mtu := int64(f.p.MTU)
	remaining := m.bytes
	for i := int64(0); i < m.npkts; i++ {
		size := mtu
		if remaining < mtu {
			size = remaining
		}
		remaining -= size
		if size <= 0 {
			size = 64
		}
		pkt := wpacket{m: m, size: size, inbound: -1}
		if i == m.npkts-1 {
			pkt.onFirstHop = m.onInjected
		}
		f.enqueue(pkt)
	}
}

// enqueue places the packet on its next link's wait queue and pokes the
// link.
func (f *WormholeNet) enqueue(pkt wpacket) {
	dl := pkt.m.dlinks[pkt.hop]
	f.links[dl].waiting.push(pkt)
	f.tryStart(dl)
}

// tryStart launches the head packet of link dl if the link is idle and a
// downstream buffer slot is available.
func (f *WormholeNet) tryStart(dl int) {
	l := &f.links[dl]
	if l.busy || l.waiting.len() == 0 {
		return
	}
	if l.credits <= 0 {
		f.Stalls++
		return // backpressure: wait for a credit return
	}
	pkt := l.waiting.pop()
	l.credits--
	l.busy = true
	tx := sim.Time(pkt.size) * f.p.ByteTime
	if tx < f.p.Gap {
		tx = f.p.Gap
	}
	if f.probe != nil {
		f.probe.LinkBusy(KindWormhole, tx)
	}
	l.onWire.push(pkt)
	f.k.After(tx, l.free)
	f.k.After(tx+f.p.PerHopDelay, l.arrive)
}

// arrive handles the head packet of link dl reaching the far end: it
// releases the slot the packet held on the previous hop's buffer, then
// continues or delivers.
func (f *WormholeNet) arrive(dl int) {
	pkt := f.links[dl].onWire.pop()
	if pkt.onFirstHop != nil {
		pkt.onFirstHop()
		pkt.onFirstHop = nil
	}
	if pkt.inbound >= 0 {
		f.links[pkt.inbound].credits++
		f.tryStart(pkt.inbound)
	}
	pkt.inbound = dl
	pkt.hop++
	if pkt.hop >= len(pkt.m.dlinks) {
		// Arrived at the destination endpoint: free the final buffer
		// after the wire latency and deliver.
		f.links[pkt.inbound].credits++
		f.tryStart(pkt.inbound)
		f.landing.push(pkt.m)
		f.k.After(f.p.Latency, f.landNext)
		return
	}
	f.enqueue(pkt)
}

// land counts one packet of the oldest landing message as delivered;
// the last one schedules the caller's delivery and recycles the message.
func (f *WormholeNet) land() {
	m := f.landing.pop()
	m.pending--
	if m.pending > 0 {
		return
	}
	// The receiver CPU overhead is still ahead; charge it analytically
	// so the latency matches what the caller's onDelivered handler will
	// observe.
	if f.probe != nil {
		f.probe.MessageDelivered(KindWormhole, m.bytes, f.k.Now()+f.p.Overhead-m.sendAt)
	}
	if m.onDelivered != nil {
		f.k.After(f.p.Overhead, m.onDelivered)
	}
	m.dlinks = m.dlinks[:0]
	m.onInjected, m.onDelivered = nil, nil
	f.spare = append(f.spare, m)
}
