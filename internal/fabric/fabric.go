// Package fabric simulates the physical network joining the hosts: per-node
// egress and ingress ports with line-rate serialization, propagation delay,
// bounded buffering, optional random loss, and 802.3x-style link-level
// pause (flow control).
//
// The fabric is deliberately dumb: it moves packets and can lose them.
// Reliability is the transports' job (internal/rc, internal/tcp), and NPF
// handling is the NIC's and driver's job — exactly the paper's layering.
package fabric

import (
	"fmt"

	"npf/internal/sim"
)

// NodeID identifies one host/NIC attachment point.
type NodeID int

// FlowID steers packets to a receive ring at the destination NIC. Flow
// assignment is the simulator's stand-in for RSS/flow-steering hardware.
type FlowID int64

// Packet is one frame on the wire. Size covers headers+payload for timing;
// Payload carries the protocol message as a Go value.
//
// Ownership: from Send until Deliver returns, the sender must neither
// modify the packet nor send it again. The fabric owns the packet while it
// is in flight, and Send panics on a packet that is still in flight. The
// fabric releases it when it drops it or just before Deliver; from then on
// the receiving endpoint owns it and may keep it past Deliver or send it
// again, from Deliver or later.
type Packet struct {
	Src, Dst NodeID
	Flow     FlowID
	Size     int
	Payload  any

	// hop is the node whose port holds the packet, or toward whose
	// ingress it is propagating. It is set by Send and cleared on delivery
	// or drop, so it doubles as the in-flight mark.
	hop *node
	// next links the packet into its port's FIFO. A packet waits in at
	// most one port at a time, so the queue needs no storage of its own.
	next *Packet
}

// Fire is the packet's propagation event: the packet reaches its
// destination's ingress port. The fabric schedules it (Packet is a
// sim.Handler, so a hop allocates nothing); it is not for callers.
//
//npf:noalloc
func (p *Packet) Fire() { p.hop.ingress.enqueue(p) }

// Endpoint receives packets from the fabric — implemented by the NIC.
type Endpoint interface {
	// Deliver hands pkt to the endpoint. The fabric has released the
	// packet by then (see Packet): the endpoint owns it from this call on.
	Deliver(pkt *Packet)
}

// Config sets fabric-wide defaults; per-node rates can be overridden with
// SetNodeRate.
type Config struct {
	// RateBps is the default line rate in bits per second.
	RateBps int64
	// Propagation is the one-way wire+switch latency per hop.
	Propagation sim.Time
	// IngressBufferBytes bounds each ingress port's queue. When the queue
	// is full, behaviour depends on Lossless: drop (Ethernet) or
	// backpressure-free infinite buffering (InfiniBand's credit-based
	// lossless fabric, approximated). Zero means a 512 KiB default.
	IngressBufferBytes int
	// Lossless selects InfiniBand-style no-drop behaviour.
	Lossless bool
	// LossProbability drops each delivered packet with this probability
	// (fault injection for transport tests).
	LossProbability float64
}

// DefaultEthernet matches the paper's ConnectX-3 prototype: 12 Gb/s
// effective (packet duplication halves the 24 Gb/s PCIe ceiling), ~2 µs
// switch+wire latency.
func DefaultEthernet() Config {
	return Config{RateBps: 12e9, Propagation: 2 * sim.Microsecond}
}

// DefaultInfiniBand matches the Connect-IB testbed: 56 Gb/s, ~1 µs fabric
// latency, lossless.
func DefaultInfiniBand() Config {
	return Config{RateBps: 56e9, Propagation: sim.Microsecond, Lossless: true}
}

// LossFunc decides the fate of one packet about to be delivered at a node's
// ingress: returning true drops it. Installed per link by fault injectors
// (internal/chaos); nil means no injected loss.
type LossFunc func(pkt *Packet) bool

// Network is the fabric instance. All hosts attach to the same Network.
// In partitioned (PDES) mode — NewOnGroup — each node lives on the engine
// it was attached with, and propagation between nodes crosses partition
// boundaries through the group's deterministic mailboxes.
type Network struct {
	eng   *sim.Engine
	group *sim.Group
	cfg   Config
	rng   *sim.Rand

	nodes   map[NodeID]*node
	nextsID NodeID
}

type node struct {
	id       NodeID
	endpoint Endpoint
	// eng is the engine (partition) this node lives on; every event the
	// node's ports schedule, and every delivery to its endpoint, runs here.
	eng  *sim.Engine
	part int
	// seq numbers this node's in-flight propagations: the deterministic
	// tiebreak for same-timestamp mailbox deliveries from different sources.
	seq     uint64
	egress  *port
	ingress *port
	// rng is this link's private loss stream: each node draws from its own
	// deterministic sequence, so loss outcomes on one link do not depend on
	// how deliveries interleave with other links' traffic.
	rng  *sim.Rand
	loss LossFunc
	// Wire statistics are per-node (single-writer under PDES) and summed
	// by the Network's aggregate accessors after a run.
	delivered      sim.Counter
	deliveredBytes sim.Counter
	dropped        sim.Counter
	injectedDrops  sim.Counter
}

// New creates a network on eng with the given configuration.
func New(eng *sim.Engine, cfg Config) *Network {
	if cfg.IngressBufferBytes == 0 {
		cfg.IngressBufferBytes = 512 << 10
	}
	return &Network{
		eng:   eng,
		cfg:   cfg,
		rng:   eng.Rand().Split(),
		nodes: make(map[NodeID]*node),
	}
}

// NewOnGroup creates a partitioned network spanning a PDES group. Nodes
// are placed on partitions via AttachOn; cross-node propagation rides the
// group mailboxes with cfg.Propagation as the conservative lookahead
// (Lookahead reports it for group construction).
func NewOnGroup(g *sim.Group, cfg Config) *Network {
	n := New(g.Engine(0), cfg)
	n.group = g
	if cfg.Propagation < g.Lookahead() {
		panic("fabric: propagation below group lookahead")
	}
	return n
}

// Lookahead is the minimum cross-partition latency this fabric guarantees:
// its per-hop propagation delay.
func (cfg Config) Lookahead() sim.Time { return cfg.Propagation }

// Group returns the PDES group this fabric spans, or nil when it runs on a
// single standalone engine. Layers built on top (e.g. kv) use it to decide
// whether to place hosts on per-partition engines.
func (n *Network) Group() *sim.Group { return n.group }

// Attach adds an endpoint to the fabric and returns its node id. Each node
// receives its own RNG stream, split off the fabric's at attach time:
// attachment order is deterministic, so per-link loss sequences are too.
func (n *Network) Attach(ep Endpoint) NodeID {
	return n.AttachOn(ep, n.eng)
}

// AttachOn adds an endpoint that lives on eng — in partitioned mode, the
// per-partition engine of the host that owns it. Attachment must happen
// before the group runs (construction is single-threaded).
func (n *Network) AttachOn(ep Endpoint, eng *sim.Engine) NodeID {
	n.nextsID++
	id := n.nextsID
	nd := &node{id: id, endpoint: ep, eng: eng, part: eng.Partition(), rng: n.rng.Split()}
	nd.egress = newPort(nd, n.cfg.RateBps, 1<<30, true, func(p *Packet) { n.propagate(nd, p) })
	nd.ingress = newPort(nd, n.cfg.RateBps, n.cfg.IngressBufferBytes, n.cfg.Lossless, func(p *Packet) { n.deliver(nd, p) })
	n.nodes[id] = nd
	return id
}

// Engine returns the engine a node's events run on.
func (n *Network) Engine(id NodeID) *sim.Engine { return n.nodes[id].eng }

// Delivered counts packets delivered to endpoints, across all nodes.
func (n *Network) Delivered() uint64 { return n.sum(func(nd *node) uint64 { return nd.delivered.N }) }

// DeliveredBytes counts payload bytes delivered, across all nodes.
func (n *Network) DeliveredBytes() uint64 {
	return n.sum(func(nd *node) uint64 { return nd.deliveredBytes.N })
}

// Dropped counts packets lost anywhere in the fabric.
func (n *Network) Dropped() uint64 { return n.sum(func(nd *node) uint64 { return nd.dropped.N }) }

// InjectedDrops counts packets dropped by per-link LossFuncs and downed
// links (a subset of Dropped).
func (n *Network) InjectedDrops() uint64 {
	return n.sum(func(nd *node) uint64 { return nd.injectedDrops.N })
}

// sum folds a per-node statistic; addition commutes, so map order is fine.
func (n *Network) sum(f func(*node) uint64) uint64 {
	var total uint64
	//npf:orderinvariant — summation commutes
	for _, nd := range n.nodes {
		total += f(nd)
	}
	return total
}

// SetNodeRate overrides both port rates of one node (e.g. the 12 Gb/s
// duplication-prototype NIC attached to an otherwise 40 Gb/s fabric).
func (n *Network) SetNodeRate(id NodeID, rateBps int64) {
	nd := n.nodes[id]
	nd.egress.rateBps = rateBps
	nd.ingress.rateBps = rateBps
}

// Send injects a packet at its source's egress port. The packet reaches
// Dst's endpoint after egress serialization, propagation, and ingress
// serialization — unless it is dropped by a full ingress buffer or the loss
// injector. Sending a packet that is still in flight panics (see Packet).
func (n *Network) Send(pkt *Packet) {
	src, ok := n.nodes[pkt.Src]
	if !ok {
		panic(fmt.Sprintf("fabric: send from unattached node %d", pkt.Src))
	}
	if _, ok := n.nodes[pkt.Dst]; !ok {
		panic(fmt.Sprintf("fabric: send to unattached node %d", pkt.Dst))
	}
	if pkt.hop != nil {
		panic(fmt.Sprintf("fabric: send of packet %d->%d that is still in flight", pkt.Src, pkt.Dst))
	}
	pkt.hop = src
	src.egress.enqueue(pkt)
}

// propagate is an egress port's done handler: after propagation the packet
// hits the destination ingress port (Packet.Fire). In partitioned mode a
// cross-partition hop rides the group mailbox — (src node id, per-node
// seq) is the deterministic tiebreak for same-instant arrivals from
// different senders. A hop between nodes of the same partition must NOT
// use the mailbox: a partition's execution bound is derived from the other
// partitions' clocks only, so its local tail could run past a self-posted
// mail and execute events out of timestamp order. The engine's own queue
// orders it correctly (and local events deterministically precede
// same-instant cross-partition mail).
func (n *Network) propagate(src *node, p *Packet) {
	dst := n.nodes[p.Dst]
	p.hop = dst
	if n.group != nil && dst.eng != src.eng {
		src.seq++
		n.group.PostH(dst.part, src.eng.Now().Add(n.cfg.Propagation), uint64(src.id), src.seq, p)
	} else {
		src.eng.AfterH(n.cfg.Propagation, p)
	}
}

// deliver is an ingress port's done handler, running on the destination
// node's partition: loss decisions drawn from the destination's private
// stream, then delivery. The fabric releases the packet first, so the
// endpoint may send it again from Deliver.
func (n *Network) deliver(dst *node, p *Packet) {
	p.hop = nil
	if dst.loss != nil && dst.loss(p) {
		dst.dropped.Inc()
		dst.injectedDrops.Inc()
		return
	}
	if n.cfg.LossProbability > 0 && dst.rng.Bernoulli(n.cfg.LossProbability) {
		dst.dropped.Inc()
		return
	}
	dst.delivered.Inc()
	dst.deliveredBytes.Add(uint64(p.Size))
	dst.endpoint.Deliver(p)
}

// SetLossFunc installs (or, with nil, removes) an injected per-link loss
// decision on a node's ingress. The function runs once per packet that
// survives buffering, before the config-level LossProbability draw.
func (n *Network) SetLossFunc(id NodeID, fn LossFunc) {
	n.nodes[id].loss = fn
}

// Rand returns the node's private, deterministic loss stream, so injectors
// can correlate their own draws with the link rather than a global stream.
func (n *Network) Rand(id NodeID) *sim.Rand { return n.nodes[id].rng }

// SetLinkDown severs (or restores) a node's link in both directions:
// while down, everything it sends or should receive is silently dropped —
// a cable pull, unlike Pause which buffers.
func (n *Network) SetLinkDown(id NodeID, down bool) {
	nd := n.nodes[id]
	nd.ingress.blackhole = down
	nd.egress.blackhole = down
}

// NodeIDs returns every attached node id in ascending order (a stable
// enumeration for fault injectors and diagnostics).
func (n *Network) NodeIDs() []NodeID {
	ids := make([]NodeID, 0, len(n.nodes))
	for id := NodeID(1); int(id) <= len(n.nodes); id++ {
		if _, ok := n.nodes[id]; ok {
			ids = append(ids, id)
		}
	}
	return ids
}

// SetBlackhole makes a node's ingress silently discard all traffic (on) —
// a true black hole for loss testing, unlike Pause which buffers.
func (n *Network) SetBlackhole(id NodeID, on bool) {
	n.nodes[id].ingress.blackhole = on
}

// Pause asserts or releases link-level flow control on a node's ingress:
// while paused, packets queue at the ingress port (and, if the buffer
// fills, are dropped on lossy fabrics — congestion spreading is out of
// scope, as the paper excludes this mechanism for rNPFs anyway).
func (n *Network) Pause(id NodeID, paused bool) {
	n.nodes[id].ingress.setPaused(paused)
}

// QueuedBytes reports bytes buffered at a node's ingress (visibility for
// tests).
func (n *Network) QueuedBytes(id NodeID) int {
	return n.nodes[id].ingress.queuedBytes
}

// port is a rate-limited FIFO stage. It belongs to one node and schedules
// all of its events on that node's engine. A port serializes one packet at
// a time, so the port itself is the serialization-done event (Fire) and
// its done handler is fixed at construction: no per-packet closures.
type port struct {
	owner    *node
	rateBps  int64
	capBytes int
	lossless bool
	// done receives each packet once it has been serialized.
	done func(*Packet)

	// head/tail delimit the FIFO of waiting packets, linked through
	// Packet.next; cur is the packet being serialized.
	head, tail  *Packet
	cur         *Packet
	queuedBytes int
	paused      bool
	blackhole   bool
}

func newPort(owner *node, rateBps int64, capBytes int, lossless bool, done func(*Packet)) *port {
	return &port{owner: owner, rateBps: rateBps, capBytes: capBytes, lossless: lossless, done: done}
}

//npf:noalloc
func (p *port) enqueue(pkt *Packet) {
	if p.blackhole || !p.lossless && p.queuedBytes+pkt.Size > p.capBytes {
		pkt.hop = nil
		p.owner.dropped.Inc()
		return
	}
	if p.tail == nil {
		p.head = pkt
	} else {
		p.tail.next = pkt
	}
	p.tail = pkt
	p.queuedBytes += pkt.Size
	p.kick()
}

func (p *port) setPaused(paused bool) {
	p.paused = paused
	if !paused {
		p.kick()
	}
}

//npf:noalloc
func (p *port) kick() {
	if p.cur != nil || p.paused || p.head == nil {
		return
	}
	pkt := p.head
	p.head = pkt.next
	if p.head == nil {
		p.tail = nil
	}
	pkt.next = nil
	p.queuedBytes -= pkt.Size
	p.cur = pkt
	ser := sim.Time(int64(pkt.Size) * 8 * int64(sim.Second) / p.rateBps)
	p.owner.eng.AfterH(ser, p)
}

// Fire ends the current packet's serialization: hand it on, then start
// the next one.
func (p *port) Fire() {
	pkt := p.cur
	p.cur = nil
	p.done(pkt)
	p.kick()
}
