package fabric

import (
	"testing"

	"npf/internal/sim"
)

// sink records delivered packets with their arrival times.
type sink struct {
	eng  *sim.Engine
	pkts []*Packet
	at   []sim.Time
}

func (s *sink) Deliver(pkt *Packet) {
	s.pkts = append(s.pkts, pkt)
	s.at = append(s.at, s.eng.Now())
}

func setup(cfg Config) (*sim.Engine, *Network, *sink, *sink, NodeID, NodeID) {
	eng := sim.NewEngine(1)
	net := New(eng, cfg)
	a, b := &sink{eng: eng}, &sink{eng: eng}
	ida := net.Attach(a)
	idb := net.Attach(b)
	return eng, net, a, b, ida, idb
}

func TestDeliveryLatency(t *testing.T) {
	cfg := Config{RateBps: 8e9, Propagation: 2 * sim.Microsecond} // 1 B/ns
	eng, net, _, b, ida, idb := setup(cfg)
	net.Send(&Packet{Src: ida, Dst: idb, Size: 1000})
	eng.Run()
	if len(b.pkts) != 1 {
		t.Fatalf("delivered %d packets", len(b.pkts))
	}
	// 1000 ns egress + 2000 ns prop + 1000 ns ingress.
	if want := sim.Time(4000); b.at[0] != want {
		t.Fatalf("arrival = %v, want %v", b.at[0], want)
	}
}

func TestSerializationQueueing(t *testing.T) {
	cfg := Config{RateBps: 8e9, Propagation: 0}
	eng, net, _, b, ida, idb := setup(cfg)
	for i := 0; i < 3; i++ {
		net.Send(&Packet{Src: ida, Dst: idb, Size: 1000})
	}
	eng.Run()
	if len(b.at) != 3 {
		t.Fatalf("delivered %d", len(b.at))
	}
	// Back-to-back at line rate: one packet per 1000 ns after the pipe
	// fills (egress+ingress for the first = 2000 ns).
	if b.at[0] != 2000 || b.at[1] != 3000 || b.at[2] != 4000 {
		t.Fatalf("arrivals = %v", b.at)
	}
}

func TestOrderingPreserved(t *testing.T) {
	cfg := DefaultEthernet()
	eng, net, _, b, ida, idb := setup(cfg)
	for i := 0; i < 50; i++ {
		net.Send(&Packet{Src: ida, Dst: idb, Size: 1500, Payload: i})
	}
	eng.Run()
	for i, p := range b.pkts {
		if p.Payload.(int) != i {
			t.Fatalf("reordered: got %v at %d", p.Payload, i)
		}
	}
}

func TestIngressOverflowDropsWhenLossy(t *testing.T) {
	cfg := Config{RateBps: 8e9, Propagation: 0, IngressBufferBytes: 3000}
	eng, net, _, b, ida, idb := setup(cfg)
	net.Pause(idb, true) // ingress cannot drain
	for i := 0; i < 10; i++ {
		net.Send(&Packet{Src: ida, Dst: idb, Size: 1000})
	}
	eng.Run()
	if len(b.pkts) != 0 {
		t.Fatal("paused ingress delivered packets")
	}
	if net.Dropped() == 0 {
		t.Fatal("full lossy ingress should drop")
	}
	net.Pause(idb, false)
	eng.Run()
	if len(b.pkts) != 3 {
		t.Fatalf("after unpause delivered %d, want 3 (buffer capacity)", len(b.pkts))
	}
}

func TestLosslessNeverDrops(t *testing.T) {
	cfg := Config{RateBps: 8e9, Propagation: 0, IngressBufferBytes: 2000, Lossless: true}
	eng, net, _, b, ida, idb := setup(cfg)
	net.Pause(idb, true)
	for i := 0; i < 10; i++ {
		net.Send(&Packet{Src: ida, Dst: idb, Size: 1000})
	}
	eng.Run()
	net.Pause(idb, false)
	eng.Run()
	if len(b.pkts) != 10 {
		t.Fatalf("lossless delivered %d, want 10", len(b.pkts))
	}
	if net.Dropped() != 0 {
		t.Fatal("lossless fabric dropped")
	}
}

func TestLossInjection(t *testing.T) {
	cfg := Config{RateBps: 100e9, Propagation: 0, LossProbability: 0.5}
	eng, net, _, b, ida, idb := setup(cfg)
	const n = 2000
	for i := 0; i < n; i++ {
		net.Send(&Packet{Src: ida, Dst: idb, Size: 100})
	}
	eng.Run()
	got := len(b.pkts)
	if got < n/3 || got > 2*n/3 {
		t.Fatalf("delivered %d of %d with p=0.5 loss", got, n)
	}
	if int(net.Dropped())+got != n {
		t.Fatalf("drops+delivered = %d, want %d", int(net.Dropped())+got, n)
	}
}

func TestPerNodeRateOverride(t *testing.T) {
	cfg := Config{RateBps: 8e9, Propagation: 0}
	eng, net, _, b, ida, idb := setup(cfg)
	net.SetNodeRate(idb, 4e9) // ingress at half rate: 2 ns/byte
	net.Send(&Packet{Src: ida, Dst: idb, Size: 1000})
	eng.Run()
	if want := sim.Time(1000 + 2000); b.at[0] != want {
		t.Fatalf("arrival = %v, want %v", b.at[0], want)
	}
}

func TestStreamsShareEgressFairlyEnough(t *testing.T) {
	// Two destinations from one source: both are limited by the shared
	// egress, arriving interleaved.
	cfg := Config{RateBps: 8e9, Propagation: 0}
	eng := sim.NewEngine(1)
	net := New(eng, cfg)
	src := &sink{eng: eng}
	b1, b2 := &sink{eng: eng}, &sink{eng: eng}
	idsrc := net.Attach(src)
	id1, id2 := net.Attach(b1), net.Attach(b2)
	for i := 0; i < 10; i++ {
		net.Send(&Packet{Src: idsrc, Dst: id1, Size: 1000})
		net.Send(&Packet{Src: idsrc, Dst: id2, Size: 1000})
	}
	end := eng.Run()
	if len(b1.pkts) != 10 || len(b2.pkts) != 10 {
		t.Fatalf("delivered %d/%d", len(b1.pkts), len(b2.pkts))
	}
	// 20 KB over a shared 1 B/ns egress ≥ 20 µs.
	if end < 20000 {
		t.Fatalf("finished too fast: %v", end)
	}
}

// echoEP bounces every delivered packet back to its sender a few times,
// recording arrival times — cross-partition ping-pong traffic.
type echoEP struct {
	net  *Network
	id   NodeID
	eng  *sim.Engine
	log  []sim.Time
	hops int
}

func (e *echoEP) Deliver(pkt *Packet) {
	e.log = append(e.log, e.eng.Now())
	if e.hops > 0 {
		e.hops--
		e.net.Send(&Packet{Src: e.id, Dst: pkt.Src, Size: pkt.Size})
	}
}

// TestPartitionedFabricDeterministic: the same two-node exchange over a
// partitioned fabric produces identical delivery timelines for any
// worker-thread count, and matches the per-node counter aggregation.
func TestPartitionedFabricDeterministic(t *testing.T) {
	cfg := Config{RateBps: 8e9, Propagation: 2 * sim.Microsecond}
	run := func(threads int) ([]sim.Time, []sim.Time, uint64) {
		g := sim.NewGroup(1, 2, cfg.Lookahead())
		net := NewOnGroup(g, cfg)
		a := &echoEP{net: net, eng: g.Engine(0), hops: 50}
		b := &echoEP{net: net, eng: g.Engine(1), hops: 50}
		a.id = net.AttachOn(a, g.Engine(0))
		b.id = net.AttachOn(b, g.Engine(1))
		g.Engine(0).After(0, func() {
			net.Send(&Packet{Src: a.id, Dst: b.id, Size: 1000})
		})
		g.SetThreads(threads)
		g.Run()
		return a.log, b.log, net.Delivered()
	}
	a1, b1, d1 := run(1)
	if d1 == 0 || len(b1) == 0 {
		t.Fatalf("no traffic: delivered=%d", d1)
	}
	if d1 != uint64(len(a1)+len(b1)) {
		t.Fatalf("aggregate delivered %d != %d+%d", d1, len(a1), len(b1))
	}
	for _, threads := range []int{2} {
		a2, b2, d2 := run(threads)
		if d2 != d1 || len(a2) != len(a1) || len(b2) != len(b1) {
			t.Fatalf("threads=%d diverged: delivered %d vs %d", threads, d2, d1)
		}
		for i := range a1 {
			if a1[i] != a2[i] {
				t.Fatalf("threads=%d: a[%d] = %v vs %v", threads, i, a2[i], a1[i])
			}
		}
		for i := range b1 {
			if b1[i] != b2[i] {
				t.Fatalf("threads=%d: b[%d] = %v vs %v", threads, i, b2[i], b1[i])
			}
		}
	}
}

// reuseEP keeps the last packet delivered to it, so a test can send the
// same packet again.
type reuseEP struct{ last *Packet }

func (r *reuseEP) Deliver(pkt *Packet) { r.last = pkt }

// TestSendInFlightPanics: the fabric owns a packet until it is delivered
// or dropped, so sending it again in between panics. Once delivered (or
// dropped) the packet may be sent again.
func TestSendInFlightPanics(t *testing.T) {
	eng := sim.NewEngine(1)
	net := New(eng, Config{RateBps: 8e9, Propagation: sim.Microsecond})
	b := &reuseEP{}
	ida := net.Attach(&reuseEP{})
	idb := net.Attach(b)
	pkt := &Packet{Src: ida, Dst: idb, Size: 1000}
	net.Send(pkt)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("re-sending an in-flight packet did not panic")
			}
		}()
		net.Send(pkt)
	}()
	eng.Run()
	if b.last != pkt || net.Delivered() != 1 {
		t.Fatalf("delivered %d packets, last %p, want %p", net.Delivered(), b.last, pkt)
	}
	net.Send(pkt) // delivered: the sender may reuse it
	eng.Run()
	if net.Delivered() != 2 {
		t.Fatalf("re-sent packet not delivered: %d", net.Delivered())
	}
	net.SetBlackhole(idb, true)
	net.Send(pkt)
	eng.Run()
	net.SetBlackhole(idb, false)
	net.Send(pkt) // dropped: the fabric released it
	eng.Run()
	if net.Delivered() != 3 || net.Dropped() != 1 {
		t.Fatalf("delivered %d dropped %d, want 3 and 1", net.Delivered(), net.Dropped())
	}
}

// hop sends the endpoint's last delivered packet back across the link and
// runs the engine until it is delivered again.
func hop(eng *sim.Engine, net *Network, b *reuseEP) {
	net.Send(b.last)
	eng.Run()
}

func newHopPair() (*sim.Engine, *Network, *reuseEP) {
	eng := sim.NewEngine(1)
	net := New(eng, DefaultEthernet())
	b := &reuseEP{}
	ida := net.Attach(&reuseEP{})
	idb := net.Attach(b)
	b.last = &Packet{Src: ida, Dst: idb, Size: 1500}
	return eng, net, b
}

// TestFabricHopAllocs is the runtime side of the //npf:noalloc fence on
// port.enqueue/kick and Packet.Fire: in steady state a Send→Deliver hop
// through two ports allocates nothing.
func TestFabricHopAllocs(t *testing.T) {
	eng, net, b := newHopPair()
	for i := 0; i < 100; i++ {
		hop(eng, net, b)
	}
	if allocs := testing.AllocsPerRun(1000, func() { hop(eng, net, b) }); allocs != 0 {
		t.Fatalf("steady-state fabric hop allocates %.1f per packet, want 0", allocs)
	}
}

func BenchmarkFabricHop(b *testing.B) {
	b.ReportAllocs()
	eng, net, ep := newHopPair()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hop(eng, net, ep)
	}
}
