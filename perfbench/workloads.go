package main

import (
	"fmt"
	"hash/fnv"
	"math"

	"npf/internal/apps"
	"npf/internal/bench"
	"npf/internal/core"
	"npf/internal/fabric"
	"npf/internal/kv"
	"npf/internal/mem"
	"npf/internal/nic"
	"npf/internal/rc"
	"npf/internal/sim"
	"npf/internal/tcp"
	"npf/internal/topo"
)

// maxEvents bounds every engine the benchmark builds, as the experiment
// envs do, so a runaway simulation panics instead of hanging a run.
const maxEvents = bench.MaxEngineEvents

// workload is one benchmark input set. build makes a fresh simulated
// cluster from the seed; everything the cluster does before its timed run
// (construction, warm-up, prepopulation, pinning) happens inside build and
// counts toward setup_s.
type workload struct {
	name string
	// canonicalSeed is the seed the matching paper experiment uses; the
	// benchmark's --seed is added to it, so --seed 0 reproduces the
	// committed experiment outputs.
	canonicalSeed int64
	// setupBatch is how many clusters one setup_s sample builds (all but
	// the last are discarded). It is sized so a sample is never a single
	// sub-millisecond interval.
	setupBatch int
	build      func(seed int64, sp *spans) instance
}

// instance is one built cluster. run executes the timed part and returns
// the ops it attempted and completed; fingerprint digests the simulated
// results; check verifies invariants that hold for every seed; simStats
// reads the engine and fabric totals after the run (the other layers'
// counters are found by walkCounters).
type instance interface {
	run() (attempted, completed int)
	fingerprint() string
	check() error
	simStats(c *counters)
}

var workloads = []*workload{
	{name: "ib-npf", canonicalSeed: 11, setupBatch: 40, build: buildIBNPF},
	{name: "eth-stream", canonicalSeed: 41, setupBatch: 40, build: buildEthStream},
	{name: "kv-tcp", canonicalSeed: 43, setupBatch: 4, build: buildKVTCP},
	{name: "fleet-ud", canonicalSeed: 42, setupBatch: 1, build: buildFleetUD},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func digest(s string) string {
	h := fnv.New64a()
	h.Write([]byte(s))
	return fmt.Sprintf("%016x", h.Sum64())
}

// ---------------------------------------------------------------------------
// ib-npf: Table 4's RC minor-NPF trials with firmware jitter.

// ibTrials is trials per message size per rep. Every trial takes exactly
// one minor NPF on the receive side.
const ibTrials = 150

var ibSizes = []int{4 << 10, 4 << 20}

type ibSide struct {
	env   *bench.IBEnv
	bytes int
	done  int
}

type ibNPF struct {
	sides []*ibSide
	rows  string
}

func buildIBNPF(seed int64, sp *spans) instance {
	w := &ibNPF{}
	for _, bytes := range ibSizes {
		id := sp.begin("build")
		env := bench.NewIBEnv(bench.IBOpts{Seed: seed, Jitter: true})
		env.Eng.MaxEvents = maxEvents
		sp.end(id)
		id = sp.begin("warm")
		pages := (bytes + mem.PageSize - 1) / mem.PageSize
		bench.Warm(env.QPA, 0, pages*2)
		sp.end(id)
		w.sides = append(w.sides, &ibSide{env: env, bytes: bytes})
	}
	return w
}

// run mirrors bench.RunTable4's trial loop: a window of 8 receive buffers,
// each discarded after its trial so the next receive into it faults.
func (w *ibNPF) run() (int, int) {
	const window = 8
	attempted, completed := 0, 0
	for _, s := range w.sides {
		s := s
		e := s.env
		pages := (s.bytes + mem.PageSize - 1) / mem.PageSize
		var runTrial func()
		runTrial = func() {
			if s.done >= ibTrials {
				e.EngB.Stop()
				return
			}
			id := int64(s.done)
			base := mem.VAddr(s.done%window*pages) * mem.PageSize
			e.QPB.PostRecv(rc.RecvWQE{ID: id, Addr: base, Len: s.bytes})
			e.EngB.Call(e.Eng, func() {
				e.QPA.PostSend(rc.SendWQE{ID: id, Laddr: 0, Len: s.bytes})
			})
		}
		e.QPB.OnRecv = func(rc.RecvCompletion) {
			base := mem.PageNum(s.done % window * pages)
			e.ASB.DiscardPages(base, pages)
			s.done++
			runTrial()
		}
		runTrial()
		e.Run()
		attempted += ibTrials
		completed += s.done
	}
	return attempted, completed
}

func (w *ibNPF) fingerprint() string {
	if w.rows == "" {
		for _, s := range w.sides {
			h := &s.env.DrvB.Hist.Total
			w.rows += fmt.Sprintf("%d p50=%.3f p95=%.3f p99=%.3f max=%.3f n=%d\n", s.bytes,
				h.Percentile(50), h.Percentile(95), h.Percentile(99), h.Max(), h.Count())
		}
	}
	return digest(w.rows)
}

func (w *ibNPF) check() error {
	for _, s := range w.sides {
		if s.done != ibTrials {
			return fmt.Errorf("%d B: %d of %d trials completed", s.bytes, s.done, ibTrials)
		}
		if n := s.env.DrvB.NPFs.N; n != ibTrials {
			return fmt.Errorf("%d B: %d NPFs for %d trials, want one per trial", s.bytes, n, ibTrials)
		}
		// Table 4's minor-fault latencies sit in the hundreds of µs.
		if p50 := s.env.DrvB.Hist.Total.Percentile(50); p50 < 50 || p50 > 5000 {
			return fmt.Errorf("%d B: p50 NPF latency %.1f µs out of range", s.bytes, p50)
		}
	}
	return nil
}

func (w *ibNPF) simStats(c *counters) {
	for _, s := range w.sides {
		c.Events += s.env.Eng.Executed()
		addNet(c, s.env.Net)
	}
}

// ---------------------------------------------------------------------------
// eth-stream: Fig. 10's Ethernet TCP bulk streams with a few injected rNPFs.

// ethStreams are the receiver configurations of one rep: injected rNPFs
// under both receive policies, plus a fault-free stream. faultExp is the
// per-page fault probability 2^-faultExp (0: none). The injector earns one
// fault per 2^faultExp received pages, so a 16,384-page stream at 2^-12
// takes faults at 25, 50 and 75% of the transfer (the fourth lands after
// the last message). At Fig. 10's rarer rates the first fault would land
// on or after the last message and never reach the data path.
var ethStreams = []struct {
	policy   nic.FaultPolicy
	faultExp int
}{
	{nic.PolicyBackup, 12},
	{nic.PolicyDrop, 12},
	{nic.PolicyBackup, 0},
}

const (
	ethMsgBytes   = 64 << 10
	ethTotalBytes = 64 << 20
)

type ethOne struct {
	eng        *sim.Engine
	net        *fabric.Network
	recv, send *tcp.Stack
	s          *apps.EthStream
}

type ethStream struct {
	streams []*ethOne
	goodput string
}

func buildEthStream(seed int64, sp *spans) instance {
	w := &ethStream{}
	for _, cfg := range ethStreams {
		id := sp.begin("build")
		eng := sim.NewEngine(seed)
		eng.MaxEvents = maxEvents
		net := fabric.New(eng, fabric.DefaultEthernet())
		m := mem.NewMachine(eng, 8<<30)
		drv := core.NewDriver(eng, core.DefaultConfig())
		var stacks []*tcp.Stack
		for _, p := range []struct {
			name string
			pol  nic.FaultPolicy
		}{{"recv", cfg.policy}, {"send", nic.PolicyBackup}} {
			dcfg := nic.DefaultConfig()
			dcfg.FirmwareJitterSigma = 0
			dev := nic.NewDevice(eng, net, dcfg)
			drv.AttachDevice(dev)
			ch := dev.NewChannel(p.name, m.NewAddressSpace(p.name, nil), 256, p.pol, 256)
			drv.EnableODP(ch)
			stacks = append(stacks, tcp.NewStack(ch, tcp.DefaultConfig()))
		}
		sp.end(id)
		id = sp.begin("warm")
		for _, st := range stacks {
			bench.WarmStack(st) // prefaulted rings: no cold-ring effects
		}
		one := &ethOne{eng: eng, net: net, recv: stacks[0], send: stacks[1]}
		one.s = apps.NewEthStream(one.send, one.recv, ethMsgBytes, ethTotalBytes)
		if cfg.faultExp > 0 {
			perByte := math.Pow(2, -float64(cfg.faultExp)) / float64(mem.PageSize)
			rxBase, rxLen := one.recv.RxBuffers()
			one.s.Injector = apps.NewFaultInjector(one.recv.Channel().AS, rxBase.Page(),
				int(rxLen/mem.PageSize), perByte, false)
		}
		sp.end(id)
		w.streams = append(w.streams, one)
	}
	return w
}

func (w *ethStream) run() (int, int) {
	attempted, completed := 0, 0
	for _, one := range w.streams {
		one.s.Start()
		one.eng.RunUntil(120 * sim.Second)
		attempted += ethTotalBytes / ethMsgBytes
		completed += int(one.s.Received.N / ethMsgBytes)
	}
	return attempted, completed
}

func (w *ethStream) fingerprint() string {
	if w.goodput == "" {
		for i, one := range w.streams {
			w.goodput += fmt.Sprintf("%d %.6f Gb/s bytes=%d\n", i,
				one.s.ThroughputGbps(one.eng.Now()), one.s.Received.N)
		}
	}
	return digest(w.goodput)
}

func (w *ethStream) check() error {
	for i, one := range w.streams {
		if one.s.Received.N != ethTotalBytes {
			return fmt.Errorf("stream %d: received %d of %d bytes", i, one.s.Received.N, ethTotalBytes)
		}
		if g := one.s.ThroughputGbps(one.eng.Now()); g <= 0 || g > 100 {
			return fmt.Errorf("stream %d: goodput %.3f Gb/s out of range", i, g)
		}
	}
	return nil
}

func (w *ethStream) simStats(c *counters) {
	for _, one := range w.streams {
		c.Events += one.eng.Executed()
		addNet(c, one.net)
	}
}

// ---------------------------------------------------------------------------
// kv-tcp: the distributed KV over TCP under reclaim waves, per policy.

const (
	kvOps        = 2000
	kvWaves      = 4
	kvWaveStart  = 5 * sim.Millisecond
	kvWavePeriod = 15 * sim.Millisecond
	kvWaveHold   = 5 * sim.Millisecond
	kvWaveFloor  = 128 << 10
)

var kvPolicies = []kv.RegPolicy{kv.RegODP, kv.RegPinDown, kv.RegPinned}

type kvOne struct {
	svc *kv.Service
	wl  *kv.Workload
}

type kvTCP struct {
	runs []*kvOne
	rows string
}

func buildKVTCP(seed int64, sp *spans) instance {
	w := &kvTCP{}
	for _, pol := range kvPolicies {
		id := sp.begin("build")
		eng := sim.NewEngine(seed)
		eng.MaxEvents = maxEvents
		net := fabric.New(eng, fabric.DefaultEthernet())
		svc := kv.New(eng, net, nil, kv.Config{
			ServerHosts: 3, ClientHosts: 1, Shards: 4, Replicas: 2,
			Reg: pol, ExpectedKeys: 1024,
		})
		for _, h := range svc.Hosts {
			h.M.Swap.ReadLatency = 200 * sim.Microsecond
		}
		groups := svc.Groups()
		for i := 0; i < kvWaves; i++ {
			at := kvWaveStart + sim.Time(i)*kvWavePeriod
			eng.At(at, func() {
				for _, g := range groups {
					g.SetLimit(kvWaveFloor)
				}
			})
			eng.At(at+kvWaveHold, func() {
				for _, g := range groups {
					g.SetLimit(0)
				}
			})
		}
		sp.end(id)
		id = sp.begin("warm")
		wl := svc.NewWorkload(kv.WorkloadConfig{
			TargetOps: kvOps, Keys: 1024, ZipfS: 1.1, GetRatio: 0.5,
			Prepopulate: true, FrontCacheEntries: 32,
		})
		wl.OnDone = func() {
			svc.ClientEngine().After(300*sim.Millisecond, func() { svc.Stop() })
		}
		// Start prepopulates the replicas and schedules the clients'
		// first requests; nothing executes until run.
		wl.Start()
		sp.end(id)
		w.runs = append(w.runs, &kvOne{svc: svc, wl: wl})
	}
	return w
}

func (w *kvTCP) run() (int, int) {
	attempted, completed := 0, 0
	for _, one := range w.runs {
		one.svc.Eng.RunUntil(120 * sim.Second)
		attempted += kvOps
		completed += one.wl.Completed() - int(one.svc.Shed.N)
	}
	return attempted, completed
}

func (w *kvTCP) fingerprint() string {
	if w.rows == "" {
		for i, one := range w.runs {
			w.rows += fmt.Sprintf("%s ops=%d p50=%.3f p99=%.3f npfs=%d evict=%d shed=%d\n",
				kvPolicies[i], one.wl.Completed(), one.wl.Lat.Percentile(50),
				one.wl.Lat.Percentile(99), one.svc.NPFs(), one.svc.GroupEvictions(),
				one.svc.Shed.N)
		}
	}
	return digest(w.rows)
}

func (w *kvTCP) check() error {
	for i, one := range w.runs {
		if one.wl.Completed() != kvOps {
			return fmt.Errorf("%s: %d of %d ops completed", kvPolicies[i], one.wl.Completed(), kvOps)
		}
		if bad := one.svc.CheckConsistency(); len(bad) > 0 {
			return fmt.Errorf("%s: replicas diverged: %s", kvPolicies[i], bad[0])
		}
	}
	return nil
}

func (w *kvTCP) simStats(c *counters) {
	for _, one := range w.runs {
		c.Events += one.svc.Eng.Executed()
		addNet(c, one.svc.Net)
	}
}

// ---------------------------------------------------------------------------
// fleet-ud: the canonical 1,008-host UD scale-out fleet.

// fleetParts is the fleet's fixed partition count (bench.RunScaleout's);
// the group runs them on one thread.
const fleetParts = 8

type fleetUD struct {
	g   *sim.Group
	net *fabric.Network
	s   *topo.Sweep
	res topo.Result
	ops int
}

func buildFleetUD(seed int64, sp *spans) instance {
	id := sp.begin("build")
	fcfg := fabric.DefaultInfiniBand()
	g := sim.NewGroup(seed, fleetParts, fcfg.Lookahead())
	for _, e := range g.Engines() {
		e.MaxEvents = maxEvents
	}
	g.SetThreads(1)
	net := fabric.NewOnGroup(g, fcfg)
	cfg := bench.ScaleoutConfig(topo.TransportUD, false)
	s, err := topo.New(g.Engine(0), net, cfg)
	if err != nil {
		panic("perfbench: fleet config: " + err.Error())
	}
	sp.end(id)
	id = sp.begin("warm")
	s.Start()
	sp.end(id)
	w := &fleetUD{g: g, net: net, s: s}
	for _, t := range cfg.Tenants {
		w.ops += t.Workload.TargetOps
	}
	return w
}

func (w *fleetUD) run() (int, int) {
	w.s.Run()
	w.res = w.s.Result()
	lost := 0
	for _, t := range w.res.Tenants {
		lost += int(t.Lost)
	}
	return w.ops, int(w.res.Ops) - lost
}

func (w *fleetUD) fingerprint() string { return fmt.Sprintf("%016x", w.res.Fingerprint) }

func (w *fleetUD) check() error {
	if w.res.Hosts != 1008 || w.res.Clients != 101000 {
		return fmt.Errorf("fleet shape %d hosts / %d clients, want 1008 / 101000", w.res.Hosts, w.res.Clients)
	}
	if int(w.res.Ops) != w.ops {
		return fmt.Errorf("fleet completed %d of %d ops", w.res.Ops, w.ops)
	}
	return nil
}

func (w *fleetUD) simStats(c *counters) {
	for _, e := range w.g.Engines() {
		c.Events += e.Executed()
	}
	c.Mail = w.g.Executed() - c.Events
	addNet(c, w.net)
	c.Hosts = uint64(w.res.Hosts)
	c.StateBytes = uint64(w.res.StateBytes)
}

func addNet(c *counters, n *fabric.Network) {
	c.Pkts += n.Delivered()
	c.PktDrops += n.Dropped()
}
