package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"runtime"
	"testing"

	"npf/internal/bench"
	"npf/internal/rc"
)

func TestChargeInnermostLayer(t *testing.T) {
	cases := []struct {
		name  string
		stack []string // leaf first
		want  string
	}{
		{"runtime map access made by the IOTLB", []string{
			"runtime.mapaccess2",
			"npf/internal/iommu.(*iotlb).insert",
			"npf/internal/iommu.(*Domain).TranslateAccess",
			"npf/internal/rc.(*HCA).deliver",
			"npf/internal/sim.(*Engine).RunUntil",
			"main.(*ibNPF).run",
		}, "iommu"},
		{"malloc in a closure of a layer", []string{
			"runtime.mallocgc",
			"npf/internal/tcp.(*Conn).send.func1",
			"npf/internal/sim.(*Engine).RunUntil",
		}, "tcp"},
		{"GC mark worker", []string{
			"runtime.scanobject",
			"runtime.gcDrain",
			"runtime.gcBgMarkWorker.func2",
			"runtime.systemstack",
			"runtime.gcBgMarkWorker",
		}, gcBucket},
		{"no npf frame", []string{
			"runtime.futex",
			"runtime.notesleep",
			"runtime.mstart",
		}, otherBucket},
		{"harness frames are not layers", []string{
			"main.digest",
			"npf/internal/bench.NewIBEnv",
			"main.main",
		}, otherBucket},
		{"layer name must be a whole path element", []string{
			"npf/internal/simx.F",
			"npf/internal/analysis/noalloc.run",
		}, otherBucket},
	}
	for _, c := range cases {
		if got := charge(c.stack); got != c.want {
			t.Errorf("%s: charged to %q, want %q", c.name, got, c.want)
		}
	}
}

func TestSharesSumToTotal(t *testing.T) {
	f := fold{}
	f.add([]string{"runtime.mapaccess1", "npf/internal/iommu.(*iotlb).lookup"}, 340)
	f.add([]string{"npf/internal/fabric.(*Network).Send"}, 210)
	f.add([]string{"runtime.gcBgMarkWorker"}, 150)
	f.add([]string{"runtime.usleep"}, 300)
	for _, total := range []float64{1644.09, 103.8, 5079.7} {
		s := f.shares(total)
		sum := 0.0
		for _, b := range buckets() {
			v, ok := s[b]
			if !ok {
				t.Fatalf("bucket %s missing from shares", b)
			}
			sum += v
		}
		if math.Abs(sum-total) > 1e-9*total {
			t.Errorf("shares sum to %v, want %v", sum, total)
		}
		if want := total * 0.34; math.Abs(s["iommu"]-want) > 1e-9*total {
			t.Errorf("iommu share %v, want %v", s["iommu"], want)
		}
	}
	if s := (fold{}).shares(7); s[otherBucket] != 7 {
		t.Errorf("empty fold charges %v to %s, want 7", s[otherBucket], otherBucket)
	}
}

// TestPerLayerSumsToEndToEnd checks the per-layer CPU and allocation
// charges sum to the untraced pass's end-to-end values.
func TestPerLayerSumsToEndToEnd(t *testing.T) {
	base := &pass{reps: []rep{
		{runS: 0.5, cpuS: 0.52, calRun: 0.025, calRunCPU: 0.025, allocs: 31000, bytes: 1.5e6, liveHeap: 3e6, attempted: 300, completed: 300},
		{runS: 0.6, cpuS: 0.61, calRun: 0.03, calRunCPU: 0.03, allocs: 31010, bytes: 1.6e6, liveHeap: 3e6, attempted: 300, completed: 300},
		{runS: 0.4, cpuS: 0.43, calRun: 0.02, calRunCPU: 0.02, allocs: 30990, bytes: 1.4e6, liveHeap: 3e6, attempted: 300, completed: 300},
	}, setups: []setupSample{{0.01, 0.025}}}
	prof := &pass{reps: base.reps[:1], cpu: fold{"iommu": 34, "fabric": 21, gcBucket: 5},
		objs: fold{"mem": 3, otherBucket: 1}, bytes: fold{"rc": 9, "sim": 1}}
	m := perLayer(base, prof)
	e2e := base.endToEnd()
	for _, kind := range []string{"cpu_us_per_op", "allocs_per_op", "alloc_bytes_per_op"} {
		sum := 0.0
		for _, b := range buckets() {
			sum += m[b+"."+kind].Value
		}
		if want := e2e[kind].Value; math.Abs(sum-want) > 1e-9*want {
			t.Errorf("layer %s sum to %v, want the end-to-end %v", kind, sum, want)
		}
	}
}

// pb is a minimal protobuf encoder for building synthetic profiles.
type pb struct{ b []byte }

func (p *pb) varint(num int, v uint64) *pb {
	p.b = binary.AppendUvarint(p.b, uint64(num)<<3)
	p.b = binary.AppendUvarint(p.b, v)
	return p
}

func (p *pb) bytes(num int, sub []byte) *pb {
	p.b = binary.AppendUvarint(p.b, uint64(num)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(sub)))
	p.b = append(p.b, sub...)
	return p
}

func packed(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// TestFoldCPUProfile decodes a synthetic pprof CPU profile: two sample
// types, a location with an inlined frame, and samples weighted by CPU
// nanoseconds.
func TestFoldCPUProfile(t *testing.T) {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"runtime.mapaccess2", "npf/internal/iommu.(*iotlb).insert", "npf/internal/sim.(*Engine).RunUntil",
		"runtime.gcBgMarkWorker"}
	m := &pb{}
	m.bytes(1, (&pb{}).varint(1, 1).varint(2, 2).b)
	m.bytes(1, (&pb{}).varint(1, 3).varint(2, 4).b)
	// Location 1: mapaccess2 inlined into iotlb.insert (innermost first).
	m.bytes(4, (&pb{}).varint(1, 1).
		bytes(4, (&pb{}).varint(1, 1).b).
		bytes(4, (&pb{}).varint(1, 2).b).b)
	m.bytes(4, (&pb{}).varint(1, 2).bytes(4, (&pb{}).varint(1, 3).b).b)
	m.bytes(4, (&pb{}).varint(1, 3).bytes(4, (&pb{}).varint(1, 4).b).b)
	for id, name := range []uint64{5, 6, 7, 8} {
		m.bytes(5, (&pb{}).varint(1, uint64(id+1)).varint(2, name).b)
	}
	m.bytes(2, (&pb{}).bytes(1, packed(1, 2)).bytes(2, packed(3, 30e6)).b)
	m.bytes(2, (&pb{}).bytes(1, packed(3)).bytes(2, packed(1, 10e6)).b)
	for _, s := range strs {
		m.bytes(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(m.b)
	zw.Close()

	f := fold{}
	if err := foldCPUProfile(gz.Bytes(), f); err != nil {
		t.Fatal(err)
	}
	if f["iommu"] != 30e6 || f[gcBucket] != 10e6 || len(f) != 2 {
		t.Errorf("fold = %v, want iommu 30e6 and %s 10e6", f, gcBucket)
	}
	if err := foldCPUProfile([]byte("not gzip"), fold{}); err == nil {
		t.Error("garbage profile decoded without error")
	}
}

// TestAllocFoldChargesLayers profiles a cluster build with every
// allocation sampled and checks the layers that allocate are charged.
func TestAllocFoldChargesLayers(t *testing.T) {
	old := runtime.MemProfileRate
	runtime.MemProfileRate = 1
	defer func() { runtime.MemProfileRate = old }()
	runtime.GC()
	before := snapAllocs()
	e := bench.NewIBEnv(bench.IBOpts{Seed: 1})
	bench.Warm(e.QPA, 0, 4)
	runtime.GC()
	objs, byts := fold{}, fold{}
	foldAllocDelta(before, snapAllocs(), objs, byts)
	runtime.KeepAlive(e)
	if objs.total() == 0 || byts.total() == 0 {
		t.Fatal("no allocations folded")
	}
	for _, l := range []string{"mem", "rc", "iommu"} {
		if objs[l] == 0 {
			t.Errorf("no allocations charged to %s: %v", l, objs)
		}
	}
}

// allocInst is a synthetic workload: its build keeps many objects and its
// timed run makes exactly runAllocs heap allocations.
type allocInst struct{ kept [][]byte }

const runAllocs = 1000

var allocSink []byte

func (a *allocInst) run() (int, int) {
	for i := 0; i < runAllocs; i++ {
		allocSink = make([]byte, 64)
	}
	return 1, 1
}
func (a *allocInst) fingerprint() string { return "" }
func (a *allocInst) check() error        { return nil }
func (a *allocInst) simStats(*counters)  {}

// TestAllocRepChargesOnlyTheRun checks that the allocation-profiled rep
// charges the timed run's allocations and not those of the set-up, the
// counter walk over the built cluster or the profile snapshots.
func TestAllocRepChargesOnlyTheRun(t *testing.T) {
	w := &workload{name: "alloc", setupBatch: 1, build: func(int64, *spans) instance {
		a := &allocInst{}
		for i := 0; i < 5000; i++ {
			a.kept = append(a.kept, make([]byte, 32))
		}
		return a
	}}
	p := &pass{cal: newCalibrator(), objs: fold{}, bytes: fold{}}
	old := runtime.MemProfileRate
	p.runRep(w, 1, nil, profAlloc)
	if runtime.MemProfileRate != old {
		t.Errorf("MemProfileRate left at %d, want %d restored", runtime.MemProfileRate, old)
	}
	// The runtime also records the first allocation on each P after a
	// rate change.
	if n := p.objs.total(); n < runAllocs || n > runAllocs+float64(runtime.GOMAXPROCS(0)) {
		t.Errorf("charged %.0f allocations, want the run's %d", n, runAllocs)
	}
}

// TestWalkCountersMatchesDirectReads runs the ib-npf trials and checks
// the reflective walk agrees with the counters read directly, and that
// since keeps only the timed run's activity.
func TestWalkCountersMatchesDirectReads(t *testing.T) {
	inst := buildIBNPF(11, nil).(*ibNPF)
	c0 := readCounters(inst)
	inst.run()
	if err := inst.check(); err != nil {
		t.Fatal(err)
	}
	all := readCounters(inst)
	var npfs, minor, retx uint64
	for _, s := range inst.sides {
		e := s.env
		npfs += e.DrvA.NPFs.N + e.DrvB.NPFs.N
		minor += e.ASA.MinorFaults.N + e.ASB.MinorFaults.N
		for _, h := range []*rc.HCA{e.HCAA, e.HCAB} {
			retx += h.Retransmits.N
		}
	}
	if all.Npfs != npfs || all.Minor != minor || all.RcRetx != retx {
		t.Errorf("walk npfs/minor/retx = %d/%d/%d, direct %d/%d/%d",
			all.Npfs, all.Minor, all.RcRetx, npfs, minor, retx)
	}
	if all.IotlbHits+all.IotlbMisses == 0 {
		t.Error("walk found no IOTLB lookups")
	}
	run := all.since(c0)
	if run.Npfs != 2*ibTrials {
		t.Errorf("run phase took %d NPFs, want one per trial (%d)", run.Npfs, 2*ibTrials)
	}
	if c0.Minor == 0 || run.Minor != all.Minor-c0.Minor {
		t.Errorf("warm-up minor faults %d, run %d, total %d: since must subtract the build's",
			c0.Minor, run.Minor, all.Minor)
	}
}
