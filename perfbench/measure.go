package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"
)

// minReps is the fewest reps an untraced run makes, so every median has
// at least three samples, whatever the time budget.
const minReps = 3

// minSetups is the fewest set-up samples an untraced run takes. A
// workload with few reps (a fleet rep takes seconds) builds extra clusters
// for set-up timing alone, so setup_s is a median of several samples.
const minSetups = 9

// rep is one build-then-run cycle of a workload.
type rep struct {
	runS float64 // host wall seconds of the timed run
	cpuS float64 // process CPU seconds (user+sys) of the timed run
	// Calibration kernel wall and CPU time, averaged over right before
	// and right after the run.
	calRun, calRunCPU float64
	allocs            uint64 // heap allocations of the timed run
	bytes             uint64 // heap bytes allocated by the timed run
	liveHeap          uint64 // max live heap after a forced GC, post-setup and post-run
	attempted         int
	completed         int
	fp                string
	err               error
}

// setupSample is one set-up timing: host wall seconds per cluster build
// (mean over the workload's setup batch) and the calibration kernel's
// wall time right after it.
type setupSample struct{ hostS, calS float64 }

// pass is a sequence of reps of one workload and seed.
type pass struct {
	cal    *calibrator
	reps   []rep
	setups []setupSample
	// Filled by traced passes only: CPU-profile and allocation-profile
	// weights per bucket, and the layers' counters over the timed run of
	// the allocation-profiled rep (ctrOps ops).
	cpu, objs, bytes fold
	ctr              counters
	ctrOps           int
}

// instrument selects a traced rep's profile.
type instrument int

const (
	profNone  instrument = iota
	profCPU              // CPU profile of the timed run
	profAlloc            // allocation profile of the timed run, every allocation sampled
)

// measure runs untraced reps until budget seconds of timed run have
// accumulated, and at least atLeast reps.
func measure(w *workload, seed int64, budget float64, atLeast int, cal *calibrator) *pass {
	p := &pass{cal: cal}
	for total := 0.0; len(p.reps) < atLeast || total < budget; {
		r := p.runRep(w, seed, nil, profNone)
		total += r.runS
		p.reps = append(p.reps, r)
	}
	return p
}

// measureTraced runs CPU-profiled reps until budget seconds of timed run
// have accumulated (at least one), then one allocation-profiled rep. The
// two profiles run in separate reps because sampling every allocation
// slows allocation-heavy code many times over, which would distort the
// CPU shares.
func measureTraced(w *workload, seed int64, budget float64, cal *calibrator, sp *spans) *pass {
	p := &pass{cal: cal, cpu: fold{}, objs: fold{}, bytes: fold{}}
	for total := 0.0; len(p.reps) < 1 || total < budget; {
		r := p.runRep(w, seed, sp, profCPU)
		total += r.runS
		p.reps = append(p.reps, r)
	}
	p.reps = append(p.reps, p.runRep(w, seed, sp, profAlloc))
	return p
}

// extraSetups takes set-up samples without runs until the pass has n.
func (p *pass) extraSetups(w *workload, seed int64, n int) {
	for len(p.setups) < n {
		inst, _, _, _ := p.setup(w, seed, nil)
		runtime.KeepAlive(inst)
	}
}

// setup builds the workload's cluster setupBatch times from a collected
// heap, records one set-up sample and returns the last build, the live
// heap after it, and the calibration kernel's times right after it.
func (p *pass) setup(w *workload, seed int64, sp *spans) (inst instance, liveHeap uint64, calWall, calCPU float64) {
	runtime.GC()
	t0 := time.Now()
	for k := 0; k < w.setupBatch; k++ {
		inst = nil // let the discarded build go before the next one
		inst = w.build(seed, sp)
	}
	hostS := time.Since(t0).Seconds() / float64(w.setupBatch)
	runtime.GC()
	liveHeap = heapAlloc()
	calWall, calCPU = p.cal.run()
	p.setups = append(p.setups, setupSample{hostS, calWall})
	return inst, liveHeap, calWall, calCPU
}

func (p *pass) runRep(w *workload, seed int64, sp *spans, prof instrument) rep {
	var r rep
	repID := sp.begin("rep")
	defer sp.end(repID)
	if prof == profAlloc {
		// Sample nothing but the timed run (the rate is set to 1 around
		// it below), so the rep's set-up, counter walk and profile
		// snapshots are not charged to the run.
		old := runtime.MemProfileRate
		runtime.MemProfileRate = 0
		defer func() { runtime.MemProfileRate = old }()
	}

	inst, liveHeap, calWall, calCPU := p.setup(w, seed, sp)
	r.liveHeap = liveHeap

	var before allocSnap
	var cpuProf bytes.Buffer
	var ctr0 counters
	switch prof {
	case profAlloc:
		ctr0 = readCounters(inst)
		before = snapAllocs()
	case profCPU:
		if err := pprof.StartCPUProfile(&cpuProf); err != nil {
			panic("perfbench: a CPU profile is already running: " + err.Error())
		}
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuSeconds()
	t1 := time.Now()
	id := sp.begin("run")
	if prof == profAlloc {
		// Every allocation from here to the rate reset is sampled. The
		// runtime also records the first allocation on each P after a
		// rate change, so at most a couple stray in.
		runtime.MemProfileRate = 1
	}
	r.attempted, r.completed = inst.run()
	if prof == profAlloc {
		runtime.MemProfileRate = 0
	}
	sp.end(id)
	r.runS = time.Since(t1).Seconds()
	r.cpuS = cpuSeconds() - cpu0
	runtime.ReadMemStats(&ms1)
	r.allocs = ms1.Mallocs - ms0.Mallocs
	r.bytes = ms1.TotalAlloc - ms0.TotalAlloc
	if prof == profCPU {
		pprof.StopCPUProfile()
	}
	runtime.GC()
	if h := heapAlloc(); h > r.liveHeap {
		r.liveHeap = h
	}
	w2, c2 := p.cal.run()
	r.calRun, r.calRunCPU = (calWall+w2)/2, (calCPU+c2)/2
	switch prof {
	case profAlloc:
		foldAllocDelta(before, snapAllocs(), p.objs, p.bytes)
		p.ctr, p.ctrOps = readCounters(inst).since(ctr0), r.attempted
	case profCPU:
		if err := foldCPUProfile(cpuProf.Bytes(), p.cpu); err != nil {
			r.err = err
		}
	}

	id = sp.begin("check")
	r.fp = inst.fingerprint()
	if err := inst.check(); err != nil && r.err == nil {
		r.err = err
	}
	sp.end(id)
	return r
}

func heapAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("perfbench: getrusage: " + err.Error())
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// checkRep reports why a rep's output is wrong, or nil. want is the
// recorded fingerprint for this seed ("" when the seed has none); then
// every rep must match the first, since a seed fixes the output.
func (p *pass) checkRep(i int, want string) error {
	r := p.reps[i]
	switch {
	case r.err != nil:
		return r.err
	case want != "" && r.fp != want:
		return fmt.Errorf("fingerprint %s, want %s", r.fp, want)
	case want == "" && r.fp != p.reps[0].fp:
		return fmt.Errorf("fingerprint %s differs from rep 0's %s", r.fp, p.reps[0].fp)
	}
	return nil
}

// result counts ops: a rep whose output check fails counts all its ops
// as failed.
func (p *pass) result(want string) result {
	res := result{Correct: true}
	for i, r := range p.reps {
		res.Attempted += r.attempted
		if p.checkRep(i, want) != nil {
			res.Correct = false
			res.Failed += r.attempted
		} else {
			res.Failed += r.attempted - r.completed
		}
	}
	return res
}

// series returns one value per rep.
func (p *pass) series(f func(r rep) float64) []float64 {
	v := make([]float64, len(p.reps))
	for i, r := range p.reps {
		v[i] = f(r)
	}
	return v
}

func perOp(x float64, r rep) float64 { return x / float64(r.attempted) }

// e2eNames lists the end-to-end metrics in report order.
var e2eNames = []string{"setup_s", "ops_per_s", "cpu_us_per_op", "allocs_per_op", "alloc_bytes_per_op", "live_heap_mb"}

func (p *pass) median(f func(r rep) float64) float64 { return median(p.series(f)) }

// Reference-second scales (see calibrate.go): calRefS over the pass's
// median calibration time next to set-up (wall), and next to the run
// (wall and CPU).
func (p *pass) setupScale() float64 {
	return calRefS / p.setupMedian(func(s setupSample) float64 { return s.calS })
}

func (p *pass) setupMedian(f func(s setupSample) float64) float64 {
	v := make([]float64, len(p.setups))
	for i, s := range p.setups {
		v[i] = f(s)
	}
	return median(v)
}
func (p *pass) runScale() float64 { return calRefS / p.median(func(r rep) float64 { return r.calRun }) }
func (p *pass) cpuScale() float64 {
	return calRefS / p.median(func(r rep) float64 { return r.calRunCPU })
}

// refRunS is the median timed-run wall in reference seconds.
func (p *pass) refRunS() float64 {
	return p.median(func(r rep) float64 { return r.runS }) * p.runScale()
}

// host returns the end-to-end metrics before calibration: medians over
// reps of host wall and CPU time.
func (p *pass) host() map[string]metric {
	return map[string]metric{
		"setup_s":            {p.setupMedian(func(s setupSample) float64 { return s.hostS }), "s"},
		"ops_per_s":          {p.median(func(r rep) float64 { return float64(r.completed) / r.runS }), "1/s"},
		"cpu_us_per_op":      {p.median(func(r rep) float64 { return perOp(r.cpuS*1e6, r) }), "us/op"},
		"allocs_per_op":      {p.median(func(r rep) float64 { return perOp(float64(r.allocs), r) }), "allocs/op"},
		"alloc_bytes_per_op": {p.median(func(r rep) float64 { return perOp(float64(r.bytes), r) }), "B/op"},
		"live_heap_mb":       {p.median(func(r rep) float64 { return float64(r.liveHeap) / 1e6 }), "MB"},
	}
}

// endToEnd reports each metric as the median over reps, with timings in
// reference seconds.
func (p *pass) endToEnd() map[string]metric {
	m := p.host()
	scale := func(k string, f float64) { m[k] = metric{m[k].Value * f, m[k].Unit} }
	scale("setup_s", p.setupScale())
	scale("ops_per_s", 1/p.runScale())
	scale("cpu_us_per_op", p.cpuScale())
	return m
}

// print writes a human-readable summary of the pass: every end-to-end
// metric with its unit and its value before calibration, plus
// fail_ratio, the calibration time and the output check.
func (p *pass) print(name string, seed int64, mode, want string) {
	res := p.result(want)
	fmt.Printf("perfbench %s seed=%d %s: reps=%d ops/rep=%d fingerprint=%s", name, seed, mode,
		len(p.reps), p.reps[0].attempted, p.reps[0].fp)
	if want != "" {
		fmt.Printf(" (recorded %s)", want)
	}
	fmt.Println()
	for i := range p.reps {
		if err := p.checkRep(i, want); err != nil {
			fmt.Printf("  rep %d: output check FAILED: %v\n", i, err)
		}
	}
	m, h := p.endToEnd(), p.host()
	fmt.Printf("  %-20s %14s %-9s %14s\n", "metric", "value", "unit", "host value")
	for _, k := range e2eNames {
		fmt.Printf("  %-20s %14.6g %-9s %14.6g\n", k, m[k].Value, m[k].Unit, h[k].Value)
	}
	fmt.Printf("  %-20s %14.6g %-9s (%d of %d ops)\n", "fail_ratio",
		float64(res.Failed)/float64(res.Attempted), "ratio", res.Failed, res.Attempted)
	fmt.Printf("  %-20s %14.6g %-9s\n", "calibration_ms",
		p.median(func(r rep) float64 { return r.calRun })*1e3, "ms")
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ---------------------------------------------------------------------------
// Per-layer metrics.

// perLayer combines the untraced pass's totals with the profiled pass's
// shares and the layers' counters.
func perLayer(base, prof *pass) map[string]metric {
	e2e := base.endToEnd()
	m := map[string]metric{}
	cpu := prof.cpu.shares(e2e["cpu_us_per_op"].Value)
	objs := prof.objs.shares(e2e["allocs_per_op"].Value)
	byts := prof.bytes.shares(e2e["alloc_bytes_per_op"].Value)
	for _, b := range buckets() {
		m[b+".cpu_us_per_op"] = metric{cpu[b], "us/op"}
		m[b+".allocs_per_op"] = metric{objs[b], "allocs/op"}
		m[b+".alloc_bytes_per_op"] = metric{byts[b], "B/op"}
	}

	c := prof.ctr
	per := func(x uint64) float64 {
		if prof.ctrOps == 0 {
			return 0
		}
		return float64(x) / float64(prof.ctrOps)
	}
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	runNs := base.refRunS() * 1e9
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	set("sim.events_per_op", per(c.Events), "events/op")
	set("sim.ns_per_event", ratio(uint64(runNs), c.Events), "ns/event")
	set("sim.mail_per_op", per(c.Mail), "mail/op")
	set("fabric.pkts_per_op", per(c.Pkts), "pkts/op")
	set("fabric.drop_ratio", ratio(c.PktDrops, c.Pkts+c.PktDrops), "ratio")
	set("nic.rx_backup_ratio", ratio(c.RxBackup, c.RxDelivered+c.RxBackup), "ratio")
	set("nic.rx_fault_drops_per_op", per(c.RxDrops), "1/op")
	set("nic.tx_faults_per_op", per(c.TxFaults), "1/op")
	set("iommu.iotlb_hit_ratio", ratio(c.IotlbHits, c.IotlbHits+c.IotlbMisses), "ratio")
	set("iommu.faults_per_op", per(c.Faults), "1/op")
	set("mem.minor_faults_per_op", per(c.Minor), "1/op")
	set("mem.major_faults_per_op", per(c.Major), "1/op")
	set("mem.evictions_per_op", per(c.Evictions), "1/op")
	set("core.npfs_per_op", per(c.Npfs), "1/op")
	set("core.pin_cache_hit_ratio", ratio(c.PinHits, c.PinHits+c.PinMisses), "ratio")
	set("core.resolver_timeouts_per_op", per(c.ResolverTimeouts), "1/op")
	set("rc.retx_per_op", per(c.RcRetx), "1/op")
	set("rc.rnr_nacks_per_op", per(c.RnrNacks), "1/op")
	set("tcp.retx_per_op", per(c.TcpRetx), "1/op")
	set("kv.shed_ratio", ratio(c.KvShed, uint64(prof.ctrOps)), "ratio")
	set("kv.failovers", float64(c.KvFailovers), "count")
	set("topo.bytes_per_host", ratio(c.StateBytes, c.Hosts), "B/host")

	traced := 0.0
	for _, r := range prof.reps {
		traced += r.runS
	}
	traced *= prof.runScale() / float64(len(prof.reps))
	set("profile_overhead", traced*1e9/runNs, "x")
	return m
}
