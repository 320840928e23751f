package sim

import "testing"

func BenchmarkEngineEventThroughput(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine(1)
	n := 0
	var step func()
	step = func() {
		n++
		if n < b.N {
			e.After(10, step)
		}
	}
	b.ResetTimer()
	e.After(1, step)
	e.Run()
}

// BenchmarkEngineImmediate measures the After(0) fast path: run-this-next
// scheduling bypasses the heap entirely.
func BenchmarkEngineImmediate(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine(1)
	n := 0
	var step func()
	step = func() {
		n++
		if n < b.N {
			e.After(0, step)
		}
	}
	b.ResetTimer()
	e.After(0, step)
	e.Run()
}

func BenchmarkEngineScheduleCancel(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := e.At(Time(i+1), func() {})
		e.Cancel(id)
	}
}

// BenchmarkEngineTimerChurn mimics TCP retransmission timers: a window of
// far-future timers that are almost always cancelled (acked) before firing,
// with a live event chain driving the clock. This is the pattern lazy
// deletion and heap compaction exist for.
func BenchmarkEngineTimerChurn(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine(1)
	const window = 256
	var timers [window]EventID
	n := 0
	var step func()
	step = func() {
		slot := n % window
		e.Cancel(timers[slot])
		timers[slot] = e.After(1_000_000, func() {})
		n++
		if n < b.N {
			e.After(10, step)
		}
	}
	b.ResetTimer()
	e.After(1, step)
	e.Run()
}

func BenchmarkRandUint64(b *testing.B) {
	r := NewRand(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= r.Uint64()
	}
	_ = sink
}

func BenchmarkHistogramAdd(b *testing.B) {
	var h Histogram
	for i := 0; i < b.N; i++ {
		h.Add(float64(i & 1023))
	}
}

// TestEngineSteadyStateAllocs gates the free-list contract the same way
// TestTracerDisabledNoAlloc gates the tracer: once the pool and queue slices
// are warm, scheduling, cancelling, and running events must not allocate.
func TestEngineSteadyStateAllocs(t *testing.T) {
	e := NewEngine(1)
	fn := func() {}
	cycle := func() {
		e.After(5, fn)
		e.After(0, fn)
		id := e.After(100, fn)
		e.Cancel(id)
		e.Run()
	}
	for i := 0; i < 100; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Fatalf("steady-state schedule/cancel/run allocates %.1f per cycle, want 0", allocs)
	}
}

// TestEngineTimerChurnAllocs runs the retransmission-timer pattern under
// AllocsPerRun: cancellations must be absorbed by lazy deletion and the
// pool, not fresh allocations.
func TestEngineTimerChurnAllocs(t *testing.T) {
	e := NewEngine(1)
	fn := func() {}
	const window = 128
	var timers [window]EventID
	n := 0
	cycle := func() {
		slot := n % window
		e.Cancel(timers[slot])
		timers[slot] = e.After(1_000_000, fn)
		n++
		e.After(1, fn)
		e.RunUntil(e.Now() + 2)
	}
	for i := 0; i < 4*window; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Fatalf("timer churn allocates %.1f per cycle, want 0", allocs)
	}
}

// counterHandler is a typed event that re-arms itself until n reaches
// limit, like a port serializing packets back to back.
type counterHandler struct {
	e        *Engine
	n, limit int
}

func (h *counterHandler) Fire() {
	h.n++
	if h.n < h.limit {
		h.e.AfterH(10, h)
	}
}

// TestTypedHandlerAllocs is the runtime side of the //npf:noalloc fence
// on AtH/AfterH: scheduling a pointer handler stores it in the event's
// interface without boxing, so a steady-state chain allocates nothing.
func TestTypedHandlerAllocs(t *testing.T) {
	e := NewEngine(1)
	h := &counterHandler{e: e}
	cycle := func() {
		h.n, h.limit = 0, 8
		e.AfterH(1, h)
		id := e.AfterH(100, h)
		e.Cancel(id)
		e.Run()
	}
	for i := 0; i < 100; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Fatalf("steady-state typed-handler chain allocates %.1f per cycle, want 0", allocs)
	}
}
