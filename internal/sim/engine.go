// Package sim provides the deterministic discrete-event simulation engine
// that every other subsystem in this repository runs on.
//
// A single Engine owns a virtual clock and a priority queue of events.
// Components schedule callbacks with At/After, or typed Handlers with
// AtH/AfterH; Run drains the queue in (time, sequence) order, so two runs
// with the same seed and the same schedule produce byte-identical results.
//
// The hot path is allocation-free in steady state: executed and cancelled
// events return to a free list and are reused by later At/After calls, and
// Cancel marks events dead in place (lazy deletion) instead of paying a
// heap fix-up. Neither optimization can change the execution order — see
// DESIGN.md §6, "Engine hot path", for the invariants.
package sim

import (
	"fmt"
	"math"
	"time"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation.
type Time int64

// Common durations, usable as sim.Time spans.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// Forever is a time later than any event the engine will ever execute.
// Events scheduled at exactly Forever (the result of a saturated Add) are
// legal but never run.
const Forever Time = math.MaxInt64

// Add returns t+d saturated to [0, Forever] instead of wrapping:
// scheduling arithmetic on long lookahead windows must never travel back
// in time.
func (t Time) Add(d Time) Time {
	s := t + d
	if d >= 0 {
		if s < t {
			return Forever
		}
	} else if s < 0 || s > t {
		return 0
	}
	return s
}

// Duration converts a standard library duration into a virtual time span.
// It is the one sanctioned wall-clock-type boundary in the sim layers.
//
//npf:realtime
func Duration(d time.Duration) Time { return Time(d.Nanoseconds()) }

// Seconds reports t as floating-point seconds, for human-readable output.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros reports t as floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

func (t Time) String() string {
	return time.Duration(t).String()
}

// Handler is a typed event: the engine calls Fire when the event comes
// due. A pointer-shaped implementation (a pointer receiver, or Func) is
// stored in the interface without allocating, so a component that
// schedules the same object over and over — a port serializing packets,
// a packet propagating across a link — pays nothing per event.
type Handler interface {
	Fire()
}

// Func adapts a plain callback to Handler. At, After and Post schedule
// through it; a func value converts to Handler without allocating, so
// the closure itself is the only cost.
type Func func()

// Fire calls f.
func (f Func) Fire() { f() }

// event is a scheduled callback. seq breaks ties between events scheduled
// for the same instant, preserving scheduling order. The struct is pooled:
// gen distinguishes the current tenancy from stale EventIDs that refer to
// an earlier use of the same struct. It must stay within the 48-byte size
// class (DESIGN.md §6, "Engine hot path"): one Handler, never a handler
// plus an argument.
type event struct {
	at   Time
	seq  uint64
	h    Handler
	gen  uint64
	dead bool // cancelled; skipped (and recycled) when it surfaces
	imm  bool // lives in the immediate FIFO, not the heap
}

// EventID identifies a scheduled event so it can be cancelled. The zero
// value is valid and never cancels anything.
type EventID struct {
	ev  *event
	gen uint64
}

// maxFreeEvents caps the free list; beyond it, recycled events are left to
// the garbage collector. The cap bounds pool memory after a burst while
// keeping every steady-state workload allocation-free.
const maxFreeEvents = 1 << 16

// compactMinDead is the floor below which Cancel never triggers heap
// compaction; tiny queues are cheaper to let pop-skip clean up.
const compactMinDead = 64

// Engine is a discrete-event simulator. The zero value is not usable; create
// one with NewEngine.
type Engine struct {
	now Time
	seq uint64
	// heap is a manual binary min-heap ordered by (at, seq). It holds every
	// scheduled event except those due at exactly the current instant.
	heap []*event
	// imm is a FIFO of events scheduled for the current instant (After(0),
	// At(Now())). Appending preserves seq order, and no heap event due now
	// can have a larger seq (nothing enters the heap at the current time),
	// so a plain queue pop keeps the global (at, seq) order — while making
	// the extremely common "run this next" pattern O(1).
	imm     []*event
	immHead int
	// free is the event pool; live/heapDead drive Pending and compaction.
	free     []*event
	live     int
	heapDead int
	rng      *Rand
	stopped  bool
	// executed counts events run, for diagnostics and runaway detection.
	executed uint64
	// MaxEvents aborts Run with a panic after this many events, guarding
	// against accidental infinite simulations. Zero means no limit.
	MaxEvents uint64
	// group/part link the engine to its PDES coordinator when it is one
	// partition of a sim.Group; nil for standalone engines. callSeq
	// numbers this engine's cross-partition Calls for deterministic
	// timestamp tie-breaks.
	group   *Group
	part    int
	callSeq uint64
}

// NewEngine returns an engine whose clock reads zero and whose random source
// is seeded with seed.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: NewRand(seed)}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *Rand { return e.rng }

// Group returns the PDES group this engine is a partition of, or nil for
// a standalone engine.
func (e *Engine) Group() *Group { return e.group }

// Partition returns the engine's partition index within its group, or 0
// for a standalone engine.
func (e *Engine) Partition() int { return e.part }

// NextEventTime returns the timestamp of the earliest scheduled event, or
// Forever when nothing is pending. It is the conservative-sync protocol's
// view of the engine's next action.
func (e *Engine) NextEventTime() Time {
	if ev, _ := e.peek(); ev != nil {
		return ev.at
	}
	return Forever
}

// Executed reports how many events have run so far.
func (e *Engine) Executed() uint64 { return e.executed }

// Pending reports how many events are currently scheduled (cancelled events
// are not counted, even while they still occupy queue slots).
func (e *Engine) Pending() int { return e.live }

// alloc takes an event from the pool, or allocates one when the pool is
// empty, and stamps it with the next sequence number.
func (e *Engine) alloc(t Time, h Handler) *event {
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = &event{} //npf:allocok — pool miss; amortized away once the pool warms up
	}
	ev.at, ev.seq, ev.h = t, e.seq, h
	e.seq++
	return ev
}

// recycle returns an event to the pool. Bumping gen invalidates every
// EventID that still points at this struct.
func (e *Engine) recycle(ev *event) {
	ev.gen++
	ev.h = nil
	ev.dead = false
	ev.imm = false
	if len(e.free) < maxFreeEvents {
		e.free = append(e.free, ev) //npf:allocok — pool refill; capacity reaches steady state
	}
}

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// (before Now) panics: that is always a component bug.
//
//npf:noalloc
func (e *Engine) At(t Time, fn func()) EventID { return e.AtH(t, Func(fn)) }

// After schedules fn to run d nanoseconds from now. The target time
// saturates at Forever instead of wrapping, and events at Forever never
// execute, so arbitrarily long delays are safe no-ops.
//
//npf:noalloc
func (e *Engine) After(d Time, fn func()) EventID { return e.AfterH(d, Func(fn)) }

// AtH schedules h.Fire to run at absolute virtual time t. It is At for a
// typed handler: same ordering, same sequence numbering, one event.
//
//npf:noalloc
func (e *Engine) AtH(t Time, h Handler) EventID {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now)) //npf:allocok — dying anyway
	}
	ev := e.alloc(t, h)
	e.live++
	if t == e.now {
		ev.imm = true
		e.imm = append(e.imm, ev) //npf:allocok — FIFO backing reaches steady-state capacity
	} else {
		e.pushHeap(ev)
	}
	return EventID{ev, ev.gen}
}

// AfterH schedules h.Fire to run d nanoseconds from now, saturating like
// After.
//
//npf:noalloc
func (e *Engine) AfterH(d Time, h Handler) EventID {
	if d < 0 {
		d = 0
	}
	return e.AtH(e.now.Add(d), h)
}

// Cancel removes a scheduled event. Cancelling an event that already ran or
// was already cancelled is a no-op; Cancel reports whether the event was
// actually removed. Removal is lazy: the event is marked dead and skipped
// (and its struct recycled) when it reaches the front of its queue, with a
// full compaction once dead events outnumber live ones.
//
//npf:noalloc
func (e *Engine) Cancel(id EventID) bool {
	ev := id.ev
	if ev == nil || ev.gen != id.gen || ev.dead {
		return false
	}
	ev.dead = true
	ev.h = nil
	e.live--
	if !ev.imm {
		e.heapDead++
		if e.heapDead >= compactMinDead && e.heapDead*2 > len(e.heap) {
			e.compact()
		}
	}
	return true
}

// compact drops every dead event from the heap and restores the heap
// property. Order is unaffected: (at, seq) is a total order, so any valid
// heap over the same live set pops in the same sequence.
func (e *Engine) compact() {
	kept := e.heap[:0]
	for _, ev := range e.heap {
		if ev.dead {
			e.recycle(ev)
		} else {
			kept = append(kept, ev) //npf:allocok — appends into e.heap's own backing (kept = e.heap[:0]); never grows
		}
	}
	for i := len(kept); i < len(e.heap); i++ {
		e.heap[i] = nil
	}
	e.heap = kept
	e.heapDead = 0
	for i := len(kept)/2 - 1; i >= 0; i-- {
		e.siftDown(i)
	}
}

// Stop makes Run return after the currently executing event completes.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events until the queue is empty or Stop is called. It returns
// the final virtual time.
func (e *Engine) Run() Time { return e.RunUntil(Forever) }

// peek returns the next live event and which queue it heads, discarding any
// dead events that have surfaced. It returns nil when nothing is scheduled.
func (e *Engine) peek() (ev *event, fromHeap bool) {
	for e.immHead < len(e.imm) && e.imm[e.immHead].dead {
		e.recycle(e.imm[e.immHead])
		e.imm[e.immHead] = nil
		e.immHead++
	}
	if e.immHead == len(e.imm) {
		e.imm = e.imm[:0]
		e.immHead = 0
	}
	for len(e.heap) > 0 && e.heap[0].dead {
		e.heapDead--
		e.recycle(e.popHeap())
	}
	switch {
	case len(e.heap) == 0 && e.immHead == len(e.imm):
		return nil, false
	case len(e.heap) > 0 && (e.immHead == len(e.imm) || e.heap[0].at <= e.now):
		// A heap event due at the current instant predates (smaller seq)
		// everything in the immediate FIFO: events only enter the heap for
		// future times, so it must run first.
		return e.heap[0], true
	default:
		return e.imm[e.immHead], false
	}
}

// flushImm migrates pending immediate events into the heap. Called before
// the clock jumps to a deadline, so the FIFO's invariant (every entry is due
// at the current instant) survives Stop-then-RunUntil sequences; the moved
// events keep their (at, seq) keys, so order is unchanged. In the common
// case the FIFO is already empty and this is a no-op.
func (e *Engine) flushImm() {
	for e.immHead < len(e.imm) {
		ev := e.imm[e.immHead]
		e.imm[e.immHead] = nil
		e.immHead++
		if ev.dead {
			e.recycle(ev)
			continue
		}
		ev.imm = false
		e.pushHeap(ev)
	}
	e.imm = e.imm[:0]
	e.immHead = 0
}

// RunUntil executes events with timestamps <= deadline. Events scheduled
// after the deadline remain queued; the clock is advanced to the deadline if
// it is reached (and the deadline is not Forever).
func (e *Engine) RunUntil(deadline Time) Time {
	e.stopped = false
	for !e.stopped {
		next, fromHeap := e.peek()
		if next == nil {
			break
		}
		if next.at > deadline || next.at == Forever {
			if deadline != Forever && deadline > e.now {
				e.flushImm()
				e.now = deadline
			}
			return e.now
		}
		if fromHeap {
			e.popHeap()
		} else {
			e.imm[e.immHead] = nil
			e.immHead++
		}
		e.live--
		e.now = next.at
		e.executed++
		if e.MaxEvents != 0 && e.executed > e.MaxEvents {
			panic(fmt.Sprintf("sim: exceeded MaxEvents=%d at t=%v", e.MaxEvents, e.now))
		}
		h := next.h
		e.recycle(next)
		h.Fire()
	}
	if e.stopped && e.group != nil {
		// Grouped engines must report the stopping event's own time so the
		// coordinator can shrink the shared horizon deterministically.
		return e.now
	}
	if deadline != Forever && e.now < deadline {
		e.flushImm()
		e.now = deadline
	}
	return e.now
}

// ---------------------------------------------------------------------------
// Manual binary min-heap over (at, seq). Hand-rolled instead of
// container/heap to keep the hot path free of interface dispatch.

func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (e *Engine) pushHeap(ev *event) {
	e.heap = append(e.heap, ev) //npf:allocok — heap backing reaches steady-state capacity
	e.siftUp(len(e.heap) - 1)
}

func (e *Engine) popHeap() *event {
	h := e.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = nil
	e.heap = h[:n]
	if n > 1 {
		e.siftDown(0)
	}
	return top
}

func (e *Engine) siftUp(i int) {
	h := e.heap
	ev := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if !eventLess(ev, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
}

func (e *Engine) siftDown(i int) {
	h := e.heap
	n := len(h)
	ev := h[i]
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && eventLess(h[r], h[l]) {
			m = r
		}
		if !eventLess(h[m], ev) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = ev
}
