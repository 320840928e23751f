// Conservative parallel discrete-event simulation (PDES).
//
// A Group shards one simulation across several Engines — one per
// partition — and synchronizes them with a conservative lookahead
// protocol. The contract is the same as the rest of this repository:
// results are byte-identical for any thread count.
//
// # Protocol
//
// Cross-partition interactions go through per-partition mailboxes: a
// timestamped closure posted with Post(to, at, src, seq, fn) — or a typed
// Handler posted with PostH — executes on
// the destination partition's engine at virtual time at, ordered by
// (at, src, seq) against other mail and after local events with the same
// timestamp. The sender promises that every post it issues satisfies
//
//	at >= clock_sender + lookahead
//
// where clock_sender is the sender's published clock at the moment of the
// send. That promise is exactly what fabric propagation latency provides:
// a message sent while executing an event at time t arrives at t+L.
//
// Each partition i repeatedly:
//
//  1. publishes raw_i = min(next local event, earliest mail in box);
//  2. reads every raw_j and mailbox head and forms their minimum M (its
//     own included — mail already in its box bounds its own next
//     action), then
//     publishes clock_i = min(raw_i, M+L). The M+L term is what lets a
//     quiescent partition jump its clock across a long idle gap in one
//     step instead of creeping by L per iteration: nothing anywhere can
//     execute before M, so nothing can send mail arriving before M+L.
//  3. computes the exclusive execution bound
//     B = min( min_{j≠i} clock_j + L , horizon+1 )
//     and executes everything below it: mail below B is popped in
//     (at, src, seq) order, running local events first via
//     RunUntil(m.at) before each injection, then the local tail via
//     RunUntil(B-1).
//
// Safety: no mail can arrive below a receiver's executed frontier.
// Mail sent after partition i read clock_j carries a timestamp
// >= clock_j + L >= B_i's contribution from j, and published clocks
// never decrease, so the set of mail below B is fixed before the batch
// starts. That needs M to be a true lower bound on all future execution,
// so steps 1-2 read every raw and mailbox as one consistent snapshot
// under the group lock, and every change to them (a post, a pop, a
// publish) takes the same lock. Popping mail lowers the receiver's raw
// to the mail's timestamp until its next publish: between the pop and
// that publish the mail is in neither the box nor a published raw, and
// a partition that computed M then could jump its clock past the
// receiver's reply to it. Lock-free reads in any fixed order can miss
// a message in transit this way (mail moves sender raw -> box ->
// receiver raw, and its effects into further boxes).
// Equal-timestamp mail from different sources cannot race either: for
// i to be executing time t at all, every other clock exceeds t-L, so
// any future send lands strictly after t.
//
// Determinism: each engine therefore executes an identical event
// sequence regardless of how batches are sliced, i.e. regardless of the
// number of worker threads (SetThreads). Injected closures run between
// engine events and consume no engine sequence numbers, so seq
// assignment of the events they schedule is also timing-independent.
//
// Termination uses raw values, not clocks: when every partition's raw
// and every mailbox head exceed the horizon (or are Forever) in one
// snapshot under the group lock, no partition can ever create work at
// or below the horizon.
//
// Stop is deterministic too: stopping from an event executing at time s
// shrinks the shared horizon to s+L-1 with an atomic min. Every
// partition's frontier is provably below s+L at that moment, so every
// run — any thread count — executes exactly the events with timestamps
// <= s+L-1. See DESIGN.md §S19 for the full argument.
package sim

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// mail is one cross-partition injection: fire h on the destination
// engine at virtual time at, ordered by (at, src, seq).
type mail struct {
	at  Time
	src uint64
	seq uint64
	h   Handler
}

func mailLess(a, b mail) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.src != b.src {
		return a.src < b.src
	}
	return a.seq < b.seq
}

// mailbox is a min-heap of mail ordered by (at, src, seq). The owning
// Group's mu guards it.
type mailbox struct {
	h []mail
}

func (b *mailbox) push(m mail) {
	b.h = append(b.h, m)
	i := len(b.h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !mailLess(b.h[i], b.h[p]) {
			break
		}
		b.h[i], b.h[p] = b.h[p], b.h[i]
		i = p
	}
}

// head returns the earliest pending timestamp, or Forever when empty.
func (b *mailbox) head() Time {
	if len(b.h) == 0 {
		return Forever
	}
	return b.h[0].at
}

// popBelow removes and returns the earliest mail with at < bound.
func (b *mailbox) popBelow(bound Time) (mail, bool) {
	if len(b.h) == 0 || b.h[0].at >= bound {
		return mail{}, false
	}
	top := b.h[0]
	n := len(b.h) - 1
	b.h[0] = b.h[n]
	b.h[n] = mail{}
	b.h = b.h[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && mailLess(b.h[r], b.h[l]) {
			m = r
		}
		if !mailLess(b.h[m], b.h[i]) {
			break
		}
		b.h[i], b.h[m] = b.h[m], b.h[i]
		i = m
	}
	return top, true
}

// partState is the per-partition synchronization state. box and raw are
// guarded by Group.mu; clock is written under it and read lock-free.
type partState struct {
	box   mailbox
	raw   Time         // lower bound on the partition's next action
	clock atomic.Int64 // conservative promise: no future send arrives < clock+L
}

// Group runs one simulation sharded across several engines. Create one
// with NewGroup, schedule work on the per-partition engines (Engine(i)),
// route every cross-partition interaction through Post, and drive the
// whole ensemble with Run/RunUntil.
type Group struct {
	engines []*Engine
	parts   []*partState
	// mu serializes every mailbox change, every raw change and every
	// floor snapshot (see the package comment's safety argument).
	mu      sync.Mutex
	look    Time
	horizon atomic.Int64 // inclusive execution horizon for the current run
	threads int
	// injected counts mailbox closures executed; they are not engine
	// events, so Executed() folds them in for cross-mode accounting.
	injected atomic.Uint64
	// done latches the shared termination decision for the current run:
	// threads must stop together, since a partition that looks exhausted
	// can still be fed by another thread's batch.
	done atomic.Bool
}

// splitmix64 decorrelates per-partition engine seeds.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// NewGroup creates a group of parts engines. Partition 0 is seeded with
// seed itself (matching a single-engine run of the same build recipe);
// the rest get splitmix64-derived seeds. lookahead is the minimum
// cross-partition latency every Post must respect and must be positive.
func NewGroup(seed int64, parts int, lookahead Time) *Group {
	if parts < 1 {
		panic("sim: group needs at least one partition")
	}
	if lookahead <= 0 {
		panic("sim: group lookahead must be positive")
	}
	g := &Group{look: lookahead, threads: 1}
	for i := 0; i < parts; i++ {
		s := seed
		if i > 0 {
			s = int64(splitmix64(uint64(seed) ^ uint64(i)*0x9E3779B97F4A7C15))
		}
		e := NewEngine(s)
		e.group, e.part = g, i
		g.engines = append(g.engines, e)
		g.parts = append(g.parts, &partState{})
	}
	return g
}

// Parts returns the number of partitions.
func (g *Group) Parts() int { return len(g.engines) }

// Engine returns partition i's engine.
func (g *Group) Engine(i int) *Engine { return g.engines[i] }

// Engines returns all partition engines, indexed by partition.
func (g *Group) Engines() []*Engine { return g.engines }

// Lookahead returns the group's conservative lookahead window.
func (g *Group) Lookahead() Time { return g.look }

// SetThreads sets the number of worker goroutines used by Run/RunUntil.
// Values are clamped to [1, Parts()]. Results are byte-identical for any
// setting; threads only change wall-clock speed.
func (g *Group) SetThreads(n int) {
	if n < 1 {
		n = 1
	}
	g.threads = n
}

// Executed reports the total work done: engine events across all
// partitions plus injected mailbox closures. The total is deterministic
// and identical for any thread count.
func (g *Group) Executed() uint64 {
	total := g.injected.Load()
	for _, e := range g.engines {
		total += e.Executed()
	}
	return total
}

// Post schedules fn to run on partition to's engine at absolute virtual
// time at. (src, seq) break timestamp ties deterministically, so each
// source must number its posts from a counter owned by its own
// partition. The caller must guarantee at >= its clock + lookahead,
// which holds for any message that traverses a fabric link.
//
// Post is for cross-partition mail only. A partition must never post to
// itself: its execution bound is derived from the other partitions'
// clocks, so the local tail can legally run past a self-posted timestamp
// and execute out of order. Same-partition work belongs on the engine's
// own queue (After/At), where it is ordered exactly.
func (g *Group) Post(to int, at Time, src, seq uint64, fn func()) {
	g.PostH(to, at, src, seq, Func(fn))
}

// PostH is Post for a typed handler: h.Fire runs on partition to's engine
// at virtual time at, under the same ordering and lookahead contract.
func (g *Group) PostH(to int, at Time, src, seq uint64, h Handler) {
	if at < 0 {
		panic(fmt.Sprintf("sim: group post at negative time %d", at))
	}
	g.mu.Lock()
	g.parts[to].box.push(mail{at: at, src: src, seq: seq, h: h})
	g.mu.Unlock()
}

// callSrc tags Engine.Call mail sources so they can never collide with a
// model-layer source id (fabric node ids and the like are small ints).
const callSrc = uint64(1) << 63

// Call executes fn in target's partition. When both engines share a
// partition — in particular when they are the same engine, the
// single-engine case — fn runs immediately, the historical synchronous
// behaviour. Across partitions, fn is delivered through the group
// mailbox one lookahead ahead of e's clock, the earliest instant the
// conservative protocol can order deterministically; delivery order
// among Calls from the same engine follows call order. Call must be
// invoked either from an event running on e or before the group starts.
func (e *Engine) Call(target *Engine, fn func()) {
	if e.group == nil || e.group != target.group || e.part == target.part {
		fn()
		return
	}
	e.callSeq++
	e.group.Post(target.part, e.now.Add(e.group.look), callSrc|uint64(e.part), e.callSeq, fn)
}

// Run executes the whole group until every partition is quiescent.
func (g *Group) Run() Time { return g.RunUntil(Forever) }

// RunUntil executes every event with timestamp <= until across all
// partitions, then advances every engine's clock to the final horizon
// (which Stop may have shrunk below until). It returns that horizon.
// RunUntil may be called repeatedly with nondecreasing horizons.
func (g *Group) RunUntil(until Time) Time {
	if until < 0 {
		panic("sim: group horizon must be nonnegative")
	}
	g.horizon.Store(int64(until))
	g.done.Store(false)
	// Re-seed the synchronization state single-threaded: nothing is
	// executing, so each partition's next action is exact and clocks may
	// jump straight to it (stale clocks from a previous RunUntil would
	// otherwise force a slow creep back up to the current time). Clocks
	// are seeded to min(raw, globalMin + L), the same promise
	// runPartition publishes: an idle partition must NOT claim Forever,
	// because any live partition's mail can still wake it — a Forever
	// clock would unbound the others' execution and let them run causally
	// ahead of replies this partition has yet to produce.
	minRaw := Forever
	for i, e := range g.engines {
		ps := g.parts[i]
		ps.raw = e.NextEventTime()
		if h := ps.box.head(); h < ps.raw {
			ps.raw = h
		}
		if ps.raw < minRaw {
			minRaw = ps.raw
		}
	}
	for _, ps := range g.parts {
		clock := minRaw.Add(g.look)
		if ps.raw < clock {
			clock = ps.raw
		}
		ps.clock.Store(int64(clock))
	}
	threads := g.threads
	if threads > len(g.engines) {
		threads = len(g.engines)
	}
	if threads <= 1 {
		g.runThread(0, 1)
	} else {
		var wg sync.WaitGroup
		for tid := 1; tid < threads; tid++ {
			wg.Add(1)
			go func(tid int) {
				defer wg.Done()
				g.runThread(tid, threads)
			}(tid)
		}
		g.runThread(0, threads)
		wg.Wait()
	}
	final := Time(g.horizon.Load())
	if final != Forever {
		for _, e := range g.engines {
			if e.now < final {
				e.RunUntil(final) // no events remain <= final; advances the clock
			}
		}
	}
	return final
}

// runThread services partitions tid, tid+T, tid+2T, ... until the whole
// group is quiescent beyond the horizon. The partition->thread map is
// static, so each engine is touched by exactly one goroutine per run.
func (g *Group) runThread(tid, threads int) {
	idle := 0
	for {
		if g.done.Load() {
			return
		}
		progressed := false
		for p := tid; p < len(g.engines); p += threads {
			if g.runPartition(p) {
				progressed = true
			}
		}
		if progressed {
			idle = 0
			continue
		}
		if g.quiescent() {
			g.done.Store(true)
			return
		}
		idle++
		if idle > 64 {
			runtime.Gosched()
		}
	}
}

// quiescent reports whether no partition holds — or can ever create —
// work at or below the horizon. Raws cover every partition's local
// events and the mail it has popped, boxes the mail in flight.
func (g *Group) quiescent() bool {
	h := Time(g.horizon.Load())
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, ps := range g.parts {
		if ps.raw <= h && ps.raw != Forever {
			return false
		}
		if bh := ps.box.head(); bh <= h && bh != Forever {
			return false
		}
	}
	return true
}

// runPartition performs one synchronization-and-execute iteration for
// partition p. It reports whether any work was done.
func (g *Group) runPartition(p int) bool {
	e := g.engines[p]
	ps := g.parts[p]

	// (1) Publish the next-action estimate, and (2) the conservative
	// clock: min(raw, globalFloor + L). The floor is the minimum over
	// every raw and every mailbox head, read as one snapshot under the
	// group lock, so it is a true lower bound on all future execution
	// anywhere.
	g.mu.Lock()
	raw := e.NextEventTime()
	if h := ps.box.head(); h < raw {
		raw = h
	}
	ps.raw = raw
	minRaw := raw
	for _, qs := range g.parts {
		if qs.raw < minRaw {
			minRaw = qs.raw
		}
		if h := qs.box.head(); h < minRaw {
			minRaw = h
		}
	}
	clock := minRaw.Add(g.look)
	if raw < clock {
		clock = raw
	}
	// Published clocks must never decrease: receivers trust that any send
	// issued after they read clock_j arrives at or beyond that value + L.
	// An older (higher) clock was a valid bound on all execution after its
	// publish instant, which includes everything still to come.
	if prev := Time(ps.clock.Load()); clock < prev {
		clock = prev
	}
	ps.clock.Store(int64(clock))
	g.mu.Unlock()

	horizon := Time(g.horizon.Load())
	if raw > horizon || raw == Forever {
		return false // nothing runnable this side of the horizon
	}

	// (3) Execution bound: strictly below every other clock + lookahead,
	// and never beyond the horizon. The horizon is re-read inside the
	// loop because Stop may shrink it mid-batch.
	bound := Forever
	for q, qs := range g.parts {
		if q == p {
			continue
		}
		if w := Time(qs.clock.Load()).Add(g.look); w < bound {
			bound = w
		}
	}
	if h1 := horizon.Add(1); h1 < bound {
		bound = h1
	}

	progressed := false
	for {
		if h1 := Time(g.horizon.Load()).Add(1); h1 < bound {
			bound = h1
		}
		g.mu.Lock()
		m, ok := ps.box.popBelow(bound)
		if ok && m.at < ps.raw {
			ps.raw = m.at // covers the mail until the next publish
		}
		g.mu.Unlock()
		if !ok {
			break
		}
		// Local events at or before the mail's timestamp run first; a
		// same-instant local event always predates injected mail. A Stop
		// issued by one of those events shrinks the horizon and execution
		// resumes toward the mail's timestamp.
		if g.runLocal(e, m.at) {
			progressed = true
		}
		if m.at > Time(g.horizon.Load()) {
			// A Stop moved the horizon below this mail; requeue it so a
			// later RunUntil with a larger horizon can still deliver it.
			g.mu.Lock()
			ps.box.push(m)
			g.mu.Unlock()
			break
		}
		m.h.Fire()
		g.injected.Add(1)
		progressed = true
	}
	// Local tail: run events up to the batch bound (or the horizon, when
	// this partition is unconstrained), re-clamping after any Stop. The
	// engine advances only to event timestamps, never to the bound itself:
	// the bound depends on the other partitions' momentary clocks, so
	// parking the engine clock there would make final Now() values vary
	// with thread timing even though the event sequence does not.
	for {
		target := bound - 1
		if bound == Forever {
			target = horizon
		}
		if h := Time(g.horizon.Load()); h < target {
			target = h
		}
		nt := e.NextEventTime()
		if nt == Forever || nt > target || nt < e.now {
			break
		}
		before := e.executed
		e.RunUntil(nt)
		if e.executed != before {
			progressed = true
		}
		if e.stopped {
			e.stopped = false
			g.StopFrom(e)
		}
	}
	return progressed
}

// runLocal advances e to at, executing every local event with timestamp
// <= at (including same-instant events, which predate injected mail) and
// folding any Stop() issued along the way into the group horizon. It
// reports whether any events ran.
func (g *Group) runLocal(e *Engine, at Time) bool {
	before := e.executed
	for {
		e.RunUntil(at)
		if !e.stopped {
			return e.executed != before
		}
		e.stopped = false
		g.StopFrom(e)
	}
}

// StopFrom deterministically ends the current run shortly after the
// calling event: the horizon shrinks to e.Now() + lookahead - 1, which
// every partition's frontier is provably still below, so every run
// executes exactly the same event set regardless of thread count. e must
// be the engine the calling event is executing on.
func (g *Group) StopFrom(e *Engine) {
	newH := int64(e.now.Add(g.look) - 1)
	for {
		cur := g.horizon.Load()
		if cur <= newH {
			return
		}
		if g.horizon.CompareAndSwap(cur, newH) {
			return
		}
	}
}
