package sim

import (
	"fmt"

	"shrimp/internal/trace"
)

// event is a single entry in the engine's calendar. Exactly one of fn and
// proc is set: fn events run inline wherever the event loop is running
// (Engine.run or a parking process); proc events resume a parked
// process.
type event struct {
	t        Time
	seq      uint64
	fn       func()
	proc     *Proc
	canceled bool
}

// invalidSeq marks a recycled event so a stale Timer can detect that its
// event already fired (seq values are assigned monotonically and never
// reach this sentinel in practice).
const invalidSeq = ^uint64(0)

// less orders events by (time, scheduling order): the determinism
// invariant every experiment depends on.
func less(a, b *event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

// Engine is a deterministic discrete-event simulator. The zero value is
// not usable; construct with NewEngine.
//
// Four structural choices keep the event hot path cheap:
//
//   - The calendar is split in two. Future events live in a hand-rolled
//     binary heap; events due at the current instant (zero-delay
//     callbacks, condition signals, resource handoffs — the overwhelmingly
//     common case) go to a plain FIFO slice, bypassing the O(log n) heap.
//     Because seq numbers increase monotonically and virtual time never
//     moves backwards, merging the two by (t, seq) at pop time reproduces
//     exactly the order a single heap would produce, so the fast path
//     cannot change any simulation outcome.
//
//   - Fired and canceled events are recycled through a freelist, so a
//     steady-state simulation allocates no event structures.
//
//   - Processes are coroutines, not goroutines. Each Proc body runs on
//     an iter.Pull coroutine taken from a per-engine pool, and Run's
//     loop is the one place that resumes them. A parking process keeps
//     dispatching events itself: fn events run inline and its own
//     wakeup returns with no switch at all. Only a proc event for
//     another process yields, leaving that process in the handoff slot
//     for the loop to resume. Coroutine switches never go through the
//     Go scheduler, and exactly one coroutine runs at any instant, so
//     the simulation stays single-threaded and bit-for-bit
//     deterministic.
//
//   - High-frequency actors avoid processes entirely. The blocking
//     primitives have continuation counterparts — Cond.WaitFn,
//     Resource.AcquireFn, Queue.PopFn, and After in place of
//     Proc.Sleep — that schedule plain fn events at exactly the (t, seq)
//     calendar positions where the corresponding process wakeups would
//     sit. Device engines
//     (internal/nic) run this way: their per-packet work dispatches
//     inline with zero coroutine switches, while app code
//     (internal/machine) keeps the expressive blocking style for its
//     rare wakeups. Mixing the two styles on one Cond, Resource, or
//     Queue is legal; waiters of either kind are granted in arrival
//     order. See docs/engine.md for the determinism argument.
type Engine struct {
	now    Time
	seq    uint64
	events []*event //shrimp:nostate asserted: Quiescent requires an empty heap; there is nothing to copy
	nowq   []*event //shrimp:nostate asserted: Quiescent requires an empty same-instant FIFO; Restore re-empties it
	nowqAt int      //shrimp:nostate asserted: head index of the asserted-empty FIFO; Restore zeroes it

	// free is the event freelist.
	free []*event //shrimp:nostate wiring: freelist identity serves every branch; contents are dead events

	// limit bounds event timestamps during RunUntil.
	limit   Time //shrimp:nostate wiring: set afresh by every RunUntil call
	limited bool //shrimp:nostate wiring: set afresh by every RunUntil call

	// handoff is the process a parking process popped for Engine.run
	// to resume after it yields; nil except during that one switch.
	handoff *Proc //shrimp:nostate asserted: Quiescent requires an empty handoff slot
	// idle holds the coroutines whose bodies have returned, ready for
	// the next Spawn.
	idle []*worker //shrimp:nostate wiring: pool of finished coroutines, interchangeable across branches

	live    int     //shrimp:nostate asserted: Quiescent requires zero live processes
	blocked int     //shrimp:nostate asserted: Quiescent requires zero blocked processes
	all     []*Proc // procs spawned and not yet finished are forbidden at quiescence; Restore truncates

	running bool //shrimp:nostate asserted: Quiescent requires no Run in progress
	stopped bool //shrimp:nostate captured: quiescence implies false; Restore resets it explicitly

	// tr is the attached trace recorder, or nil when tracing is off.
	// Hardware and protocol layers cache it at construction; the engine
	// itself only records process lifecycle events.
	tr *trace.Recorder //shrimp:nostate wiring: tracer identity is per-run configuration, not rewindable state
}

// killSignal unwinds a process coroutine during Shutdown.
type killSignal struct{}

// NewEngine returns an empty simulation at time zero.
func NewEngine() *Engine { return &Engine{} }

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// SetTracer attaches a trace recorder (nil detaches). It must be
// called before the hardware models are constructed: they cache the
// recorder pointer so their hot paths pay only a nil check when
// tracing is off.
func (e *Engine) SetTracer(tr *trace.Recorder) { e.tr = tr }

// Tracer returns the attached trace recorder, or nil.
func (e *Engine) Tracer() *trace.Recorder { return e.tr }

// Live reports the number of processes that have been spawned and have
// not yet returned.
func (e *Engine) Live() int { return e.live }

// Blocked reports the number of processes currently parked with no
// scheduled wakeup (i.e. waiting on a condition that nobody has signaled).
// After Run returns, a nonzero Blocked count indicates a deadlock.
func (e *Engine) Blocked() int { return e.blocked }

// alloc takes an event from the freelist or allocates a fresh one.
//
//shrimp:hotpath
func (e *Engine) alloc() *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	//lint:ignore hotpath freelist-miss fill: amortized to zero once the calendar warms up
	return &event{}
}

// recycle returns a fired or canceled event to the freelist, dropping
// its references so closures and processes become collectible.
//
//shrimp:hotpath
func (e *Engine) recycle(ev *event) {
	ev.fn = nil
	ev.proc = nil
	ev.canceled = false
	ev.seq = invalidSeq
	e.free = append(e.free, ev)
}

// push stamps ev with the next seq and files it on the calendar: the
// same-instant FIFO when it is due now, the heap otherwise.
//
//shrimp:hotpath
func (e *Engine) push(ev *event) {
	ev.seq = e.seq
	e.seq++
	if ev.t == e.now {
		e.nowq = append(e.nowq, ev)
		return
	}
	e.heapPush(ev)
}

// heapPush inserts ev into the binary heap (sift up).
//
//shrimp:hotpath
func (e *Engine) heapPush(ev *event) {
	h := append(e.events, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !less(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	e.events = h
}

// heapPop removes and returns the earliest heap event (sift down).
//
//shrimp:hotpath
func (e *Engine) heapPop() *event {
	h := e.events
	n := len(h) - 1
	top := h[0]
	h[0] = h[n]
	h[n] = nil
	h = h[:n]
	e.events = h
	i := 0
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		min := left
		if right := left + 1; right < n && less(h[right], h[left]) {
			min = right
		}
		if !less(h[min], h[i]) {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	return top
}

// next removes and returns the next live event, merging the same-instant
// FIFO with the heap by (t, seq) and discarding canceled entries. Events
// past the RunUntil limit are left in place and nil is returned.
//
//shrimp:hotpath
func (e *Engine) next() *event {
	for {
		var ev *event
		fromFIFO := false
		if e.nowqAt < len(e.nowq) {
			// FIFO entries carry t == now <= any heap entry's t; a heap
			// entry ties only at t == now, where seq decides.
			f := e.nowq[e.nowqAt]
			if len(e.events) == 0 || less(f, e.events[0]) {
				ev, fromFIFO = f, true
			} else {
				ev = e.events[0]
			}
		} else if len(e.events) > 0 {
			ev = e.events[0]
		} else {
			return nil
		}
		if e.limited && ev.t > e.limit {
			return nil
		}
		if fromFIFO {
			e.nowq[e.nowqAt] = nil
			e.nowqAt++
			if e.nowqAt == len(e.nowq) {
				e.nowq = e.nowq[:0]
				e.nowqAt = 0
			}
		} else {
			e.heapPop()
		}
		if ev.canceled {
			e.recycle(ev)
			continue
		}
		return ev
	}
}

// dispatch runs fn events inline until a proc event pops, and returns
// that event's process; nil when the calendar drains (up to the RunUntil
// limit) or Stop takes effect. Engine.run and parking processes both
// drive the calendar through it.
func (e *Engine) dispatch() *Proc {
	for !e.stopped {
		ev := e.next()
		if ev == nil {
			return nil
		}
		e.now = ev.t
		if ev.fn != nil {
			fn := ev.fn
			e.recycle(ev)
			fn()
			continue
		}
		q := ev.proc
		e.recycle(ev)
		return q
	}
	return nil
}

// At schedules fn to run in engine context at time t. Scheduling in the
// past panics: it would break causality.
//
//shrimp:hotpath
//shrimp:continuation
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	ev := e.alloc()
	ev.t = t
	ev.fn = fn
	e.push(ev)
}

// After schedules fn to run in engine context d nanoseconds from now.
//
//shrimp:hotpath
//shrimp:continuation
func (e *Engine) After(d Time, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	e.At(e.now+d, fn)
}

// Spawn creates a new simulation process that begins executing body at
// the current virtual time (after the caller yields). The name is used
// in diagnostics only.
func (e *Engine) Spawn(name string, body func(p *Proc)) *Proc {
	return e.SpawnAt(e.now, name, body)
}

// SpawnAt creates a new simulation process that begins executing at time t.
func (e *Engine) SpawnAt(t Time, name string, body func(p *Proc)) *Proc {
	p := &Proc{e: e, name: name, w: e.getWorker()}
	p.w.p, p.w.body = p, body
	e.live++
	e.all = append(e.all, p)
	ev := e.alloc()
	ev.t = t
	ev.proc = p
	e.push(ev)
	if e.tr != nil {
		e.tr.Record(int64(t), trace.KProcSpawn, -1, int64(e.live), 0)
	}
	return p
}

// Shutdown terminates every unfinished process (deadlocked waiters,
// processes never resumed) and the idle coroutine pool, so no coroutine
// outlives the engine. A parked process unwinds with killSignal, running
// its deferred calls. Call only after Run has returned or panicked; the
// engine is unusable afterwards.
func (e *Engine) Shutdown() {
	if e.running {
		panic("sim: Shutdown during Run")
	}
	for _, p := range e.all {
		if p.finished {
			continue
		}
		p.w.stop()
		p.w = nil
		p.finished = true
		e.live--
	}
	for _, w := range e.idle {
		w.stop()
	}
	e.idle = nil
	e.all = nil
	e.events = nil
	e.nowq = nil
	e.nowqAt = 0
	e.free = nil
}

// wake schedules p to resume at time t. p must be parked.
func (e *Engine) wake(p *Proc, t Time) {
	if t < e.now {
		panic(fmt.Sprintf("sim: waking %s at %v before now %v", p.name, t, e.now))
	}
	ev := e.alloc()
	ev.t = t
	ev.proc = p
	e.push(ev)
}

// run is the shared Run/RunUntil body and the only place that resumes
// a process coroutine. A resumed process returns control here when it
// finishes, when its own dispatch drains or stops the calendar, or when
// it pops another process's event, which it leaves in e.handoff to be
// resumed next. A panic in a process body or in a fn event it ran
// propagates out of next, and so out of Run.
func (e *Engine) run() {
	for q := e.dispatch(); q != nil; q = e.dispatch() {
		for q != nil {
			q.w.next()
			q, e.handoff = e.handoff, nil
		}
	}
}

// Run executes events until the calendar is empty or Stop is called.
// It returns the final virtual time. A Stop from a previous Run or
// RunUntil is cleared on entry, so a stopped engine can be resumed.
// If processes remain blocked on conditions when the calendar drains,
// Run returns anyway; callers can inspect Blocked to detect deadlock.
func (e *Engine) Run() Time {
	if e.running {
		panic("sim: Run called reentrantly")
	}
	e.running = true
	e.stopped = false
	e.limited = false
	defer func() { e.running = false }()
	e.run()
	return e.now
}

// RunUntil executes events with timestamps <= deadline and then stops,
// setting the clock to deadline if the simulation ran dry earlier. Like
// Run, it clears a leftover Stop on entry; if Stop is called while
// running, the clock is left where the last event put it.
func (e *Engine) RunUntil(deadline Time) Time {
	if e.running {
		panic("sim: RunUntil called reentrantly")
	}
	e.running = true
	e.stopped = false
	e.limit = deadline
	e.limited = true
	defer func() { e.running = false; e.limited = false }()
	e.run()
	if !e.stopped && e.now < deadline {
		e.now = deadline
	}
	return e.now
}

// Stop makes Run return after the current event completes. The engine is
// not dead: the next Run or RunUntil clears the stop and continues from
// the pending calendar.
func (e *Engine) Stop() { e.stopped = true }

// Timer is a cancelable scheduled callback. It is a small value type so
// that re-arming a timer in a hot path (the NIC's combining timeout does
// this once per snooped store) performs no heap allocation; the zero
// Timer is valid and Cancel on it is a no-op.
type Timer struct {
	ev  *event
	seq uint64
}

// NewTimer schedules fn to run after d; the returned Timer can cancel it.
//
//shrimp:hotpath
//shrimp:continuation
func (e *Engine) NewTimer(d Time, fn func()) Timer {
	ev := e.alloc()
	ev.t = e.now + d
	ev.fn = fn
	e.push(ev)
	return Timer{ev: ev, seq: ev.seq}
}

// Cancel prevents the timer from firing. Canceling an already-fired or
// already-canceled timer is a no-op. It reports whether the cancellation
// took effect. The callback is released immediately, so anything its
// closure captures does not stay live until the dead event is popped.
func (t *Timer) Cancel() bool {
	if t.ev == nil || t.ev.seq != t.seq || t.ev.canceled {
		return false
	}
	t.ev.canceled = true
	t.ev.fn = nil
	return true
}

// UnfinishedNames lists the names of processes that have not completed,
// for deadlock diagnostics.
func (e *Engine) UnfinishedNames() []string {
	var names []string
	for _, p := range e.all {
		if !p.finished {
			names = append(names, p.name)
		}
	}
	return names
}
