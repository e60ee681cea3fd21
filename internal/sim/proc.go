package sim

// Proc is a simulation process: a body running on a pooled coroutine
// whose execution is interleaved with all other processes under control
// of the Engine, so that exactly one process runs at a time and virtual
// time only advances while every process is parked.
type Proc struct {
	e        *Engine
	name     string
	w        *worker // coroutine running the body; nil once finished
	finished bool
	ctx      any
}

// SetContext attaches an arbitrary client value to the process. The
// machine layer uses it to bind accounting contexts without a map lookup
// on every memory operation.
func (p *Proc) SetContext(v any) { p.ctx = v }

// Context returns the value set with SetContext, or nil.
func (p *Proc) Context() any { return p.ctx }

// Name reports the diagnostic name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine this process belongs to.
func (p *Proc) Engine() *Engine { return p.e }

// Now reports the current virtual time.
func (p *Proc) Now() Time { return p.e.now }

// park blocks until some event resumes this process. The caller must
// have arranged for a wakeup (a scheduled event or registration on a
// Cond) or the process deadlocks. Parking runs fn events inline in the
// parking coroutine (see Engine.dispatch) and returns with no switch at
// all when this process's own wakeup is the next event. Only when
// another process is due does it leave that process in the engine's
// handoff slot and yield to Engine.run, which resumes it.
func (p *Proc) park() {
	q := p.e.dispatch()
	if q == p {
		return
	}
	p.e.handoff = q
	p.suspend()
}

// Sleep advances this process's local time by d, yielding to the engine.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		panic("sim: negative sleep")
	}
	if d == 0 {
		// Even a zero sleep is a scheduling point: it lets same-time
		// events that were scheduled earlier run first.
		p.e.wake(p, p.e.now)
		p.park()
		return
	}
	p.e.wake(p, p.e.now+d)
	p.park()
}

// SleepUntil parks until virtual time t (no-op if t is in the past).
func (p *Proc) SleepUntil(t Time) {
	if t <= p.e.now {
		return
	}
	p.e.wake(p, t)
	p.park()
}

// Yield gives other same-time events a chance to run.
func (p *Proc) Yield() { p.Sleep(0) }

// block parks the process with no scheduled wake; the engine counts it
// as blocked until something wakes it.
func (p *Proc) block() {
	p.e.blocked++
	p.park()
	p.e.blocked--
}

// condWaiter is one entry in a Cond's FIFO: either a parked process or a
// registered continuation callback. Exactly one of p and fn is set.
type condWaiter struct {
	p *Proc
	//shrimp:continuation
	fn func()
}

// Cond is a simulation-time condition variable. Processes Wait on it;
// continuation state machines register callbacks with WaitFn; any code
// (engine context or another process) may Signal or Broadcast. Both
// waiter kinds share one FIFO, so wakeups occur in registration order at
// the signaling instant regardless of style: a woken process resumes via
// a proc event, a callback runs as an inline fn event, and the two land
// at the same (t, seq) calendar position either way.
type Cond struct {
	e       *Engine
	waiters []condWaiter
}

// NewCond returns a condition bound to engine e.
func NewCond(e *Engine) *Cond { return &Cond{e: e} }

// Wait parks the calling process until a Signal or Broadcast wakes it.
// As with sync.Cond, the surrounding predicate must be re-checked in a
// loop by the caller when multiple waiters compete.
func (c *Cond) Wait(p *Proc) {
	c.waiters = append(c.waiters, condWaiter{p: p})
	p.block()
}

// WaitFn registers fn to be scheduled (as a fn event at the signaling
// instant) by the next Signal or Broadcast that reaches it. The
// registration is one-shot: a persistent waiter re-registers from inside
// its callback, re-checking its predicate first exactly as a Wait loop
// would. Unlike parked processes, registered callbacks do not count as
// Blocked: an idle device engine waiting for work is not a deadlock.
//
//shrimp:hotpath
//shrimp:continuation
func (c *Cond) WaitFn(fn func()) {
	c.waiters = append(c.waiters, condWaiter{fn: fn})
}

// Waiters reports how many processes or callbacks are currently waiting.
func (c *Cond) Waiters() int { return len(c.waiters) }

// Signal wakes the longest-waiting process or callback, if any.
//
//shrimp:hotpath
func (c *Cond) Signal() {
	if len(c.waiters) == 0 {
		return
	}
	w := c.waiters[0]
	copy(c.waiters, c.waiters[1:])
	c.waiters[len(c.waiters)-1] = condWaiter{}
	c.waiters = c.waiters[:len(c.waiters)-1]
	if w.fn != nil {
		c.e.At(c.e.now, w.fn)
		return
	}
	c.e.wake(w.p, c.e.now)
}

// Broadcast wakes every waiting process and callback.
//
//shrimp:hotpath
func (c *Cond) Broadcast() {
	for i, w := range c.waiters {
		if w.fn != nil {
			c.e.At(c.e.now, w.fn)
		} else {
			c.e.wake(w.p, c.e.now)
		}
		c.waiters[i] = condWaiter{}
	}
	c.waiters = c.waiters[:0]
}

// resWaiter is one entry in a Resource's FIFO queue: a parked process or
// an acquisition callback. Exactly one of p and fn is set.
type resWaiter struct {
	p *Proc
	//shrimp:continuation
	fn func()
}

// Resource is a non-preemptive, FIFO-queued exclusive resource: the model
// used for the memory bus (which cannot cycle-share between the CPU and
// the network interface). Blocking (Acquire) and continuation-style
// (AcquireFn) clients share one wait queue, so grant order is arrival
// order regardless of style.
type Resource struct {
	e     *Engine
	held  bool
	queue []resWaiter
}

// NewResource returns an idle resource bound to engine e.
func NewResource(e *Engine) *Resource { return &Resource{e: e} }

// Acquire blocks p until the resource is free, then takes it.
func (r *Resource) Acquire(p *Proc) {
	if !r.held && len(r.queue) == 0 {
		r.held = true
		return
	}
	r.queue = append(r.queue, resWaiter{p: p})
	// Ownership is transferred directly by Release, so on wake the
	// resource is already held on this process's behalf.
	p.block()
}

// AcquireFn takes the resource immediately if it is free, reporting
// true — mirroring Acquire's no-yield fast path. Otherwise it queues fn
// to be run (as a fn event at the release instant) once ownership is
// transferred to it, and reports false. Either way the caller owns the
// resource when its continuation executes and must eventually Release.
//
//shrimp:hotpath
//shrimp:continuation
func (r *Resource) AcquireFn(fn func()) bool {
	if !r.held && len(r.queue) == 0 {
		r.held = true
		return true
	}
	r.queue = append(r.queue, resWaiter{fn: fn})
	return false
}

// TryAcquire takes the resource if it is free, reporting success.
func (r *Resource) TryAcquire() bool {
	if r.held || len(r.queue) > 0 {
		return false
	}
	r.held = true
	return true
}

// Release frees the resource or, if processes or callbacks are waiting,
// transfers ownership directly to the longest waiter (so no third party
// can steal the resource between release and wakeup).
//
//shrimp:hotpath
func (r *Resource) Release() {
	if !r.held {
		panic("sim: Release of unheld resource")
	}
	if len(r.queue) == 0 {
		r.held = false
		return
	}
	w := r.queue[0]
	copy(r.queue, r.queue[1:])
	r.queue[len(r.queue)-1] = resWaiter{}
	r.queue = r.queue[:len(r.queue)-1]
	if w.fn != nil {
		r.e.At(r.e.now, w.fn)
		return
	}
	r.e.wake(w.p, r.e.now)
}

// Use acquires the resource, holds it for d, and releases it.
func (r *Resource) Use(p *Proc, d Time) {
	r.Acquire(p)
	p.Sleep(d)
	r.Release()
}

// Busy reports whether the resource is currently held.
func (r *Resource) Busy() bool { return r.held }

// QueueLen reports the number of processes waiting for the resource.
func (r *Resource) QueueLen() int { return len(r.queue) }
