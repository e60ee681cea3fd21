package sim

// Ctl is a step's verdict about what the sequencer should do next: a
// step index to continue at inline, or Wait to suspend until an armed
// continuation fires. Steps produce Ctl values through the Seq helpers
// (Next, Goto, Sleep, Acquire) rather than by hand.
type Ctl int

// Wait suspends the sequence: the step has armed a continuation — an
// async helper resuming at the next step (Seq.Sleep, Seq.Acquire on a
// busy resource), or an external restart such as a Queue.PopFn callback
// that calls Seq.Start.
const Wait Ctl = -1

// Seq drives a continuation-based state machine through a fixed list of
// steps, replacing a blocking process loop with inline fn events that
// the engine dispatches with zero process switches.
//
// Each step is a func() Ctl — typically a bound method on the owning
// device, built once at construction so the steady state allocates
// nothing. A step either completes synchronously and returns the next
// step to run inline (Next, Goto), or arms an asynchronous continuation
// and returns Wait. The async helpers pair the two: Sleep schedules a
// resume-at-next-step event after a delay; Acquire takes a Resource
// inline when free (continuing like a no-yield Resource.Acquire) and
// otherwise queues the sequencer's resume callback.
//
// Multi-phase handlers — acquire port, sleep through setup, acquire
// bus, sleep through DMA, release — therefore read as a linear list of
// steps instead of a hand-rolled callback pyramid, while scheduling
// each continuation at exactly the (t, seq) calendar position the
// equivalent blocking process would have occupied. The NIC's receive,
// deliberate-update and outgoing-FIFO engines are the canonical users
// (internal/nic).
type Seq struct {
	// step dispatches one step by index; n bounds the valid range. The
	// single-dispatch representation lets a device bind its whole step
	// table with ONE method value (Init) instead of one closure per
	// step — construction cost that showed up as +70 allocs per machine
	// build when each NIC engine carried a bound method per step.
	step func(pc int) Ctl
	n    int
	e    *Engine
	pc   int
	// resumeFn is the pre-built bound resume method handed to async
	// primitives, materialized once so arming a wait allocates nothing.
	resumeFn func()
}

// NewSeq builds a sequencer over steps, which run on engine e. The
// steps slice is captured, not copied.
//
//shrimp:continuation
func NewSeq(e *Engine, steps ...func() Ctl) *Seq {
	s := &Seq{e: e}
	s.Init(e, len(steps), func(pc int) Ctl { return steps[pc]() })
	return s
}

// Init readies a (typically embedded) sequencer in place: n steps, each
// dispatched through step — usually one bound method switching on the
// index. Initializing by dispatch function costs two allocations total
// (step and the resume continuation) regardless of step count.
//
//shrimp:continuation
func (s *Seq) Init(e *Engine, n int, step func(pc int) Ctl) {
	s.e = e
	s.n = n
	s.step = step
	s.resumeFn = s.resume
}

// Start runs the sequence beginning at step pc, continuing inline until
// a step returns Wait or control falls off the end of the step list.
//
//shrimp:hotpath
func (s *Seq) Start(pc int) { s.run(pc) }

// run is the inline dispatch loop: execute the step at pc, follow its
// verdict, stop on Wait or on any pc outside the step list.
//
//shrimp:hotpath
func (s *Seq) run(pc int) {
	for pc >= 0 && pc < s.n {
		s.pc = pc
		pc = int(s.step(pc))
	}
}

// resume continues the sequence at the step after the one that armed
// the wait. It is the continuation every async helper schedules.
//
//shrimp:hotpath
func (s *Seq) resume() { s.run(s.pc + 1) }

// ResumeFn exposes the pre-built resume continuation for arming custom
// waits (a Cond.WaitFn, a hand-scheduled event). When the continuation
// fires, the sequence continues at the step after the current one.
func (s *Seq) ResumeFn() func() { return s.resumeFn }

// Next continues inline at the following step.
//
//shrimp:hotpath
func (s *Seq) Next() Ctl { return Ctl(s.pc + 1) }

// Goto continues inline at step i.
//
//shrimp:hotpath
func (s *Seq) Goto(i int) Ctl { return Ctl(i) }

// Sleep suspends the sequence for d of virtual time, then continues at
// the next step — the continuation analogue of Proc.Sleep, scheduled at
// the same calendar position (a zero d still yields, exactly as a zero
// Proc.Sleep does).
//
//shrimp:hotpath
func (s *Seq) Sleep(d Time) Ctl {
	s.e.After(d, s.resumeFn)
	return Wait
}

// Acquire takes r like a blocking Resource.Acquire: inline without
// yielding when the resource is free (the sequence continues at the
// next step immediately), otherwise suspending in r's FIFO until
// ownership is transferred, then continuing at the next step. The
// sequence owns r when the next step runs and must eventually Release.
//
//shrimp:hotpath
func (s *Seq) Acquire(r *Resource) Ctl {
	if r.AcquireFn(s.resumeFn) {
		return Ctl(s.pc + 1)
	}
	return Wait
}
