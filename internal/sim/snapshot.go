package sim

import "fmt"

// Checkpoint support. The engine's entire dynamic state at a quiescent
// instant is two counters: the clock and the monotonic event sequence
// number. Quiescent means the calendar is fully drained (empty heap,
// empty same-instant FIFO), no process is live or blocked, and no Run
// is in progress — exactly the state between two RunParallel phases.
// Everything else in the Engine is wiring (the idle coroutine pool, the
// event freelist, the tracer) or dead bookkeeping (finished processes), and
// restoring (now, seq) makes every subsequent Spawn/At/After reproduce
// the identical (t, seq) calendar a cold run would build.

// EngineSnapshot captures the engine's deterministic counters.
type EngineSnapshot struct {
	now   Time
	seq   uint64
	procs int
}

// Quiescent reports nil when the engine is at a checkpointable
// instant, or an error naming the first violated condition.
func (e *Engine) Quiescent() error {
	switch {
	case e.running:
		return fmt.Errorf("sim: engine is running")
	case len(e.events) > 0:
		return fmt.Errorf("sim: %d future events pending", len(e.events))
	case e.nowqAt < len(e.nowq):
		return fmt.Errorf("sim: %d same-instant events pending", len(e.nowq)-e.nowqAt)
	case e.live != 0:
		return fmt.Errorf("sim: %d live processes: %v", e.live, e.UnfinishedNames())
	case e.blocked != 0:
		return fmt.Errorf("sim: %d blocked processes", e.blocked)
	case e.handoff != nil:
		return fmt.Errorf("sim: process %s awaiting handoff", e.handoff.name)
	}
	return nil
}

// Snapshot captures the engine at a quiescent instant.
func (e *Engine) Snapshot() (EngineSnapshot, error) {
	if err := e.Quiescent(); err != nil {
		return EngineSnapshot{}, err
	}
	return EngineSnapshot{now: e.now, seq: e.seq, procs: len(e.all)}, nil
}

// Restore rewinds the clock and sequence counter to the snapshot and
// drops bookkeeping for processes spawned after it (all finished — the
// engine must be quiescent here too, which the checkpoint orchestrator
// verifies before any layer restores).
func (e *Engine) Restore(s EngineSnapshot) {
	e.now = s.now
	e.seq = s.seq
	for i := s.procs; i < len(e.all); i++ {
		e.all[i] = nil
	}
	e.all = e.all[:s.procs]
	e.nowq = e.nowq[:0]
	e.nowqAt = 0
	e.stopped = false
}
