package nic

import "fmt"

// Checkpoint support. At a quiescent instant the NIC's engines are all
// parked in their PopFn/AcquireFn waits with nothing queued, so the
// dynamic state reduces to the mapping tables (outgoing and incoming,
// both mutated by the app during the body), the table generation
// counter, the knob block, and two counters. Everything else — the
// three engines, the continuation closures, the freelists, the tracer —
// is wiring that serves every branch unchanged: at quiescence each
// engine is parked on its input queue with no wait pending, exactly as
// a cold run's engines sit between phases.

// NICSnapshot captures one NIC's dynamic state.
type NICSnapshot struct {
	cfg      Config
	opt      []OPTEntry
	ipt      []IPTEntry
	optGen   uint64
	fifoHigh int
	dropped  int64
}

// Quiescent reports nil when the NIC is checkpointable, or an error
// naming the first engine or queue still holding work.
func (n *NIC) Quiescent() error {
	switch {
	case n.rxQueue.Len() != 0:
		return fmt.Errorf("nic %d: %d packets queued for receive", n.id, n.rxQueue.Len())
	case n.rxCur != nil:
		return fmt.Errorf("nic %d: receive engine mid-packet", n.id)
	case n.duQueue.Len() != 0:
		return fmt.Errorf("nic %d: %d deliberate-update requests queued", n.id, n.duQueue.Len())
	case n.duSlots != 0:
		return fmt.Errorf("nic %d: %d deliberate-update slots in flight", n.id, n.duSlots)
	case n.duCond.Waiters() != 0:
		return fmt.Errorf("nic %d: procs waiting on DU slots", n.id)
	case n.duReq != nil || n.duPkt != nil:
		return fmt.Errorf("nic %d: DU engine mid-request", n.id)
	case n.fifo.Len() != 0:
		return fmt.Errorf("nic %d: %d packets in outgoing FIFO", n.id, n.fifo.Len())
	case n.fifoBytes != 0:
		return fmt.Errorf("nic %d: %d bytes in outgoing FIFO", n.id, n.fifoBytes)
	case n.stalled:
		return fmt.Errorf("nic %d: outgoing FIFO stalled", n.id)
	case n.fifoCond.Waiters() != 0:
		return fmt.Errorf("nic %d: procs waiting on FIFO space", n.id)
	case n.outAU != 0:
		return fmt.Errorf("nic %d: %d automatic updates in flight", n.id, n.outAU)
	case n.fenceCond.Waiters() != 0:
		return fmt.Errorf("nic %d: procs waiting on AU fence", n.id)
	case n.combine.active:
		return fmt.Errorf("nic %d: combine buffer holds a pending update", n.id)
	case n.outPkt != nil:
		return fmt.Errorf("nic %d: outgoing engine mid-packet", n.id)
	case n.nicPort.Busy():
		return fmt.Errorf("nic %d: NIC memory port held", n.id)
	}
	return nil
}

// Snapshot captures the NIC's tables, knobs, and counters. The mapping
// tables are deep-copied: Map/Unmap/SetIncoming mutate entries in
// place during the body.
func (n *NIC) Snapshot() NICSnapshot {
	s := NICSnapshot{
		cfg:      n.cfg,
		opt:      make([]OPTEntry, len(n.opt)),
		ipt:      make([]IPTEntry, len(n.ipt)),
		optGen:   n.optGen,
		fifoHigh: n.fifoHigh,
		dropped:  n.dropped,
	}
	copy(s.opt, n.opt)
	copy(s.ipt, n.ipt)
	return s
}

// Restore rewinds the tables, knobs, and counters. Restoring cfg also
// rolls back any live knob mutation a previous branch applied.
func (n *NIC) Restore(s NICSnapshot) {
	n.cfg = s.cfg
	n.opt = n.opt[:0]
	n.opt = append(n.opt, s.opt...)
	n.ipt = n.ipt[:0]
	n.ipt = append(n.ipt, s.ipt...)
	n.optGen = s.optGen
	n.fifoHigh = s.fifoHigh
	n.dropped = s.dropped
	// The combine buffer is dead state at quiescence (flushCombine
	// cleared active and the timer); scrub the stale fields but keep the
	// buffer's capacity for the next branch.
	n.combine = combineState{buf: n.combine.buf[:0]}
}

// SetConfig replaces the NIC's knob block. The harness uses this to
// apply per-cell knobs after a shared warmup: every knob in Config is
// read at use time by the engines, so swapping the block at quiescence
// is equivalent to having built the NIC with it — for any knob that
// does not affect the warmup itself, which is exactly the set the
// prefix key holds fixed.
func (n *NIC) SetConfig(cfg Config) { n.cfg = cfg }
