package ring

import "shrimp/internal/memory"

// Checkpoint support. A ring's dynamic state is the two stream
// positions, the sender's cached credit, the receiver's uncredited
// byte count, and the lazily allocated credit-staging scratch word:
// restoring scratch to its snapshot value (possibly zero) makes a
// rewound branch re-allocate it at the exact brk a cold run would.
// The endpoints, exports, and imports are wiring; their delivery
// counters are rewound by the vmmc layer.

// Snapshot captures one Ring's dynamic state.
type Snapshot struct {
	readPos    uint64
	uncredited int
	writePos   uint64
	credit     uint64
	scratch    memory.Addr
}

// SnapshotState captures the ring's positions and credit state.
func (r *Ring) SnapshotState() Snapshot {
	return Snapshot{
		readPos:    r.readPos,
		uncredited: r.uncredited,
		writePos:   r.writePos,
		credit:     r.credit,
		scratch:    r.scratch,
	}
}

// RestoreState rewinds the ring to the snapshot.
func (r *Ring) RestoreState(s Snapshot) {
	r.readPos = s.readPos
	r.uncredited = s.uncredited
	r.writePos = s.writePos
	r.credit = s.credit
	r.scratch = s.scratch
}
