package mesh

import "shrimp/internal/sim"

// Checkpoint support. At a quiescent instant no packet is in flight
// (the NIC queues and the engine calendar are empty), so the network's
// dynamic state is the per-link occupancy horizon plus the aggregate
// counters. Everything else — sinks, the route cache, the packet
// freelist, the tracer — is wiring: identical closures and caches serve
// every branch, and restoring the horizons makes contention on the
// rewound timeline identical to a cold run's.

// linkState is the snapshot copy of one directed link.
type linkState struct {
	freeAt sim.Time
	busy   sim.Time
}

// NetworkSnapshot captures a Network's dynamic state.
type NetworkSnapshot struct {
	links []linkState
	stats Stats
}

// Snapshot captures the per-link occupancy horizons and counters.
func (n *Network) Snapshot() NetworkSnapshot {
	s := NetworkSnapshot{links: make([]linkState, len(n.links)), stats: n.stats}
	for i := range n.links {
		s.links[i] = linkState{freeAt: n.links[i].freeAt, busy: n.links[i].busy}
	}
	return s
}

// Restore rewinds the links and counters to the snapshot. Without this
// a rewound branch would see link horizons from a discarded future and
// serialize packets that a cold run would overlap.
func (n *Network) Restore(s NetworkSnapshot) {
	for i := range n.links {
		n.links[i].freeAt = s.links[i].freeAt
		n.links[i].busy = s.links[i].busy
	}
	n.stats = s.stats
}
