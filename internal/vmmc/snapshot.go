package vmmc

import (
	"fmt"

	"shrimp/internal/sim"
)

// Checkpoint support. At a quiescent instant no packet is in flight and
// no process is parked in a WaitUpdate, so an endpoint's dynamic state
// is its export registry (the dense page table plus the id counter),
// the delivery counters, and the notification-blocking flag. The
// per-export state rides along: delivery count and the installed
// notification handler (apps may install or clear handlers during the
// body, and a rewound branch must see the handler set the warmup left).

// exportState is the snapshot copy of one Export's mutable fields.
type exportState struct {
	ex         *Export
	deliveries int64
	notify     func(p *sim.Proc, ex *Export, off int)
}

// EndpointSnapshot captures one endpoint's dynamic state.
type EndpointSnapshot struct {
	pageToExport  []*Export
	nextExport    int
	deliveries    int64
	notifyBlocked bool
	exports       []exportState
}

// SystemSnapshot captures every endpoint of a VMMC system.
type SystemSnapshot struct {
	eps []EndpointSnapshot
}

// Quiescent reports nil when no endpoint has a parked waiter or a
// queued notification.
func (s *System) Quiescent() error {
	for _, ep := range s.EPs {
		if err := ep.quiescent(); err != nil {
			return err
		}
	}
	return nil
}

func (ep *Endpoint) quiescent() error {
	switch {
	case ep.recvCond.Waiters() != 0:
		return fmt.Errorf("vmmc: node %d: procs parked in WaitAnyUpdate", ep.Node.ID)
	case len(ep.notifyQueue) != 0:
		return fmt.Errorf("vmmc: node %d: %d notifications queued", ep.Node.ID, len(ep.notifyQueue))
	}
	for _, ex := range ep.exports() {
		if ex.recvCond.Waiters() != 0 {
			return fmt.Errorf("vmmc: node %d: procs parked in WaitUpdate on export %d",
				ep.Node.ID, ex.id)
		}
	}
	return nil
}

// exports enumerates the endpoint's exports by walking the dense page
// table: each export covers a contiguous page run, so deduping against
// the previous entry yields each export once, in id order.
func (ep *Endpoint) exports() []*Export {
	var out []*Export
	var prev *Export
	for _, ex := range ep.pageToExport {
		if ex != nil && ex != prev {
			out = append(out, ex)
		}
		prev = ex
	}
	return out
}

// Snapshot captures every endpoint.
func (s *System) Snapshot() SystemSnapshot {
	snap := SystemSnapshot{eps: make([]EndpointSnapshot, len(s.EPs))}
	for i, ep := range s.EPs {
		es := EndpointSnapshot{
			pageToExport:  make([]*Export, len(ep.pageToExport)),
			nextExport:    ep.nextExport,
			deliveries:    ep.deliveries,
			notifyBlocked: ep.notifyBlocked,
		}
		copy(es.pageToExport, ep.pageToExport)
		for _, ex := range ep.exports() {
			es.exports = append(es.exports, exportState{
				ex: ex, deliveries: ex.deliveries, notify: ex.notify,
			})
		}
		snap.eps[i] = es
	}
	return snap
}

// Restore rewinds every endpoint: exports created after the snapshot
// drop out of the page table (their IPT entries are rolled back by the
// NIC layer), and surviving exports get their counters and handlers
// back.
func (s *System) Restore(snap SystemSnapshot) {
	for i, ep := range s.EPs {
		es := &snap.eps[i]
		ep.pageToExport = ep.pageToExport[:0]
		ep.pageToExport = append(ep.pageToExport, es.pageToExport...)
		ep.nextExport = es.nextExport
		ep.deliveries = es.deliveries
		ep.notifyBlocked = es.notifyBlocked
		ep.notifyQueue = nil
		for _, st := range es.exports {
			st.ex.deliveries = st.deliveries
			st.ex.notify = st.notify
		}
	}
}
