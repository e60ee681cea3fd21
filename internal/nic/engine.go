package nic

import "shrimp/internal/sim"

// engine sequences one of the NIC's hardware pipelines — incoming DMA,
// deliberate-update DMA, outgoing-FIFO drain — as a chain of stages
// that run as fn events, never as a process. A stage is a plain
// func(*NIC). A stage that continues at the same instant calls the
// next stage directly; a stage that waits hands its successor to sleep
// or acquire, which park it here and run it from one pre-bound
// continuation, so arming a wait allocates nothing. Each resume lands
// at exactly the (t, seq) calendar position the equivalent blocking
// process wakeup would occupy.
type engine struct {
	n *NIC
	// next is the stage the pending wait resumes at.
	next func(*NIC)
	// resume is the bound fire method, built once by init.
	//shrimp:continuation
	resume func()
}

// init binds the engine to its NIC; the resume method value is its one
// allocation.
func (g *engine) init(n *NIC) {
	g.n = n
	g.resume = g.fire
}

//shrimp:hotpath
func (g *engine) fire() { g.next(g.n) }

// sleep runs next after d of virtual time, scheduled exactly like
// Proc.Sleep: a zero d still yields to earlier same-instant events.
//
//shrimp:continuation
//shrimp:hotpath
func (g *engine) sleep(d sim.Time, next func(*NIC)) {
	g.next = next
	g.n.e.After(d, g.resume)
}

// acquire takes r like a blocking Resource.Acquire: next runs inline
// when r is free, otherwise when r's FIFO grants it. next runs holding
// r and must eventually Release it.
//
//shrimp:continuation
//shrimp:hotpath
func (g *engine) acquire(r *sim.Resource, next func(*NIC)) {
	g.next = next
	if r.AcquireFn(g.resume) {
		next(g.n)
	}
}
