package machine

import (
	"shrimp/internal/sim"
	"shrimp/internal/stats"
)

// CPU accumulates virtual time owed by one logical thread of execution
// on a node and flushes it to the simulation clock lazily, at
// interaction points. This keeps the event count manageable:
// computation between communication events costs a single event no
// matter how many operations it models.
//
// Each node has one application CPU context (Node.CPU) and any number
// of handler contexts (interrupt and notification handlers). Handler
// contexts "shadow" the application context: time a handler executes is
// stolen from the application, modeling preemption on a uniprocessor
// node. Stolen time is charged at the application's next flush unless
// it is blocked in a wait primitive, in which case the handler's
// execution overlaps the wait.
type CPU struct {
	node    *Node       //shrimp:nostate wiring: back-pointer to the owning node
	acct    *stats.Node //shrimp:nostate wiring: breakdown sink identity (application account, or a discard for handlers)
	shadow  *CPU        //shrimp:nostate wiring: application context to steal from (handlers only), fixed at construction
	accum   [stats.NumCategories]sim.Time
	pending sim.Time // sum of accum
	stolen  sim.Time
	waiting bool //shrimp:nostate asserted: Quiescent requires no CPU context marked waiting
	// maxAccum bounds how much unflushed time may accumulate before an
	// automatic-update store forces a flush, so AU packet timestamps
	// stay close to their true instants.
	maxAccum sim.Time //shrimp:nostate wiring: fixed flush-threshold knob
}

// newHandlerCPU returns an accounting context for a handler running on
// nd. Its time displaces the application but its breakdown is discarded
// (the displacement already appears as application overhead).
func (nd *Node) newHandlerCPU() *CPU {
	return &CPU{node: nd, acct: &stats.Node{}, shadow: nd.CPU, maxAccum: nd.CPU.maxAccum}
}

// Charge accrues d of useful computation.
func (c *CPU) Charge(d sim.Time) { c.ChargeTo(stats.Compute, d) }

// ChargeOverhead accrues d of protocol/kernel overhead.
func (c *CPU) ChargeOverhead(d sim.Time) { c.ChargeTo(stats.Overhead, d) }

// ChargeTo accrues d against an explicit breakdown category.
func (c *CPU) ChargeTo(cat stats.Category, d sim.Time) {
	if d < 0 {
		panic("machine: negative charge")
	}
	c.accum[cat] += d
	c.pending += d
}

// Pending reports unflushed accumulated time (including stolen time).
func (c *CPU) Pending() sim.Time { return c.pending + c.stolen }

// Flush advances the simulation clock by all accumulated and stolen
// time, crediting the breakdown. Every primitive that interacts with
// the NIC or another process must flush first.
func (c *CPU) Flush(p *sim.Proc) {
	d := c.pending + c.stolen
	if d == 0 {
		return
	}
	for i := range c.accum {
		c.acct.Breakdown[i] += c.accum[i]
		c.accum[i] = 0
	}
	c.acct.Breakdown[stats.Overhead] += c.stolen
	c.pending = 0
	c.stolen = 0
	if c.shadow != nil {
		// Handler execution displaces the application.
		c.shadow.Steal(d)
	}
	p.Sleep(d)
}

// Steal charges d of handler execution against this context. If it is
// computing, it pays at its next flush; if it is blocked waiting, the
// handler overlaps the wait and the time is only visible through the
// handler's own latency.
func (c *CPU) Steal(d sim.Time) {
	if c.waiting {
		return
	}
	c.stolen += d
}

// BeginWait flushes pending time and marks this context as blocked in a
// wait primitive. It returns the wait start time; pass it to EndWait.
func (c *CPU) BeginWait(p *sim.Proc) sim.Time {
	c.Flush(p)
	c.waiting = true
	return p.Now()
}

// EndWait ends a wait begun with BeginWait, charging the blocked
// interval to cat.
func (c *CPU) EndWait(p *sim.Proc, cat stats.Category, since sim.Time) {
	c.waiting = false
	c.acct.Breakdown[cat] += p.Now() - since
}
