// Package vmmc implements Virtual Memory-Mapped Communication, the
// SHRIMP system's communication model (§2.2): processes export receive
// buffers, other processes import them as proxy buffers, and data moves
// either by deliberate update (explicit user-level DMA transfers) or by
// automatic update (stores to bound pages propagate as a side effect).
// Exporters may attach user-level notifications to message arrival.
//
// This is the paper's primary contribution, realized as a library over
// the simulated machine. All higher-level APIs in this repository (NX
// message passing, stream sockets, shared virtual memory) are built on
// it, mirroring the software stack of the real system.
package vmmc

import (
	"fmt"

	"shrimp/internal/machine"
	"shrimp/internal/memory"
	"shrimp/internal/nic"
	"shrimp/internal/sim"
	"shrimp/internal/stats"
	"shrimp/internal/trace"
)

// System holds one Endpoint per node and wires delivery and
// notification dispatch into the machine.
type System struct {
	M   *machine.Machine //shrimp:nostate wiring: machine identity; its state rewinds via the machine layer
	EPs []*Endpoint
}

// NewSystem creates the VMMC layer over machine m.
func NewSystem(m *machine.Machine) *System {
	s := &System{M: m}
	for _, nd := range m.Nodes {
		ep := &Endpoint{
			Node:        nd,
			sys:         s,
			recvCond:    sim.NewCond(m.E),
			notifyQName: fmt.Sprintf("notify-q@%d", nd.ID),
			tr:          m.E.Tracer(),
		}
		nd.NIC.OnDeliver = ep.onDeliver
		nd.SetNotifyDispatch(ep.dispatchNotify)
		s.EPs = append(s.EPs, ep)
	}
	return s
}

// EP returns the endpoint of node i.
func (s *System) EP(i int) *Endpoint { return s.EPs[i] }

// Endpoint is the per-node VMMC library instance.
type Endpoint struct {
	Node *machine.Node //shrimp:nostate wiring: node identity, fixed at construction
	sys  *System       //shrimp:nostate wiring: back-pointer to the owning system

	// pageToExport maps a local vpn to the export covering it. It is a
	// dense slice rather than a map because onDeliver consults it once
	// per arriving packet: address spaces are small and contiguous, so
	// the index replaces a map hash on the delivery hot path.
	pageToExport []*Export
	nextExport   int

	deliveries int64
	recvCond   *sim.Cond //shrimp:nostate asserted: Quiescent requires no parked WaitAnyUpdate waiters

	// Notification blocking (§2.2): while blocked, notifications queue.
	notifyBlocked bool
	notifyQueue   []*nic.Packet //shrimp:nostate asserted: Quiescent requires no queued notifications; Restore re-empties it
	notifyQName   string        //shrimp:nostate wiring: diagnostic name of queued-notification handlers, fixed per node

	// tr is the attached trace recorder (nil when tracing is off).
	tr *trace.Recorder //shrimp:nostate wiring: tracer identity is per-run configuration
}

// Deliveries reports packets delivered to any export on this endpoint.
func (ep *Endpoint) Deliveries() int64 { return ep.deliveries }

// WaitAnyUpdate blocks until the endpoint-wide delivery count exceeds
// already, charging the blocked interval as communication wait. It is
// the multi-buffer analogue of Export.WaitUpdate, used by libraries
// that poll several receive buffers (e.g. NX message reception from
// every peer).
func (ep *Endpoint) WaitAnyUpdate(p *sim.Proc, already int64) int64 {
	cpu := ep.Node.CPUFor(p)
	cpu.Charge(ep.Node.M.Cfg.Cost.LoadCost)
	if ep.deliveries > already {
		return ep.deliveries
	}
	since := cpu.BeginWait(p)
	for ep.deliveries <= already {
		ep.recvCond.Wait(p)
	}
	cpu.EndWait(p, stats.Comm, since)
	return ep.deliveries
}

// Export is an exported receive buffer: a run of pinned, contiguous
// virtual pages that remote importers can deliver into.
type Export struct {
	ep         *Endpoint   //shrimp:nostate wiring: back-pointer to the owning endpoint
	id         int         //shrimp:nostate wiring: fixed export identity
	Base       memory.Addr //shrimp:nostate wiring: pinned buffer placement, fixed at export time
	PageCnt    int         //shrimp:nostate wiring: pinned buffer extent, fixed at export time
	Size       int         //shrimp:nostate wiring: pinned buffer extent, fixed at export time
	recvCond   *sim.Cond   //shrimp:nostate asserted: Quiescent requires no parked WaitUpdate waiters
	deliveries int64

	notify func(p *sim.Proc, ex *Export, off int)
}

// Import is a proxy receive buffer: the local representation of a
// remote export, through which deliberate updates are sent and to which
// automatic-update bindings may be made.
type Import struct {
	ep      *Endpoint
	exp     *Export
	Proxy   memory.Addr
	PageCnt int
	Size    int
}

// Export pins npages of fresh memory as a receive buffer and registers
// it with the incoming page table. The returned Export stands in for
// the (buffer, permission) tuple a real name service would hand out.
func (ep *Endpoint) Export(p *sim.Proc, npages int) *Export {
	base := ep.Node.Mem.Alloc(npages)
	ex := &Export{
		ep:       ep,
		id:       ep.nextExport,
		Base:     base,
		PageCnt:  npages,
		Size:     npages * memory.PageSize,
		recvCond: sim.NewCond(ep.Node.M.E),
	}
	ep.nextExport++
	for len(ep.pageToExport) <= base.VPN()+npages-1 {
		ep.pageToExport = append(ep.pageToExport, nil)
	}
	for i := 0; i < npages; i++ {
		vpn := base.VPN() + i
		ep.Node.NIC.SetIncoming(vpn, false)
		ep.pageToExport[vpn] = ex
	}
	// Export is a kernel operation: page pinning and IPT setup.
	ep.Node.CPUFor(p).ChargeOverhead(ep.Node.M.Cfg.Cost.SyscallCost)
	if p != nil {
		ep.Node.CPUFor(p).Flush(p)
	}
	return ex
}

// SetNotify installs a user-level notification handler and enables the
// interrupt bits in the export's IPT entries. A nil handler disables
// notifications again.
func (ex *Export) SetNotify(fn func(p *sim.Proc, ex *Export, off int)) {
	ex.notify = fn
	enable := fn != nil
	for i := 0; i < ex.PageCnt; i++ {
		ex.ep.Node.NIC.SetIncomingInterrupt(ex.Base.VPN()+i, enable)
	}
}

// Node returns the node the export lives on.
func (ex *Export) Node() *machine.Node { return ex.ep.Node }

// Deliveries reports how many packets have been delivered to ex.
func (ex *Export) Deliveries() int64 { return ex.deliveries }

// WaitUpdate blocks until at least one packet beyond already has been
// delivered to the export, charging the blocked interval as
// communication wait. It returns the new delivery count. Receivers use
// it as an efficient stand-in for polling a flag word.
func (ex *Export) WaitUpdate(p *sim.Proc, already int64) int64 {
	cpu := ex.ep.Node.CPUFor(p)
	cpu.Charge(ex.ep.Node.M.Cfg.Cost.LoadCost) // the poll itself
	if ex.deliveries > already {
		return ex.deliveries
	}
	since := cpu.BeginWait(p)
	for ex.deliveries <= already {
		ex.recvCond.Wait(p)
	}
	cpu.EndWait(p, stats.Comm, since)
	return ex.deliveries
}

// Import maps a remote export into this endpoint as a proxy buffer:
// one OPT entry per page, pointing at the remote physical pages.
func (ep *Endpoint) Import(p *sim.Proc, exp *Export) *Import {
	if exp.ep == ep {
		panic("vmmc: importing a local export")
	}
	proxy := ep.Node.Mem.Alloc(exp.PageCnt)
	for i := 0; i < exp.PageCnt; i++ {
		ep.Node.NIC.MapOutgoing(proxy.VPN()+i, exp.ep.Node.ID, exp.Base.VPN()+i,
			false, false, false)
	}
	ep.Node.CPUFor(p).ChargeOverhead(ep.Node.M.Cfg.Cost.SyscallCost)
	if p != nil {
		ep.Node.CPUFor(p).Flush(p)
	}
	return &Import{
		ep:      ep,
		exp:     exp,
		Proxy:   proxy,
		PageCnt: exp.PageCnt,
		Size:    exp.Size,
	}
}

// SendOpts control a deliberate-update transfer.
type SendOpts struct {
	// Notify requests a receiver notification for this message (sets
	// the interrupt-request bit on its final packet).
	Notify bool
	// Internal marks library bookkeeping traffic (stream position
	// words, credit updates) that is not a user-level message: it is
	// not counted in message statistics, does not trigger the
	// per-message-interrupt what-if, and does not pay the
	// syscall-per-send what-if (a kernel-mediated design traps once
	// per user message).
	Internal bool
}

// Send performs a deliberate-update transfer of size bytes from local
// address src into the remote receive buffer at offset off. Transfers
// are split at page boundaries on both sides (§4.5.3); each piece is a
// separate user-level DMA initiation. The final piece carries the
// end-of-message mark. Send returns once the last piece is accepted by
// the NIC (sends are asynchronous).
func (imp *Import) Send(p *sim.Proc, src memory.Addr, off, size int, opts SendOpts) {
	if off < 0 || size <= 0 || off+size > imp.Size {
		panic(fmt.Sprintf("vmmc: send of %d bytes at offset %d exceeds buffer of %d",
			size, off, imp.Size))
	}
	nd := imp.ep.Node
	cost := nd.M.Cfg.Cost
	if tr := imp.ep.tr; tr != nil && !opts.Internal {
		tr.Record(int64(nd.M.E.Now()), trace.KMsgSend, int32(nd.ID),
			int64(imp.exp.ep.Node.ID), int64(size))
	}
	if nd.M.Cfg.SyscallPerSend && !opts.Internal {
		// §4.3 what-if: a kernel-mediated send path traps once per
		// message.
		nd.CPUFor(p).ChargeOverhead(cost.SyscallCost)
		nd.Acct.Counters.Syscalls++
		if tr := imp.ep.tr; tr != nil {
			tr.Record(int64(nd.M.E.Now()), trace.KSyscall, int32(nd.ID), int64(size), 0)
		}
	}
	for size > 0 {
		chunk := size
		if max := memory.PageSize - src.Offset(); chunk > max {
			chunk = max
		}
		dst := imp.Proxy + memory.Addr(off)
		if max := memory.PageSize - dst.Offset(); chunk > max {
			chunk = max
		}
		last := chunk == size
		nd.CPUFor(p).ChargeTo(stats.Comm, cost.SendOverheadDU)
		nd.CPUFor(p).Flush(p)
		nd.NIC.SendDU(p, src, dst, chunk, opts.Notify && last, last && !opts.Internal)
		src += memory.Addr(chunk)
		off += chunk
		size -= chunk
	}
}

// BindAU binds npages of local, page-aligned memory for automatic
// update into the remote buffer starting at page pageOff. Subsequent
// stores to the bound pages propagate to the remote pages as a side
// effect. Combine enables AU combining for these pages; notify attaches
// the sender-side interrupt-request bit to every AU packet.
func (imp *Import) BindAU(p *sim.Proc, local memory.Addr, pageOff, npages int, combine, notify bool) {
	if local.Offset() != 0 {
		panic("vmmc: AU binding must be page aligned")
	}
	if pageOff < 0 || pageOff+npages > imp.PageCnt {
		panic("vmmc: AU binding outside buffer")
	}
	nd := imp.ep.Node
	for i := 0; i < npages; i++ {
		nd.NIC.MapOutgoing(local.VPN()+i, imp.exp.ep.Node.ID,
			imp.exp.Base.VPN()+pageOff+i, true, combine, notify)
	}
	nd.CPUFor(p).ChargeOverhead(nd.M.Cfg.Cost.SyscallCost)
	if p != nil {
		nd.CPUFor(p).Flush(p)
	}
}

// UnbindAU removes automatic-update bindings installed by BindAU.
func (imp *Import) UnbindAU(local memory.Addr, npages int) {
	for i := 0; i < npages; i++ {
		imp.ep.Node.NIC.UnmapOutgoing(local.VPN() + i)
	}
}

// Export returns the remote export this import points at.
func (imp *Import) Export() *Export { return imp.exp }

// FenceAU blocks until all of this endpoint's automatic updates have
// been injected into the network, establishing AU-before-DU ordering
// toward any single destination (§4.2's ordering caveat).
func (ep *Endpoint) FenceAU(p *sim.Proc) {
	ep.Node.CPUFor(p).Flush(p)
	since := ep.Node.CPUFor(p).BeginWait(p)
	ep.Node.NIC.FenceAU(p)
	ep.Node.CPUFor(p).EndWait(p, stats.Comm, since)
}

// WaitSendsDone blocks until the NIC's deliberate-update engine has
// accepted and completed all queued transfers from this endpoint.
func (ep *Endpoint) WaitSendsDone(p *sim.Proc) {
	ep.Node.CPUFor(p).Flush(p)
	since := ep.Node.CPUFor(p).BeginWait(p)
	ep.Node.NIC.WaitDUIdle(p)
	ep.Node.CPUFor(p).EndWait(p, stats.Comm, since)
}

// BlockNotifications suspends user-level notification delivery;
// arriving notifications queue (§2.2).
func (ep *Endpoint) BlockNotifications() { ep.notifyBlocked = true }

// UnblockNotifications resumes delivery, dispatching queued
// notifications in arrival order.
func (ep *Endpoint) UnblockNotifications() {
	ep.notifyBlocked = false
	queued := ep.notifyQueue
	ep.notifyQueue = nil
	for _, pkt := range queued {
		pkt := pkt
		ep.Node.SpawnHandler(ep.notifyQName, func(p *sim.Proc, c *machine.CPU) {
			c.ChargeOverhead(ep.Node.M.Cfg.Cost.NotifyDispatchCost)
			c.Flush(p)
			ep.deliverNotify(p, pkt)
		})
	}
}

// exportFor resolves the export covering a local vpn, or nil.
func (ep *Endpoint) exportFor(vpn int) *Export {
	if vpn < 0 || vpn >= len(ep.pageToExport) {
		return nil
	}
	return ep.pageToExport[vpn]
}

// onDeliver runs in the NIC receive engine after a packet's payload is
// in memory: bump delivery counts and wake pollers. The packet is only
// valid for the duration of the call (it recycles into the NIC's pool).
func (ep *Endpoint) onDeliver(pkt *nic.Packet) {
	ex := ep.exportFor(pkt.DstPage)
	if ex == nil {
		return
	}
	ex.deliveries++
	ex.recvCond.Broadcast()
	ep.deliveries++
	ep.recvCond.Broadcast()
}

// dispatchNotify runs in a kernel handler process when a notification
// interrupt fires: it routes to the export's user-level handler.
func (ep *Endpoint) dispatchNotify(p *sim.Proc, pkt *nic.Packet) {
	if ep.notifyBlocked {
		ep.notifyQueue = append(ep.notifyQueue, pkt)
		return
	}
	ep.deliverNotify(p, pkt)
}

func (ep *Endpoint) deliverNotify(p *sim.Proc, pkt *nic.Packet) {
	ex := ep.exportFor(pkt.DstPage)
	if ex == nil || ex.notify == nil {
		return
	}
	ep.Node.Acct.Counters.Notifications++
	off := (pkt.DstPage-ex.Base.VPN())*memory.PageSize + pkt.DstOffset
	if ep.tr != nil {
		ep.tr.Record(int64(ep.Node.M.E.Now()), trace.KNotify, int32(ep.Node.ID), int64(off), 0)
	}
	ex.notify(p, ex, off)
}
