package nic

import (
	"shrimp/internal/memory"
	"shrimp/internal/mesh"
	"shrimp/internal/sim"
	"shrimp/internal/stats"
	"shrimp/internal/trace"
)

// Kind distinguishes the two transfer mechanisms on the wire.
type Kind uint8

const (
	// AU is an automatic-update packet (snooped stores).
	AU Kind = iota
	// DU is a deliberate-update packet (user-level DMA transfer).
	DU
)

func (k Kind) String() string {
	if k == AU {
		return "AU"
	}
	return "DU"
}

// InterruptKind identifies why the NIC interrupted the host CPU.
type InterruptKind int

const (
	// IntNotification delivers a user-level notification (§2.2).
	IntNotification InterruptKind = iota
	// IntFlowControl signals outgoing-FIFO threshold crossing (§4.5.2).
	IntFlowControl
	// IntPerMessage is the forced per-arrival interrupt of the §4.4
	// what-if experiment.
	IntPerMessage
)

func (k InterruptKind) String() string {
	switch k {
	case IntNotification:
		return "notification"
	case IntFlowControl:
		return "flow-control"
	default:
		return "per-message"
	}
}

// Packet is the NIC-level wire format, carried opaquely by the mesh.
//
// Packets on the AU/DU emit paths come from a per-NIC freelist: the
// receive engine returns each packet to its owner once the payload is in
// host memory and delivery hooks have run. A handler that needs a packet
// past that instant (the notification dispatch path does) must take a
// Clone, never the original.
type Packet struct {
	Kind      Kind
	Src       mesh.NodeID
	DstPage   int // receiver physical page number
	DstOffset int
	Data      []byte
	Interrupt bool // sender's interrupt-request bit
	EndOfMsg  bool // last packet of a VMMC-level message

	// owner is the NIC whose freelist this packet recycles through
	// (nil for literal packets, which are never recycled).
	owner *NIC
	// fifoDst is the destination node while the packet waits out the
	// snoop latency on its way to the outgoing FIFO.
	fifoDst mesh.NodeID
	// fifoFn enqueues this packet into its owner's outgoing FIFO. Like
	// mesh.Packet's delivery thunk it is built once per packet and
	// reused across recycles, so emitAU schedules it with no allocation.
	//shrimp:continuation
	fifoFn func()
	// sent is the emission timestamp plus one, for end-to-end latency
	// histograms. It is stamped only when a trace recorder is attached,
	// so the untraced path never touches it; the +1 bias keeps a packet
	// emitted at time zero distinguishable from an unstamped one.
	sent sim.Time
}

// Clone returns a detached copy of the packet's header fields, safe to
// retain after the receive engine recycles the original. The payload is
// deliberately not carried over: by the time a clone is consulted the
// data is already in host memory, and aliasing a pooled buffer would be
// a use-after-recycle bug.
func (pkt *Packet) Clone() *Packet {
	return &Packet{
		Kind:      pkt.Kind,
		Src:       pkt.Src,
		DstPage:   pkt.DstPage,
		DstOffset: pkt.DstOffset,
		Interrupt: pkt.Interrupt,
		EndOfMsg:  pkt.EndOfMsg,
	}
}

// OPTEntry is one Outgoing Page Table entry: the mapping from a local
// page (a proxy page for DU, or an AU-bound memory page) to a remote
// physical page.
type OPTEntry struct {
	Valid     bool
	DstNode   mesh.NodeID
	DstPage   int
	AUEnable  bool
	Combine   bool
	Interrupt bool // interrupt-request bit attached to AU packets

	// gen distinguishes successive mappings installed at the same vpn:
	// MapOutgoing stamps each entry uniquely. The combining buffer uses
	// it to detect remapping mid-combine, reproducing the identity
	// semantics the table had when entries were individually allocated.
	gen uint64
}

// IPTEntry is one Incoming Page Table entry.
type IPTEntry struct {
	Valid           bool
	InterruptEnable bool
}

// duRequest is a queued deliberate-update transfer. Requests recycle
// through a per-NIC freelist.
type duRequest struct {
	src       memory.Addr
	dstNode   mesh.NodeID
	dstPage   int
	dstOffset int
	size      int
	interrupt bool
	endOfMsg  bool
}

// combineState is the AU combining buffer (§4.5.1). It holds a value
// copy of the OPT entry it is combining under rather than a pointer into
// the table: the table is a growable slice, and a copy both survives
// growth and pins the mapping the first combined store saw.
type combineState struct {
	active bool
	ent    OPTEntry
	page   int // local VPN being combined
	start  int // dst offset of first byte
	buf    []byte
	timer  sim.Timer
}

// NIC is the network interface of one node.
type NIC struct {
	e    *sim.Engine          //shrimp:nostate wiring: engine identity, same across branches
	id   mesh.NodeID          //shrimp:nostate wiring: fixed node identity
	net  *mesh.Network        //shrimp:nostate wiring: fabric identity; its state rewinds via mesh's own snapshot
	mem  *memory.AddressSpace //shrimp:nostate wiring: memory identity; rewinds via memory's own snapshot
	bus  *sim.Resource        //shrimp:nostate wiring: resource identity; idleness is asserted at quiescence
	acct *stats.Node          //shrimp:nostate wiring: stats identity; captured through the machine layer
	cfg  Config

	// opt and ipt are dense, vpn-indexed tables. Address spaces are
	// small and contiguous by construction (memory.AddressSpace grows a
	// linear brk), so a slice index replaces the map hash that used to
	// sit on every snooped store and every arriving packet.
	opt    []OPTEntry
	ipt    []IPTEntry
	optGen uint64 // stamp source for OPTEntry.gen

	// pktFree is the Packet freelist; packets are acquired on the emit
	// paths and released by the receiving NIC's engine.
	pktFree []*Packet //shrimp:nostate wiring: freelist identity serves every branch; contents are dead packets
	// duFree is the duRequest freelist.
	duFree []*duRequest //shrimp:nostate wiring: freelist identity; contents are dead requests

	// Outgoing side.
	duQueue   *sim.Queue[*duRequest] //shrimp:nostate asserted: Quiescent requires it drained
	duSlots   int                    //shrimp:nostate asserted: Quiescent requires zero in-flight DU requests
	duCond    *sim.Cond              //shrimp:nostate asserted: no waiters at quiescence (all procs finished)
	fifo      *sim.Queue[fifoEntry]  //shrimp:nostate asserted: Quiescent requires it drained
	fifoBytes int                    //shrimp:nostate asserted: zero once the FIFO is drained
	fifoHigh  int                    // high-water mark observed; carried across phases as a statistic
	stalled   bool                   //shrimp:nostate asserted: false once the FIFO is drained
	fifoCond  *sim.Cond              //shrimp:nostate asserted: no waiters at quiescence
	outAU     int                    //shrimp:nostate asserted: Quiescent requires zero uninjected AU packets
	fenceCond *sim.Cond              //shrimp:nostate asserted: no waiters at quiescence
	combine   combineState           //shrimp:nostate asserted: Quiescent requires no combine window open
	// flushFn is the bound flushCombine method value, materialized once:
	// re-arming the combine timer with a fresh method-value closure per
	// snooped store used to dominate the AU path's allocation profile.
	//shrimp:continuation
	flushFn func() //shrimp:nostate wiring: bound method value, identical across branches

	// nicPort models the single port of the network interface chip:
	// incoming packets and outgoing injections contend for it, which is
	// why the outgoing FIFO cannot drain while a packet is arriving.
	nicPort *sim.Resource //shrimp:nostate asserted: free at quiescence (all engines parked)

	// Incoming side.
	rxQueue *sim.Queue[*mesh.Packet] //shrimp:nostate asserted: Quiescent requires it drained
	dropped int64

	// The three device pipelines: receive DMA, deliberate-update DMA
	// and outgoing-FIFO drain. Their stages run as inline fn events
	// wherever the event loop is running, so a simulated packet costs
	// zero process switches.
	rx  engine //shrimp:nostate wiring: NIC binding and resume continuation; idle at quiescence
	du  engine //shrimp:nostate wiring: NIC binding and resume continuation; idle at quiescence
	out engine //shrimp:nostate wiring: NIC binding and resume continuation; idle at quiescence

	// In-flight engine state, the explicit continuation counterpart of
	// what used to live in each service loop's stack frame.
	rxCur   *Packet     //shrimp:nostate asserted: Quiescent requires the receive engine idle (nil)
	duReq   *duRequest  //shrimp:nostate asserted: Quiescent requires the DU engine idle (nil)
	duPkt   *Packet     //shrimp:nostate asserted: Quiescent requires the DU engine idle (nil)
	duDst   mesh.NodeID //shrimp:nostate asserted: dead once duPkt is nil
	duStart sim.Time    //shrimp:nostate asserted: dead once duPkt is nil; traced-only timestamp
	outPkt  *Packet     //shrimp:nostate asserted: Quiescent requires the outgoing engine idle (nil)
	outDst  mesh.NodeID //shrimp:nostate asserted: dead once outPkt is nil

	// Pre-built queue-delivery callbacks (bound method values,
	// materialized once in Start so re-arming allocates nothing).
	//shrimp:continuation
	rxRecvFn func(*mesh.Packet) //shrimp:nostate wiring: bound method value, identical across branches
	//shrimp:continuation
	duRecvFn func(*duRequest) //shrimp:nostate wiring: bound method value, identical across branches
	//shrimp:continuation
	outRecvFn func(fifoEntry) //shrimp:nostate wiring: bound method value, identical across branches

	// tr is the attached trace recorder (nil when tracing is off),
	// cached from the engine at construction.
	tr *trace.Recorder //shrimp:nostate wiring: tracer identity is per-run configuration

	// RaiseInterrupt is invoked (non-blocking, any context) when the NIC
	// interrupts the host CPU. Set by the machine layer. The packet is
	// only valid for the duration of the call; retain via Clone.
	//shrimp:continuation
	RaiseInterrupt func(kind InterruptKind, pkt *Packet) //shrimp:nostate wiring: hook attached at construction
	// OnDeliver is invoked in receive-engine context after a packet's
	// payload has been written to host memory. Set by the VMMC layer.
	// It must not block or retain the packet.
	//shrimp:continuation
	OnDeliver func(pkt *Packet) //shrimp:nostate wiring: hook attached at construction
}

// New constructs a NIC for node id, attached to net and backed by the
// node's memory and memory bus. Call Start before simulating.
func New(e *sim.Engine, id mesh.NodeID, net *mesh.Network, mem *memory.AddressSpace, bus *sim.Resource, acct *stats.Node, cfg Config) *NIC {
	if cfg.DUQueueDepth < 1 {
		panic("nic: DUQueueDepth must be >= 1")
	}
	n := &NIC{
		e:         e,
		id:        id,
		net:       net,
		mem:       mem,
		bus:       bus,
		acct:      acct,
		cfg:       cfg,
		duQueue:   sim.NewQueue[*duRequest](e),
		duCond:    sim.NewCond(e),
		fifo:      sim.NewQueue[fifoEntry](e),
		fifoCond:  sim.NewCond(e),
		fenceCond: sim.NewCond(e),
		nicPort:   sim.NewResource(e),
		rxQueue:   sim.NewQueue[*mesh.Packet](e),
		tr:        e.Tracer(),
	}
	n.flushFn = n.flushCombine
	net.Attach(id, func(mp *mesh.Packet) { n.rxQueue.Push(mp) })
	return n
}

// ID returns the node this NIC belongs to.
func (n *NIC) ID() mesh.NodeID { return n.id }

// Config returns the NIC configuration.
func (n *NIC) Config() Config { return n.cfg }

// FIFOHighWater reports the maximum outgoing FIFO occupancy observed.
func (n *NIC) FIFOHighWater() int { return n.fifoHigh }

// Dropped reports packets dropped for invalid IPT entries.
func (n *NIC) Dropped() int64 { return n.dropped }

// Start binds the NIC's engines — the deliberate-update DMA engine,
// the outgoing-FIFO drain, and the incoming DMA engine — and parks each
// on its input queue. No processes are spawned: every engine stage
// runs as an inline fn event, scheduled at exactly the (t, seq)
// calendar positions a blocking service loop would occupy. The engines
// serve for the lifetime of the simulation.
func (n *NIC) Start() {
	n.du.init(n)
	n.out.init(n)
	n.rx.init(n)
	n.duRecvFn = n.duBegin
	n.outRecvFn = n.outBegin
	n.rxRecvFn = n.rxBegin
	n.duQueue.PopFn(n.duRecvFn)
	n.fifo.PopFn(n.outRecvFn)
	n.rxQueue.PopFn(n.rxRecvFn)
}

// allocPacket takes a packet from the freelist or builds a fresh one
// with its FIFO thunk bound.
//
//shrimp:hotpath
func (n *NIC) allocPacket() *Packet {
	if k := len(n.pktFree); k > 0 {
		pkt := n.pktFree[k-1]
		n.pktFree[k-1] = nil
		n.pktFree = n.pktFree[:k-1]
		return pkt
	}
	//lint:ignore hotpath pool-miss fill: the packet is built once and recycled forever
	pkt := &Packet{owner: n}
	//lint:ignore hotpath pool-miss fill: the pre-built FIFO thunk keeps the steady-state AU path closure-free
	pkt.fifoFn = func() { pkt.owner.fifoArrive(pkt, pkt.fifoDst) }
	return pkt
}

// releasePacket returns a consumed packet to its owning NIC's freelist.
// Literal packets (no owner) are dropped instead.
//
//shrimp:hotpath
func releasePacket(pkt *Packet) {
	o := pkt.owner
	if o == nil {
		return
	}
	o.pktFree = append(o.pktFree, pkt)
}

// allocDU takes a transfer request from the freelist.
//
//shrimp:hotpath
func (n *NIC) allocDU() *duRequest {
	if k := len(n.duFree); k > 0 {
		r := n.duFree[k-1]
		n.duFree[k-1] = nil
		n.duFree = n.duFree[:k-1]
		return r
	}
	//lint:ignore hotpath pool-miss fill: amortized to zero once the request queue warms up
	return &duRequest{}
}

// releaseDU recycles a completed transfer request.
//
//shrimp:hotpath
func (n *NIC) releaseDU(r *duRequest) {
	n.duFree = append(n.duFree, r)
}

// growOPT extends the outgoing page table to cover vpn.
func (n *NIC) growOPT(vpn int) {
	for len(n.opt) <= vpn {
		n.opt = append(n.opt, OPTEntry{})
	}
}

// MapOutgoing installs an OPT entry for local page vpn.
func (n *NIC) MapOutgoing(vpn int, dst mesh.NodeID, dstPage int, au, combine, interrupt bool) {
	n.growOPT(vpn)
	n.optGen++
	n.opt[vpn] = OPTEntry{
		Valid:     true,
		DstNode:   dst,
		DstPage:   dstPage,
		AUEnable:  au,
		Combine:   combine,
		Interrupt: interrupt,
		gen:       n.optGen,
	}
}

// UnmapOutgoing removes the OPT entry for vpn.
func (n *NIC) UnmapOutgoing(vpn int) {
	if vpn >= 0 && vpn < len(n.opt) {
		n.opt[vpn] = OPTEntry{}
	}
}

// Outgoing looks up the OPT entry for vpn. The returned pointer is into
// the table and is invalidated by the next MapOutgoing; callers use it
// immediately and do not hold it across mapping changes.
//
//shrimp:hotpath
func (n *NIC) Outgoing(vpn int) (*OPTEntry, bool) {
	if vpn < 0 || vpn >= len(n.opt) || !n.opt[vpn].Valid {
		return nil, false
	}
	return &n.opt[vpn], true
}

// growIPT extends the incoming page table to cover vpn.
func (n *NIC) growIPT(vpn int) {
	for len(n.ipt) <= vpn {
		n.ipt = append(n.ipt, IPTEntry{})
	}
}

// SetIncoming installs an IPT entry for local page vpn (exported page).
func (n *NIC) SetIncoming(vpn int, interruptEnable bool) {
	n.growIPT(vpn)
	n.ipt[vpn] = IPTEntry{Valid: true, InterruptEnable: interruptEnable}
}

// SetIncomingInterrupt toggles the receiver-side interrupt-enable bit.
func (n *NIC) SetIncomingInterrupt(vpn int, enable bool) {
	if vpn >= 0 && vpn < len(n.ipt) && n.ipt[vpn].Valid {
		n.ipt[vpn].InterruptEnable = enable
	}
}

// ClearIncoming removes the IPT entry for vpn.
func (n *NIC) ClearIncoming(vpn int) {
	if vpn >= 0 && vpn < len(n.ipt) {
		n.ipt[vpn] = IPTEntry{}
	}
}

// incoming looks up the IPT entry for a receiver physical page.
//
//shrimp:hotpath
func (n *NIC) incoming(vpn int) (*IPTEntry, bool) {
	if vpn < 0 || vpn >= len(n.ipt) || !n.ipt[vpn].Valid {
		return nil, false
	}
	return &n.ipt[vpn], true
}

// wireSize is the on-the-wire size of a packet with payload n bytes.
func (n *NIC) wireSize(payload int) int { return payload + n.cfg.HeaderBytes }

// linkTime is the serialization time of b bytes at link bandwidth.
func (n *NIC) linkTime(b int) sim.Time {
	return sim.TransferTime(b, n.cfg.LinkBandwidth)
}

// eisaTime is the host-memory DMA time for b bytes over the I/O bus.
func (n *NIC) eisaTime(b int) sim.Time {
	return sim.TransferTime(b, n.cfg.EISABandwidth)
}
