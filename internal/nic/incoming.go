package nic

import (
	"shrimp/internal/memory"
	"shrimp/internal/mesh"
	"shrimp/internal/trace"
)

// The incoming DMA engine accepts packets off the backplane, validates
// them against the Incoming Page Table, writes the payload to host
// memory over the memory bus, and raises interrupts per the
// notification rules of §2.2/§4.4.
//
// It is a chain of engine stages, not a process: each packet walks the
// stages below as inline fn events, with the engine parked on rxQueue
// between packets.
//
// The mesh-level carrier is released back to the network pool as soon
// as the NIC payload is unwrapped; the NIC packet itself is released to
// its owning NIC's freelist once every delivery hook has run. Hooks
// that need the packet beyond that instant must Clone it.

// rxBegin is the rxQueue delivery callback: it unwraps the mesh carrier
// and takes the NIC port for one NIC packet. The port is busy while a
// packet is being received, which blocks outgoing-FIFO draining
// (incoming has priority in the hardware; here they serialize through
// the same port).
//
//shrimp:hotpath
func (n *NIC) rxBegin(mp *mesh.Packet) {
	n.rxCur = mp.Payload.(*Packet)
	n.net.Release(mp)
	n.rx.acquire(n.nicPort, (*NIC).rxSetup)
}

//shrimp:hotpath
func (n *NIC) rxSetup() { n.rx.sleep(n.cfg.RxSetup, (*NIC).rxClassify) }

// rxClassify validates the packet against the IPT and routes it:
// invalid pages are dropped in hardware, payloads arbitrate for the
// memory bus (which cannot cycle-share, so this contends with the CPU
// and the DU engine), and empty packets skip the bus entirely.
//
//shrimp:hotpath
func (n *NIC) rxClassify() {
	pkt := n.rxCur
	if _, ok := n.incoming(pkt.DstPage); !ok {
		// Page not exported: hardware drops the packet and counts the
		// error.
		n.dropped++
		n.nicPort.Release()
		releasePacket(pkt)
		n.rxCur = nil
		n.rxNext()
		return
	}
	if len(pkt.Data) > 0 {
		n.rx.acquire(n.bus, (*NIC).rxDMA)
		return
	}
	n.rxLand()
}

// rxDMA holds the memory bus for the payload's transfer time.
//
//shrimp:hotpath
func (n *NIC) rxDMA() { n.rx.sleep(n.eisaTime(len(n.rxCur.Data)), (*NIC).rxLand) }

// rxLand writes the payload to host memory, frees the buses, and
// applies the §4.4 what-if interrupt stalls: a null kernel handler runs
// before the application can observe the data, delaying delivery and
// occupying the CPU — per message boundary, or per packet in the even
// costlier traditional design.
//
//shrimp:hotpath
func (n *NIC) rxLand() {
	pkt := n.rxCur
	if len(pkt.Data) > 0 {
		addr := memory.Addr(pkt.DstPage*memory.PageSize + pkt.DstOffset)
		n.mem.DMAWrite(addr, pkt.Data)
		n.bus.Release()
	}
	n.nicPort.Release()

	if n.tr != nil && pkt.sent != 0 {
		// End-to-end latency: emission (snoop or DMA-engine start) to
		// payload landed in receiver host memory.
		class := trace.LatAU
		if pkt.Kind == DU {
			class = trace.LatDU
		}
		n.tr.Latency(class, int64(n.e.Now()-(pkt.sent-1)))
	}

	// AU packets with the sender's interrupt-request bit mark message
	// boundaries on automatic-update streams.
	auBoundary := pkt.Kind == AU && pkt.Interrupt
	if pkt.EndOfMsg {
		n.acct.Counters.MessagesRecv++
		if n.tr != nil {
			n.tr.Record(int64(n.e.Now()), trace.KMsgRecv, int32(n.id), int64(pkt.Src), 0)
		}
	}
	if n.cfg.InterruptPerPacket ||
		(n.cfg.InterruptPerMessage && (pkt.EndOfMsg || auBoundary)) {
		if n.RaiseInterrupt != nil {
			n.RaiseInterrupt(IntPerMessage, pkt)
		}
		n.rx.sleep(n.cfg.InterruptStall, (*NIC).rxDeliver)
		return
	}
	n.rxDeliver()
}

// rxDeliver applies the notification rule — sender's
// interrupt-request bit AND the receiver's per-page interrupt-enable
// bit — runs the delivery hooks, and recycles the packet. The IPT entry
// is looked up afresh here because the table may have been grown or its
// interrupt-enable bit toggled while the DMA waited above.
//
//shrimp:hotpath
func (n *NIC) rxDeliver() {
	pkt := n.rxCur
	if pkt.Interrupt && n.RaiseInterrupt != nil {
		if ipt, ok := n.incoming(pkt.DstPage); ok && ipt.InterruptEnable {
			n.RaiseInterrupt(IntNotification, pkt)
		}
	}
	if n.OnDeliver != nil {
		n.OnDeliver(pkt)
	}
	releasePacket(pkt)
	n.rxCur = nil
	n.rxNext()
}

// rxNext pumps the receive queue: a queued packet continues the
// pipeline inline at the same instant (exactly as a blocking loop's
// non-empty Pop would), an empty queue parks the engine on a one-shot
// delivery callback.
//
//shrimp:hotpath
func (n *NIC) rxNext() {
	if mp, ok := n.rxQueue.TryPop(); ok {
		n.rxBegin(mp)
		return
	}
	n.rxQueue.PopFn(n.rxRecvFn)
}
