// Package nic is a functional model of the SHRIMP network interface:
// the Outgoing Page Table (OPT), Incoming Page Table (IPT), the
// automatic-update snoop path with optional combining, the outgoing FIFO
// with its flow-control threshold interrupt, the user-level DMA
// deliberate-update engine with an optional request queue, and the
// incoming DMA engine with notification interrupt logic.
//
// Every design knob the paper evaluates by reprogramming firmware is a
// field of Config, so the what-if experiments are plain configuration
// changes.
package nic

import "shrimp/internal/sim"

// Config holds the NIC design parameters and what-if knobs.
type Config struct {
	// AutomaticUpdate enables the AU snoop path. Off for the
	// Myrinet-like configuration of §4.1.
	AutomaticUpdate bool

	// Combining enables automatic-update combining (§4.5.1): consecutive
	// snooped stores accumulate into one packet until a non-consecutive
	// store, a sub-page boundary crossing, or a timer expiry.
	Combining bool
	// CombineLimit is the sub-page boundary at which a combined packet
	// is flushed, in bytes.
	CombineLimit int
	// CombineTimeout flushes a partially combined packet after this idle
	// interval.
	CombineTimeout sim.Time

	// OutFIFOBytes is the nominal size of the outgoing FIFO (§4.5.2).
	// SHRIMP shipped 32 KB (8-byte-wide, 4 K deep). No simulator code
	// reads it: the FIFO is modelled only through FIFOThresholdBytes
	// and FIFOLowWaterBytes, so occupancy is not bounded by this value.
	// It stays in the config so a what-if names the FIFO it models and
	// the cache key tells such cells apart.
	OutFIFOBytes int
	// FIFOThresholdBytes raises the flow-control interrupt when exceeded.
	FIFOThresholdBytes int
	// FIFOLowWaterBytes re-enables AU stores once occupancy drains below it.
	FIFOLowWaterBytes int

	// DUQueueDepth is the number of deliberate-update transfer requests
	// the NIC can hold (§4.5.3). SHRIMP as built is 1; the experiment
	// firmware implemented 2.
	DUQueueDepth int

	// InterruptPerMessage forces a (null-handler) interrupt on every
	// arriving message, approximating traditional NIC designs (§4.4).
	InterruptPerMessage bool
	// InterruptPerPacket forces an interrupt on every arriving packet,
	// the even more expensive design the paper notes traditional NICs
	// may require ("overheads will be even higher", §4.4).
	InterruptPerPacket bool
	// InterruptStall is the kernel handler time that delays delivery
	// when InterruptPerMessage/InterruptPerPacket is set (filled from
	// the machine's cost model when zero).
	InterruptStall sim.Time

	// Timing parameters.
	HeaderBytes   int      // wire header per packet
	DMASetup      sim.Time // DU engine per-transfer setup
	RxSetup       sim.Time // incoming engine per-packet handling
	EISABandwidth float64  // host-memory DMA bandwidth, bytes/sec
	LinkBandwidth float64  // injection pacing, bytes/sec
	SnoopLatency  sim.Time // snoop logic store-to-FIFO latency
	MaxTransfer   int      // DU max bytes per transfer (one page)
	AUWordBytes   int      // payload of one uncombined AU packet
}

// DefaultConfig returns the SHRIMP NIC as built.
func DefaultConfig() Config {
	return Config{
		AutomaticUpdate:    true,
		Combining:          true,
		CombineLimit:       256,
		CombineTimeout:     2 * sim.Microsecond,
		OutFIFOBytes:       32 * 1024,
		FIFOThresholdBytes: 24 * 1024,
		FIFOLowWaterBytes:  8 * 1024,
		DUQueueDepth:       1,
		HeaderBytes:        16,
		DMASetup:           2000 * sim.Nanosecond,
		RxSetup:            1600 * sim.Nanosecond,
		EISABandwidth:      30e6,
		LinkBandwidth:      200e6,
		SnoopLatency:       1500 * sim.Nanosecond,
		MaxTransfer:        4096,
		AUWordBytes:        8,
	}
}

// MyrinetLikeConfig approximates the off-the-shelf comparison system of
// §4.1: no automatic update, a programmed-I/O + firmware send path
// modeled as a deeper DU queue with higher per-transfer setup (LANai
// firmware processing), and PCI-class DMA bandwidth.
func MyrinetLikeConfig() Config {
	c := DefaultConfig()
	c.AutomaticUpdate = false
	c.Combining = false
	c.DUQueueDepth = 8
	c.DMASetup = 4 * sim.Microsecond  // firmware packet processing
	c.RxSetup = 2600 * sim.Nanosecond // firmware receive processing
	c.EISABandwidth = 66e6            // PCI DMA
	c.LinkBandwidth = 160e6           // Myrinet link
	return c
}
