// Package mesh models the SHRIMP routing backplane: a two-dimensional
// mesh with oblivious X-Y (dimension-order) wormhole routing, as used by
// the Intel Paragon. The model is packet-level with cut-through timing:
// a packet reserves each directed link along its path for its
// serialization time, and the head advances one router delay per hop, so
// both latency and link contention are represented.
package mesh

import (
	"fmt"

	"shrimp/internal/sim"
	"shrimp/internal/trace"
)

// NodeID identifies a node attached to the mesh, in row-major order.
type NodeID int

// Packet is one network packet. The payload is opaque to the mesh.
//
// Steady-state traffic should use packets obtained from Network.Acquire
// and returned with Network.Release once the receiver is done with them:
// such packets recycle through a freelist (mirroring the engine's event
// freelist) and carry a pre-built delivery thunk, so Send performs no
// heap allocation. A Packet constructed literally still works; it simply
// is never recycled. A released packet must not be retained: the network
// may hand it out again on the next Acquire.
type Packet struct {
	Src, Dst NodeID
	Size     int // bytes on the wire, including header
	Payload  any

	// deliver invokes the destination sink on this packet. It is built
	// once per pooled packet (capturing only the packet and its network)
	// and reused across recycles, replacing the per-send closure that
	// used to dominate Send's allocation profile.
	//shrimp:continuation
	deliver func()
}

// Config describes the mesh geometry and timing.
type Config struct {
	Width, Height int
	// LinkBandwidth is in bytes per second (the Paragon backplane link
	// peak is 200 MB/s).
	LinkBandwidth float64
	// RouterDelay is the per-hop latency of the packet head.
	RouterDelay sim.Time
	// InjectDelay is the cost of moving a packet from the network
	// interface through the transceiver onto the backplane (and
	// symmetrically off it at the destination).
	InjectDelay sim.Time
}

// DefaultConfig matches the 16-node SHRIMP system: a 4x4 mesh with
// 200 MB/s links and Paragon iMRC-class router delays.
func DefaultConfig() Config {
	return Config{
		Width:         4,
		Height:        4,
		LinkBandwidth: 200e6,
		RouterDelay:   40 * sim.Nanosecond,
		InjectDelay:   100 * sim.Nanosecond,
	}
}

// Sink receives packets delivered to a node. It runs in engine context
// at the delivery instant; implementations must not block. The packet
// belongs to the sender's pool: the receiver must Release it (directly
// or after queueing it for later processing) when finished.
type Sink func(pkt *Packet)

// direction indexes the four outgoing links of a router.
type direction int

const (
	east direction = iota
	west
	north
	south
	ndirections
)

var directionNames = [ndirections]string{"east", "west", "north", "south"}

func (d direction) String() string { return directionNames[d] }

// link is a directed channel between adjacent routers with its own
// occupancy horizon, used to model wormhole contention.
type link struct {
	freeAt sim.Time
	// busy accumulates total occupied time for utilization statistics.
	busy sim.Time
	// id is the link's index within Network.links, so trace events can
	// name the link without pointer arithmetic.
	id int32 //shrimp:nostate wiring: fixed topology index, identical across branches
}

// Stats aggregates network-level counters.
type Stats struct {
	Packets   int64
	Bytes     int64
	HopsTotal int64
}

// Network is the mesh fabric connecting all nodes.
type Network struct {
	e     *sim.Engine //shrimp:nostate wiring: engine identity, same across branches
	cfg   Config      //shrimp:nostate wiring: immutable topology configuration
	links []link      // [router*ndirections + dir]
	sinks []Sink      //shrimp:nostate wiring: delivery closures registered at construction
	stats Stats

	// routes caches the X-Y path for every (src,dst) pair, filled
	// lazily on first use. A 4x4 mesh has only 256 pairs, so Send never
	// recomputes or allocates a path in steady state; path() remains the
	// oracle the cache is validated against in tests.
	routes [][]*link //shrimp:nostate wiring: deterministic pure-function cache; identical however far a branch ran

	// pool is the Packet freelist.
	pool []*Packet //shrimp:nostate wiring: freelist identity serves every branch; contents are dead packets

	// tr is the attached trace recorder (nil when tracing is off);
	// cached from the engine at construction so Send pays one nil
	// check when disabled.
	tr *trace.Recorder //shrimp:nostate wiring: tracer identity is per-run configuration
}

// New constructs a mesh network on engine e.
func New(e *sim.Engine, cfg Config) *Network {
	if cfg.Width <= 0 || cfg.Height <= 0 {
		panic("mesh: non-positive dimensions")
	}
	n := cfg.Width * cfg.Height
	net := &Network{
		e:      e,
		cfg:    cfg,
		links:  make([]link, n*int(ndirections)),
		sinks:  make([]Sink, n),
		routes: make([][]*link, n*n),
		tr:     e.Tracer(),
	}
	for i := range net.links {
		net.links[i].id = int32(i)
	}
	if net.tr != nil {
		net.tr.SetLinkNames(net.linkNames())
	}
	return net
}

// linkName renders a link's trace-track name from its index.
func (n *Network) linkName(idx int) string {
	r := idx / int(ndirections)
	d := direction(idx % int(ndirections))
	return fmt.Sprintf("x%dy%d %s", r%n.cfg.Width, r/n.cfg.Width, d)
}

// linkNames lists every link's name, indexed like Network.links.
func (n *Network) linkNames() []string {
	names := make([]string, len(n.links))
	for i := range names {
		names[i] = n.linkName(i)
	}
	return names
}

// LinkUtil snapshots per-link occupancy against an elapsed run time,
// for the trace metrics summary. Only links that carried traffic are
// reported, in link-index order.
func (n *Network) LinkUtil(elapsed sim.Time) []trace.LinkUtil {
	var out []trace.LinkUtil
	for i := range n.links {
		if n.links[i].busy == 0 {
			continue
		}
		out = append(out, trace.LinkUtil{
			Name:    n.linkName(i),
			Busy:    int64(n.links[i].busy),
			Elapsed: int64(elapsed),
		})
	}
	return out
}

// Nodes reports the number of attached node slots.
func (n *Network) Nodes() int { return n.cfg.Width * n.cfg.Height }

// Stats returns a copy of the aggregate counters.
func (n *Network) Stats() Stats { return n.stats }

// Attach registers the delivery sink for a node.
//
//shrimp:continuation
func (n *Network) Attach(id NodeID, s Sink) {
	if int(id) < 0 || int(id) >= len(n.sinks) {
		panic(fmt.Sprintf("mesh: attach to invalid node %d", id))
	}
	n.sinks[id] = s
}

// Acquire returns a zeroed packet, recycled from the freelist when
// possible. The caller fills Src, Dst, Size and Payload and passes it to
// Send; the receiving side returns it with Release.
//
//shrimp:hotpath
func (n *Network) Acquire() *Packet {
	if k := len(n.pool); k > 0 {
		pkt := n.pool[k-1]
		n.pool[k-1] = nil
		n.pool = n.pool[:k-1]
		return pkt
	}
	//lint:ignore hotpath pool-miss fill: the packet and its delivery thunk are built once and recycled forever
	pkt := &Packet{}
	//lint:ignore hotpath pool-miss fill: the pre-built thunk is exactly what keeps steady-state Send closure-free
	pkt.deliver = func() { n.sinks[pkt.Dst](pkt) }
	return pkt
}

// Release returns a delivered packet to the freelist. Packets that were
// constructed literally (no delivery thunk) are dropped for the garbage
// collector instead.
//
//shrimp:hotpath
func (n *Network) Release(pkt *Packet) {
	if pkt.deliver == nil {
		return
	}
	pkt.Payload = nil
	n.pool = append(n.pool, pkt)
}

func (n *Network) coords(id NodeID) (x, y int) {
	return int(id) % n.cfg.Width, int(id) / n.cfg.Width
}

func (n *Network) linkAt(x, y int, d direction) *link {
	r := y*n.cfg.Width + x
	return &n.links[r*int(ndirections)+int(d)]
}

// serialization returns the time a packet of size bytes occupies a link.
func (n *Network) serialization(size int) sim.Time {
	return sim.TransferTime(size, n.cfg.LinkBandwidth)
}

// path returns the sequence of directed links a packet takes under X-Y
// dimension-order routing from src to dst. It allocates a fresh slice
// per call; Send goes through route, which serves cached copies. path
// stays as the independently-computed oracle for the cache tests.
func (n *Network) path(src, dst NodeID) []*link {
	sx, sy := n.coords(src)
	dx, dy := n.coords(dst)
	var links []*link
	x, y := sx, sy
	for x != dx {
		if dx > x {
			links = append(links, n.linkAt(x, y, east))
			x++
		} else {
			links = append(links, n.linkAt(x, y, west))
			x--
		}
	}
	for y != dy {
		if dy > y {
			links = append(links, n.linkAt(x, y, south))
			y++
		} else {
			links = append(links, n.linkAt(x, y, north))
			y--
		}
	}
	return links
}

// route returns the cached path from src to dst, computing it on first
// use. src != dst is required (loopback never touches the backplane), so
// a non-nil cached route is never empty and nil means "not yet filled".
//
//shrimp:hotpath
func (n *Network) route(src, dst NodeID) []*link {
	idx := int(src)*n.Nodes() + int(dst)
	if r := n.routes[idx]; r != nil {
		return r
	}
	r := n.path(src, dst)
	n.routes[idx] = r
	return r
}

// Hops returns the number of router-to-router hops between two nodes.
func (n *Network) Hops(src, dst NodeID) int {
	sx, sy := n.coords(src)
	dx, dy := n.coords(dst)
	return sim.AbsInt(sx-dx) + sim.AbsInt(sy-dy)
}

// Send injects a packet at the current instant and schedules its
// delivery at the destination sink. It returns the delivery time.
// Send may be called from engine or process context.
//
//shrimp:hotpath
func (n *Network) Send(pkt *Packet) sim.Time {
	if n.sinks[pkt.Dst] == nil {
		panic(fmt.Sprintf("mesh: send to unattached node %d", pkt.Dst))
	}
	deliver := pkt.deliver
	if deliver == nil {
		// Literal (unpooled) packet: build the delivery thunk once.
		//lint:ignore hotpath fallback for hand-built literal packets (tests); pooled traffic never reaches it
		deliver = func() { n.sinks[pkt.Dst](pkt) }
	}
	now := n.e.Now()
	n.stats.Packets++
	n.stats.Bytes += int64(pkt.Size)

	occ := n.serialization(pkt.Size)
	// Injection through the transceiver onto the backplane.
	head := now + n.cfg.InjectDelay
	if pkt.Src == pkt.Dst {
		// Loopback through the NIC without touching the backplane.
		t := head + occ
		n.e.At(t, deliver)
		n.tracePacket(pkt, now, t)
		return t
	}
	links := n.route(pkt.Src, pkt.Dst)
	n.stats.HopsTotal += int64(len(links))
	for _, l := range links {
		start := head
		if l.freeAt > start {
			// Wormhole blocking: the head stalls until the link frees.
			start = l.freeAt
		}
		l.freeAt = start + occ
		l.busy += occ
		head = start + n.cfg.RouterDelay
		if n.tr != nil {
			n.tr.Record(int64(start), trace.KLinkHop, -1, int64(l.id), int64(occ))
		}
	}
	// Ejection at the destination: the tail arrives one serialization
	// time after the head clears the last router.
	t := head + n.cfg.InjectDelay + occ
	n.e.At(t, deliver)
	n.tracePacket(pkt, now, t)
	return t
}

// tracePacket records a packet's injection and (future, deterministic)
// delivery, plus its transit-latency sample. The delivery event is
// recorded at injection time because the delivery thunk is pre-built
// and must stay allocation-free; the exporters re-sort by timestamp.
//
//shrimp:hotpath
func (n *Network) tracePacket(pkt *Packet, now, t sim.Time) {
	if n.tr == nil {
		return
	}
	n.tr.Record(int64(now), trace.KPktSend, int32(pkt.Src), int64(pkt.Dst), int64(pkt.Size))
	n.tr.Record(int64(t), trace.KPktRecv, int32(pkt.Dst), int64(pkt.Src), int64(pkt.Size))
	n.tr.Latency(trace.LatMesh, int64(t-now))
}
