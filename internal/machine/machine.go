package machine

import (
	"fmt"

	"shrimp/internal/memory"
	"shrimp/internal/mesh"
	"shrimp/internal/nic"
	"shrimp/internal/sim"
	"shrimp/internal/stats"
	"shrimp/internal/trace"
)

// Config describes a SHRIMP system to build.
type Config struct {
	// Nodes is the number of compute nodes (1..Mesh.Width*Mesh.Height).
	Nodes int
	Mesh  mesh.Config
	NIC   nic.Config
	Cost  CostModel
	// SyscallPerSend charges a kernel trap on every message send,
	// emulating the kernel-level-DMA design of §4.3.
	SyscallPerSend bool
	// MaxAccum bounds unflushed CPU time before automatic-update stores
	// force a flush (keeps AU packet timing honest).
	MaxAccum sim.Time
	// Trace, when non-nil, is attached to the engine before any device
	// is constructed, so every layer caches it and emits trace events.
	// Nil (the default) keeps every hot path on its zero-cost nil-check
	// branch. Excluded from JSON so the harness's canonical cell
	// encoding (a pure-data description of a run) can marshal Config
	// directly.
	Trace *trace.Recorder `json:"-"`
}

// DefaultConfig returns an n-node SHRIMP system as built (AU enabled,
// combining on, 32 KB FIFO, DU queue depth 1, no kernel knobs).
func DefaultConfig(n int) Config {
	mc := mesh.DefaultConfig()
	// Shrink the mesh to fit small systems so hop counts stay sensible
	// for the speedup experiments.
	if n <= 0 {
		panic("machine: need at least one node")
	}
	w := 1
	for w*w < n {
		w++
	}
	h := (n + w - 1) / w
	mc.Width, mc.Height = w, h
	return Config{
		Nodes:    n,
		Mesh:     mc,
		NIC:      nic.DefaultConfig(),
		Cost:     DefaultCostModel(),
		MaxAccum: 1 * sim.Microsecond,
	}
}

// MyrinetLikeConfig returns the §4.1 off-the-shelf comparison system.
func MyrinetLikeConfig(n int) Config {
	c := DefaultConfig(n)
	c.NIC = nic.MyrinetLikeConfig()
	c.Cost = MyrinetCostModel()
	return c
}

// Node is one compute node: CPU accounting, memory, memory bus, NIC.
type Node struct {
	ID   mesh.NodeID          //shrimp:nostate wiring: fixed node identity
	M    *Machine             //shrimp:nostate wiring: back-pointer to the owning machine
	Mem  *memory.AddressSpace //shrimp:nostate captured: captured by BeginSnapshot; restored through the memory.Snapshot handle
	Bus  *sim.Resource        //shrimp:nostate asserted: Quiescent requires every memory bus idle
	NIC  *nic.NIC
	CPU  *CPU
	Acct *stats.Node

	notify     func(p *sim.Proc, pkt *nic.Packet) //shrimp:nostate wiring: dispatch hook attached by the vmmc layer at construction
	notifyName string                             //shrimp:nostate wiring: diagnostic name of notification handlers, fixed per node
}

// Machine is the whole system.
type Machine struct {
	E     *sim.Engine
	Net   *mesh.Network
	Nodes []*Node
	Cfg   Config
	Acct  *stats.Machine //shrimp:nostate captured: aliases the per-node accounts, captured individually via Node.Acct
}

// New builds and starts a machine: all nodes, NICs and the backplane.
func New(cfg Config) *Machine {
	if cfg.Nodes > cfg.Mesh.Width*cfg.Mesh.Height {
		panic(fmt.Sprintf("machine: %d nodes exceed %dx%d mesh",
			cfg.Nodes, cfg.Mesh.Width, cfg.Mesh.Height))
	}
	if cfg.MaxAccum <= 0 {
		cfg.MaxAccum = 1 * sim.Microsecond
	}
	if cfg.NIC.InterruptStall <= 0 {
		cfg.NIC.InterruptStall = cfg.Cost.InterruptCost
	}
	e := sim.NewEngine()
	// The tracer must be attached before any device is built: mesh and
	// NIC construction cache e.Tracer() into their hot-path fields.
	e.SetTracer(cfg.Trace)
	m := &Machine{
		E:    e,
		Net:  mesh.New(e, cfg.Mesh),
		Cfg:  cfg,
		Acct: stats.NewMachine(cfg.Nodes),
	}
	// Attach inert sinks for unpopulated mesh positions.
	for i := cfg.Nodes; i < m.Net.Nodes(); i++ {
		m.Net.Attach(mesh.NodeID(i), func(*mesh.Packet) {})
	}
	for i := 0; i < cfg.Nodes; i++ {
		nd := &Node{
			ID:   mesh.NodeID(i),
			M:    m,
			Mem:  memory.NewAddressSpace(),
			Bus:  sim.NewResource(e),
			Acct: m.Acct.Nodes[i],

			notifyName: fmt.Sprintf("notify@%d", i),
		}
		nd.CPU = &CPU{node: nd, acct: m.Acct.Nodes[i], maxAccum: cfg.MaxAccum}
		nd.NIC = nic.New(e, nd.ID, m.Net, nd.Mem, nd.Bus, nd.Acct, cfg.NIC)
		nd.NIC.RaiseInterrupt = nd.raiseInterrupt
		nd.Mem.Snoop = nd.NIC.Snoop
		nd.NIC.Start()
		m.Nodes = append(m.Nodes, nd)
	}
	return m
}

// Close terminates any unfinished app processes and returns each
// node's written page frames to the shared frame pool. Device engines
// are continuation state machines with no goroutines to unwind; they
// simply stop receiving events. The machine is unusable afterwards.
func (m *Machine) Close() {
	m.E.Shutdown()
	for _, nd := range m.Nodes {
		nd.Mem.Release()
	}
}

// RunParallel runs body once per node as the node's application process
// and executes the simulation until all of them finish. It returns the
// makespan (the virtual finish time of the slowest node). It may be
// called repeatedly for phased workloads.
func (m *Machine) RunParallel(name string, body func(nd *Node, p *sim.Proc)) sim.Time {
	start := m.E.Now()
	done := 0
	for _, nd := range m.Nodes {
		nd := nd
		m.E.Spawn(fmt.Sprintf("%s@%d", name, nd.ID), func(p *sim.Proc) {
			body(nd, p)
			nd.CPU.Flush(p)
			done++
		})
	}
	m.E.Run()
	if done != len(m.Nodes) {
		panic(fmt.Sprintf("machine: deadlock in %q at %v: %d of %d nodes finished, %d procs blocked: %v",
			name, m.E.Now(), done, len(m.Nodes), m.E.Blocked(), m.E.UnfinishedNames()))
	}
	return m.E.Now() - start
}

// BindCPU associates a process with an accounting context. Library code
// resolves contexts with Node.CPUFor. The binding rides on the process
// itself rather than a machine-wide map: CPUFor sits on the store/load
// hot path, where a map hash per memory operation is measurable.
func (m *Machine) BindCPU(p *sim.Proc, c *CPU) { p.SetContext(c) }

// CPUFor returns the accounting context for p: a bound handler context,
// or this node's application context. A nil p (setup time) also yields
// the application context.
func (nd *Node) CPUFor(p *sim.Proc) *CPU {
	if p != nil {
		if c, ok := p.Context().(*CPU); ok {
			return c
		}
	}
	return nd.CPU
}

// SpawnHandler runs body as a kernel/handler process on this node with
// its own accounting context that displaces the application.
func (nd *Node) SpawnHandler(name string, body func(p *sim.Proc, c *CPU)) {
	hc := nd.newHandlerCPU()
	pr := nd.M.E.Spawn(name, func(p *sim.Proc) {
		body(p, hc)
		hc.Flush(p)
	})
	nd.M.BindCPU(pr, hc)
}

// SetNotifyDispatch installs the user-level notification dispatcher for
// this node (the VMMC library layer).
func (nd *Node) SetNotifyDispatch(fn func(p *sim.Proc, pkt *nic.Packet)) {
	nd.notify = fn
}

// raiseInterrupt is the NIC's interrupt line. It never blocks: handler
// work runs in a freshly spawned kernel process and its cost is stolen
// from the application CPU.
func (nd *Node) raiseInterrupt(kind nic.InterruptKind, pkt *nic.Packet) {
	nd.Acct.Counters.Interrupts++
	if tr := nd.M.Cfg.Trace; tr != nil {
		tr.Record(int64(nd.M.E.Now()), trace.KInterrupt, int32(nd.ID), int64(kind), 0)
	}
	cost := nd.M.Cfg.Cost.InterruptCost
	switch kind {
	case nic.IntPerMessage:
		// The delivery-path stall in the NIC receive engine carries the
		// handler cost; nothing further to charge here.
	case nic.IntFlowControl:
		// Null handler: pure cost.
		nd.CPU.Steal(cost)
	case nic.IntNotification:
		// The handler runs after the NIC has recycled the packet into
		// its freelist, so it captures a detached clone, not the pooled
		// original.
		pkt = pkt.Clone()
		dispatch := nd.M.Cfg.Cost.NotifyDispatchCost
		nd.SpawnHandler(nd.notifyName, func(p *sim.Proc, c *CPU) {
			c.ChargeOverhead(cost + dispatch)
			c.Flush(p)
			if nd.notify != nil {
				nd.notify(p, pkt)
			}
		})
	}
}

// StoreUint32 performs an application store, paying the write-through
// cost and honoring flow control when the page is AU-bound.
func (nd *Node) StoreUint32(p *sim.Proc, addr memory.Addr, v uint32) {
	cost := nd.M.Cfg.Cost
	cpu := nd.CPUFor(p)
	if ent, ok := nd.NIC.Outgoing(addr.VPN()); ok && ent.AUEnable {
		nd.NIC.WaitAUReady(p)
		if cpu.Pending() >= cpu.maxAccum {
			cpu.Flush(p)
		}
		cpu.Charge(cost.AUStoreCost)
	} else {
		cpu.Charge(cost.StoreCost)
	}
	nd.Mem.WriteUint32(p, addr, v)
}

// StoreBytes performs an application store of a byte run (within or
// across pages). On AU-bound pages the CPU issues word-sized stores,
// checking flow control before each one, exactly as real code behind
// the snooped memory bus would; elsewhere it is a bulk copy.
func (nd *Node) StoreBytes(p *sim.Proc, addr memory.Addr, data []byte) {
	cost := nd.M.Cfg.Cost
	word := nd.NIC.Config().AUWordBytes
	for len(data) > 0 {
		n := memory.PageSize - addr.Offset()
		if n > len(data) {
			n = len(data)
		}
		cpu := nd.CPUFor(p)
		if ent, ok := nd.NIC.Outgoing(addr.VPN()); ok && ent.AUEnable {
			// Word-at-a-time write-through stores with per-store flow
			// control: every word is an uncached memory-bus write, which
			// is why deliberate update's DMA engine wins for bulk data
			// (§4.2).
			for off := 0; off < n; off += word {
				w := word
				if off+w > n {
					w = n - off
				}
				nd.NIC.WaitAUReady(p)
				if cpu.Pending() >= cpu.maxAccum {
					cpu.Flush(p)
				}
				cpu.Charge(cost.AUStoreCost)
				nd.Mem.Write(p, addr+memory.Addr(off), data[off:off+w])
			}
		} else {
			cpu.Charge(cost.CopyTime(n))
			nd.Mem.Write(p, addr, data[:n])
		}
		data = data[n:]
		addr += memory.Addr(n)
	}
}

// StoreUint64 performs an application store of a 64-bit word, paying
// the write-through cost and honoring flow control on AU-bound pages.
func (nd *Node) StoreUint64(p *sim.Proc, addr memory.Addr, v uint64) {
	cost := nd.M.Cfg.Cost
	cpu := nd.CPUFor(p)
	if ent, ok := nd.NIC.Outgoing(addr.VPN()); ok && ent.AUEnable {
		nd.NIC.WaitAUReady(p)
		if cpu.Pending() >= cpu.maxAccum {
			cpu.Flush(p)
		}
		cpu.Charge(cost.AUStoreCost)
	} else {
		cpu.Charge(cost.StoreCost)
	}
	nd.Mem.WriteUint64(p, addr, v)
}

// LoadUint32 performs an application load.
func (nd *Node) LoadUint32(p *sim.Proc, addr memory.Addr) uint32 {
	nd.CPUFor(p).Charge(nd.M.Cfg.Cost.LoadCost)
	return nd.Mem.ReadUint32(p, addr)
}

// LoadUint64 performs an application load of a 64-bit word.
func (nd *Node) LoadUint64(p *sim.Proc, addr memory.Addr) uint64 {
	nd.CPUFor(p).Charge(nd.M.Cfg.Cost.LoadCost)
	return nd.Mem.ReadUint64(p, addr)
}
