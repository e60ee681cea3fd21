package machine

import (
	"fmt"

	"shrimp/internal/memory"
	"shrimp/internal/mesh"
	"shrimp/internal/nic"
	"shrimp/internal/sim"
	"shrimp/internal/stats"
)

// Checkpoint support. A machine snapshot composes the per-layer pairs:
// engine counters, network link horizons, per-node accounting, NIC
// tables, and the copy-on-write memory snapshots. The config block is
// captured too — the harness mutates it (SyscallPerSend and the NIC
// knob block) when applying a branch's knobs after a shared warmup,
// and Restore must roll that back before the next branch applies its
// own.

// Snapshot captures a Machine at a quiescent instant. It stays
// attached (memory copy-on-write stays armed) until the machine is
// closed, so it can be restored once per branch.
type Snapshot struct {
	engine sim.EngineSnapshot
	cfg    Config
	net    mesh.NetworkSnapshot
	acct   []stats.Node
	cpu    []cpuState
	mem    []*memory.Snapshot
	nic    []nic.NICSnapshot
}

// cpuState is the carried-over part of an application CPU context at a
// phase boundary. RunParallel flushes each node's context as its body
// returns, so accum and pending are zero then — but a handler process
// that runs after that final flush leaves stolen time behind, to be
// charged at the application's first flush of the next phase.
type cpuState struct {
	accum   [stats.NumCategories]sim.Time
	pending sim.Time
	stolen  sim.Time
}

// Quiescent reports nil when the machine is checkpointable: engine
// drained, every CPU context flushed, every bus idle, every NIC parked.
func (m *Machine) Quiescent() error {
	if err := m.E.Quiescent(); err != nil {
		return err
	}
	for _, nd := range m.Nodes {
		switch {
		case nd.CPU.waiting:
			return fmt.Errorf("machine: node %d: CPU context marked waiting", nd.ID)
		case nd.Bus.Busy() || nd.Bus.QueueLen() != 0:
			return fmt.Errorf("machine: node %d: memory bus held", nd.ID)
		}
		if err := nd.NIC.Quiescent(); err != nil {
			return err
		}
	}
	return nil
}

// Take captures the machine. It panics if the machine is not
// quiescent: checkpoints are only legal between RunParallel phases.
func (m *Machine) Take() *Snapshot {
	if err := m.Quiescent(); err != nil {
		panic(fmt.Sprintf("machine: snapshot of non-quiescent machine: %v", err))
	}
	es, err := m.E.Snapshot()
	if err != nil {
		panic(err)
	}
	s := &Snapshot{
		engine: es,
		cfg:    m.Cfg,
		net:    m.Net.Snapshot(),
		acct:   make([]stats.Node, len(m.Nodes)),
		cpu:    make([]cpuState, len(m.Nodes)),
		mem:    make([]*memory.Snapshot, len(m.Nodes)),
		nic:    make([]nic.NICSnapshot, len(m.Nodes)),
	}
	for i, nd := range m.Nodes {
		s.acct[i] = *nd.Acct
		s.cpu[i] = cpuState{accum: nd.CPU.accum, pending: nd.CPU.pending, stolen: nd.CPU.stolen}
		s.mem[i] = nd.Mem.BeginSnapshot()
		s.nic[i] = nd.NIC.Snapshot()
	}
	return s
}

// Detach disarms the memory layer's copy-on-write capture. The
// snapshot can no longer be restored; the machine keeps running at
// full speed with no capture checks on its store paths.
func (s *Snapshot) Detach() {
	for _, ms := range s.mem {
		ms.Detach()
	}
}

// Restore rewinds the machine to the snapshot. The machine must be
// quiescent again (the previous branch ran to completion); the caller
// is expected to have verified higher layers too.
func (m *Machine) Restore(s *Snapshot) {
	if err := m.Quiescent(); err != nil {
		panic(fmt.Sprintf("machine: restore of non-quiescent machine: %v", err))
	}
	m.E.Restore(s.engine)
	m.Cfg = s.cfg
	m.Net.Restore(s.net)
	for i, nd := range m.Nodes {
		*nd.Acct = s.acct[i]
		nd.CPU.accum = s.cpu[i].accum
		nd.CPU.pending = s.cpu[i].pending
		nd.CPU.stolen = s.cpu[i].stolen
		s.mem[i].Restore()
		nd.NIC.Restore(s.nic[i])
	}
}
