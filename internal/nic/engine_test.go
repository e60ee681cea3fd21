package nic

import (
	"reflect"
	"testing"

	"shrimp/internal/sim"
)

// newEngine binds an engine to a bare NIC on a fresh simulation; the
// engine reads nothing of the NIC but its sim.Engine.
func newEngine(t *testing.T) (*sim.Engine, *engine) {
	t.Helper()
	e := sim.NewEngine()
	t.Cleanup(e.Shutdown)
	g := &engine{}
	g.init(&NIC{e: e})
	return e, g
}

// TestEngineSleepZeroYields checks that a zero-delay sleep is still a
// scheduling point, exactly like Proc.Sleep(0): an event scheduled
// earlier at the same instant runs before the stage resumes.
func TestEngineSleepZeroYields(t *testing.T) {
	e, g := newEngine(t)
	var order []string
	e.At(0, func() {
		e.At(e.Now(), func() { order = append(order, "earlier") })
		g.sleep(0, func(*NIC) { order = append(order, "resumed") })
		order = append(order, "armed")
	})
	e.Run()
	want := []string{"armed", "earlier", "resumed"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

// TestEngineAcquireFast checks that acquiring a free resource runs the
// next stage inline, with no scheduling point — the analogue of a
// process's no-yield Resource.Acquire fast path.
func TestEngineAcquireFast(t *testing.T) {
	e, g := newEngine(t)
	r := sim.NewResource(e)
	var order []string
	e.At(0, func() {
		g.acquire(r, func(*NIC) {
			if !r.Busy() {
				t.Error("stage ran without holding the resource")
			}
			order = append(order, "hold")
			r.Release()
		})
		order = append(order, "after-acquire")
	})
	e.Run()
	want := []string{"hold", "after-acquire"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

// TestEngineAcquireContended checks FIFO handoff between a blocking
// process and an engine contending for the same resource: grant order
// is arrival order regardless of waiter style, and the engine owns the
// resource when its next stage runs.
func TestEngineAcquireContended(t *testing.T) {
	e, g := newEngine(t)
	r := sim.NewResource(e)
	var order []string
	e.Spawn("holder", func(p *sim.Proc) {
		r.Acquire(p)
		p.Sleep(10)
		order = append(order, "holder-release")
		r.Release()
	})
	e.Spawn("proc-waiter", func(p *sim.Proc) {
		p.Sleep(1) // arrives first among the waiters
		r.Acquire(p)
		order = append(order, "proc")
		r.Release()
	})
	e.At(2, func() { // arrives second
		g.acquire(r, func(*NIC) {
			if !r.Busy() {
				t.Error("engine resumed without holding the resource")
			}
			order = append(order, "engine")
			r.Release()
		})
	})
	e.Run()
	want := []string{"holder-release", "proc", "engine"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("grant order = %v, want %v", order, want)
	}
}
