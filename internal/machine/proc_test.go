package machine

import (
	"runtime"
	"strings"
	"testing"

	"shrimp/internal/sim"
)

// A panicking application process must surface from RunParallel in the
// caller's goroutine, where it can be recovered, and Close must then
// unwind the other nodes' processes without hanging.
func TestRunParallelPanicIsRecoverable(t *testing.T) {
	base := runtime.NumGoroutine()
	m := New(DefaultConfig(4))
	r := func() (r any) {
		defer func() { r = recover() }()
		m.RunParallel("app", func(nd *Node, p *sim.Proc) {
			nd.CPU.Charge(100)
			nd.CPU.Flush(p)
			if nd.ID == 2 {
				panic("node 2 failed")
			}
			p.Sleep(1000)
		})
		return nil
	}()
	if r != "node 2 failed" {
		t.Fatalf("recovered %v from RunParallel, want the body's panic", r)
	}
	m.Close()
	if got := runtime.NumGoroutine(); got > base {
		t.Fatalf("goroutines: %d after Close, %d before New", got, base)
	}
}

// Close must stop every coroutine the machine's engine started: pooled
// ones whose bodies returned and parked ones that never will. Repeating
// the machine lifecycle must not raise the goroutine count. It may fall:
// the previous test's runner goroutine can still be exiting when base
// is read, so a count below base is no leak.
func TestCloseStopsCoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		m := New(DefaultConfig(4))
		m.RunParallel("app", func(nd *Node, p *sim.Proc) {
			if nd.ID == 0 {
				// A handler parked forever on a condition nobody signals.
				never := sim.NewCond(m.E)
				nd.SpawnHandler("stuck", func(p *sim.Proc, c *CPU) { never.Wait(p) })
			}
			nd.CPU.Charge(sim.Time(10 * (int(nd.ID) + 1)))
			nd.CPU.Flush(p)
		})
		if names := strings.Join(m.E.UnfinishedNames(), ","); names != "stuck" {
			t.Fatalf("unfinished processes %q, want the stuck handler", names)
		}
		m.Close()
	}
	if got := runtime.NumGoroutine(); got > base {
		t.Fatalf("goroutines: %d after 50 machines, %d before", got, base)
	}
}
