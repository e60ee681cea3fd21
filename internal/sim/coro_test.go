package sim

import (
	"runtime"
	"testing"
)

// runRecovering runs e and returns the value of any panic that escapes
// Run, or nil.
func runRecovering(e *Engine) (r any) {
	defer func() { r = recover() }()
	e.Run()
	return nil
}

// A panicking process body must surface in the Run caller, where it can
// be recovered, instead of killing the host process; Shutdown must then
// still unwind every other coroutine.
func TestProcPanicReachesRun(t *testing.T) {
	for _, tc := range []struct {
		name  string
		crash func(e *Engine, p *Proc)
	}{
		// The body itself panics while it is the running process.
		{"body", func(e *Engine, p *Proc) {
			p.Sleep(5)
			panic("boom")
		}},
		// A fn event panics while a parking process dispatches it.
		{"fn-event", func(e *Engine, p *Proc) {
			e.After(3, func() { panic("boom") })
			p.Sleep(5)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			e := NewEngine()
			never := NewCond(e)
			e.Spawn("waiter", func(p *Proc) { never.Wait(p) })
			e.Spawn("crasher", func(p *Proc) { tc.crash(e, p) })
			e.Spawn("sleeper", func(p *Proc) { p.Sleep(100) })
			if r := runRecovering(e); r != "boom" {
				t.Fatalf("recovered %v from Run, want boom", r)
			}
			if e.Now() >= 100 {
				t.Fatalf("clock %v: Run kept going past the panic", e.Now())
			}
			e.Shutdown()
			if e.Live() != 0 {
				t.Fatalf("live = %d after Shutdown", e.Live())
			}
			if got := runtime.NumGoroutine(); got != base {
				t.Fatalf("goroutines: %d after Shutdown, %d before the engine", got, base)
			}
		})
	}
}

// A finished process's coroutine must serve the next Spawn: steady-state
// spawning allocates the Proc and nothing else.
func TestSpawnReusesCoroutine(t *testing.T) {
	e := NewEngine()
	body := func(p *Proc) { p.Sleep(1) }
	e.Spawn("warm", body)
	e.Run()
	base := runtime.NumGoroutine()
	avg := testing.AllocsPerRun(100, func() {
		e.Spawn("short", body)
		e.Run()
	})
	if avg > 1 {
		t.Fatalf("spawning a short process allocates %.1f objects, want at most 1 (the Proc)", avg)
	}
	if got := runtime.NumGoroutine(); got != base {
		t.Fatalf("goroutines: %d after 100 spawns, %d before: coroutines not pooled", got, base)
	}
	e.Shutdown()
	if got := runtime.NumGoroutine(); got != base-1 {
		t.Fatalf("goroutines: %d after Shutdown, want %d: idle coroutine not stopped", got, base-1)
	}
}
