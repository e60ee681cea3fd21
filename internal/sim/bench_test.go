package sim

import "testing"

// BenchmarkProcSwitch measures the switch cost of the process style:
// two processes ping-pong through a pair of Conds, so every round is
// two park/wake cycles, each a coroutine yield to Engine.run and a
// resume of the other process. This is the per-wakeup overhead the
// continuation engines eliminate.
func BenchmarkProcSwitch(b *testing.B) {
	e := NewEngine()
	ping := NewCond(e)
	pong := NewCond(e)
	rounds := b.N
	// pong is spawned first so it is parked before ping's first Signal.
	e.Spawn("pong", func(p *Proc) {
		for j := 0; j < rounds; j++ {
			pong.Wait(p)
			ping.Signal()
		}
	})
	e.Spawn("ping", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			pong.Signal()
			ping.Wait(p)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
	b.StopTimer()
	e.Shutdown()
}

// BenchmarkSpawn measures the cost of a short-lived process in steady
// state: spawn it, run it to completion, and return its coroutine to the
// engine's idle pool for the next iteration.
func BenchmarkSpawn(b *testing.B) {
	e := NewEngine()
	body := func(p *Proc) { p.Sleep(1) }
	e.Spawn("warm", body)
	e.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Spawn("short", body)
		e.Run()
	}
	b.StopTimer()
	e.Shutdown()
}

// BenchmarkFnEventDispatch measures the same ping-pong expressed as
// continuation callbacks: each round is two fn events dispatched inline
// by the event loop, with no coroutine switches. The ratio against
// BenchmarkProcSwitch is the per-wakeup saving of the continuation
// engines (tentpole of PR 6).
func BenchmarkFnEventDispatch(b *testing.B) {
	e := NewEngine()
	ping := NewCond(e)
	pong := NewCond(e)
	rounds := b.N
	i, j := 0, 0
	var pingStep, pongStep func()
	pingStep = func() {
		if i++; i <= rounds {
			pong.Signal()
			ping.WaitFn(pingStep)
		}
	}
	pongStep = func() {
		ping.Signal()
		if j++; j < rounds {
			pong.WaitFn(pongStep)
		}
	}
	pong.WaitFn(pongStep)
	e.At(0, pingStep)
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
	b.StopTimer()
	e.Shutdown()
}
