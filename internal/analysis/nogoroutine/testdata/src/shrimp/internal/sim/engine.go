// Package sim stands in for the engine: the package is on the Spawn
// allowlist, so the Spawn helper below may call its own method, but
// no file of it is on the go-statement allowlist: processes are
// coroutines, so the engine has no reason to start a goroutine.
package sim

// Proc stands in for a simulation process.
type Proc struct{}

// Engine stands in for the event engine; the analyzer identifies
// Spawn/SpawnAt by this receiver type.
type Engine struct{}

func (e *Engine) Spawn(name string, body func(p *Proc)) *Proc {
	return e.SpawnAt(0, name, body)
}

func (e *Engine) SpawnAt(t int64, name string, body func(p *Proc)) *Proc {
	return nil
}

func start(f func()) {
	go f() // want `go statement outside the scheduler allowlist`
}
