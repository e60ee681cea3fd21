//go:build go1.23

// The build tag sets this file's language version to 1.23, the first
// with iter.Pull, while go.mod still declares go 1.22.

package sim

import "iter"

// worker is a pooled coroutine that runs process bodies. Engine.run
// resumes it with next; the process it is running yields back to the
// loop from park. When a body returns, the worker parks on the engine's
// idle list and the next Spawn hands it a new body, so steady-state
// spawning creates no coroutine.
type worker struct {
	e     *Engine
	p     *Proc       // process assigned to this worker, nil while idle
	body  func(*Proc) // body p runs, cleared once started
	yield func(struct{}) bool
	next  func() (struct{}, bool)
	stop  func()
}

// getWorker takes an idle worker or starts a new coroutine.
func (e *Engine) getWorker() *worker {
	if n := len(e.idle); n > 0 {
		w := e.idle[n-1]
		e.idle[n-1] = nil
		e.idle = e.idle[:n-1]
		return w
	}
	w := &worker{e: e}
	w.next, w.stop = iter.Pull(w.loop)
	return w
}

// loop is the coroutine body: run the assigned process to completion,
// park on the idle list, repeat. yield reports false once stop is
// called (Shutdown), which ends the coroutine.
func (w *worker) loop(yield func(struct{}) bool) {
	defer recoverKill()
	w.yield = yield
	for {
		p, body := w.p, w.body
		w.body = nil
		body(p)
		p.finished = true
		p.w = nil
		w.p = nil
		w.e.live--
		w.e.idle = append(w.e.idle, w)
		if !yield(struct{}{}) {
			return
		}
	}
}

// recoverKill absorbs the killSignal that unwinds a process stopped by
// Shutdown. Any other panic propagates: iter.Pull re-raises it in the
// goroutine that resumed the coroutine, which is the Run caller.
func recoverKill() {
	if r := recover(); r != nil {
		if _, ok := r.(killSignal); !ok {
			panic(r)
		}
	}
}

// suspend yields the running process's coroutine back to Engine.run.
// It returns when the loop resumes the process, or panics with
// killSignal when Shutdown stops it instead.
func (p *Proc) suspend() {
	if !p.w.yield(struct{}{}) {
		panic(killSignal{})
	}
}
