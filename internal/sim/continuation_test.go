package sim

import (
	"reflect"
	"testing"
)

// TestQueuePopFnDelivery checks one-shot callback delivery: the
// callback receives the head item at the push instant's calendar
// position, and re-arming from inside the callback drains subsequent
// pushes in order.
func TestQueuePopFnDelivery(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int](e)
	var got []int
	var recv func(int)
	recv = func(v int) {
		got = append(got, v)
		q.PopFn(recv)
	}
	q.PopFn(recv)
	e.At(0, func() { q.Push(1); q.Push(2) })
	e.At(5, func() { q.Push(3) })
	e.Run()
	if want := []int{1, 2, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("delivered %v, want %v", got, want)
	}
	if q.Len() != 0 {
		t.Fatalf("queue left %d items", q.Len())
	}
}

// TestQueuePopFnNonEmpty checks that registering on a non-empty queue
// delivers at a scheduling point, not inline.
func TestQueuePopFnNonEmpty(t *testing.T) {
	e := NewEngine()
	q := NewQueue[string](e)
	var order []string
	e.At(0, func() {
		q.Push("item")
		q.PopFn(func(v string) { order = append(order, "deliver:"+v) })
		order = append(order, "registered")
	})
	e.Run()
	want := []string{"registered", "deliver:item"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

// TestQueuePopFnDoubleRegisterPanics pins the single-consumer contract.
func TestQueuePopFnDoubleRegisterPanics(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int](e)
	q.PopFn(func(int) {})
	defer func() {
		if recover() == nil {
			t.Fatal("second PopFn did not panic")
		}
	}()
	q.PopFn(func(int) {})
}

// TestCondWaitFnOrder checks that process and callback waiters on one
// Cond wake in registration order.
func TestCondWaitFnOrder(t *testing.T) {
	e := NewEngine()
	c := NewCond(e)
	var order []string
	e.Spawn("first", func(p *Proc) {
		c.Wait(p)
		order = append(order, "proc")
	})
	e.At(0, func() { c.WaitFn(func() { order = append(order, "fn") }) })
	e.At(1, func() { c.Signal(); c.Signal() })
	e.Run()
	if want := []string{"proc", "fn"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("wake order = %v, want %v", order, want)
	}
	e.Shutdown()
}

// TestCondBroadcastMixed checks Broadcast wakes both waiter kinds.
func TestCondBroadcastMixed(t *testing.T) {
	e := NewEngine()
	c := NewCond(e)
	woke := 0
	e.Spawn("w", func(p *Proc) {
		c.Wait(p)
		woke++
	})
	e.At(0, func() { c.WaitFn(func() { woke++ }) })
	e.At(1, func() { c.Broadcast() })
	e.Run()
	if woke != 2 {
		t.Fatalf("woke %d waiters, want 2", woke)
	}
	if c.Waiters() != 0 {
		t.Fatalf("%d waiters left", c.Waiters())
	}
	e.Shutdown()
}

// TestAsyncPathsAllocationFree asserts the continuation primitives the
// NIC engines ride on — Queue.PopFn re-arming and delivery,
// Resource.AcquireFn on a free and on a held resource, the fn-waiter
// handoff at Release, and After — allocate nothing in steady state.
// This is the async counterpart of TestProcSleepAllocationFree.
func TestAsyncPathsAllocationFree(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int](e)
	r := NewResource(e)
	release := r.Release
	served := 0
	var recv func(int)
	var hold, done func()
	hold = func() { e.After(3, done) }
	done = func() {
		r.Release()
		served++
		if _, ok := q.TryPop(); ok {
			if r.AcquireFn(hold) {
				hold()
			}
			return
		}
		q.PopFn(recv)
	}
	recv = func(int) {
		if r.AcquireFn(hold) {
			hold()
		}
	}
	q.PopFn(recv)
	avg := testing.AllocsPerRun(100, func() {
		// Hold the resource for one tick so the first request queues
		// behind it and is granted by the fn-waiter handoff.
		r.TryAcquire()
		e.After(1, release)
		q.Push(1)
		q.Push(2)
		e.Run()
	})
	if avg != 0 {
		t.Fatalf("async service loop allocates %.1f objects per run, want 0", avg)
	}
	if served == 0 {
		t.Fatal("service loop never ran")
	}
}
