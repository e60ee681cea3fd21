// Package hotpath exercises the //shrimp:hotpath directive.
package hotpath

import "fmt"

type ring struct {
	buf []int
}

var sink any

//shrimp:hotpath
func (r *ring) badClosure(v int) func() {
	return func() { _ = v } // want `closure literal in hotpath function`
}

//shrimp:hotpath
func (r *ring) badAddrLit() {
	p := &ring{} // want `heap-allocates; recycle through a freelist`
	_ = p
}

//shrimp:hotpath
func (r *ring) badMapLit() {
	m := map[int]int{} // want `map literal in hotpath function`
	_ = m
}

//shrimp:hotpath
func (r *ring) badSliceLit() {
	s := []int{1, 2} // want `slice literal in hotpath function`
	_ = s
}

//shrimp:hotpath
func (r *ring) badMake() {
	b := make([]byte, 8) // want `make in hotpath function`
	_ = b
}

//shrimp:hotpath
func (r *ring) badNew() {
	n := new(ring) // want `new in hotpath function`
	_ = n
}

//shrimp:hotpath
func (r *ring) badFmt(v int) {
	fmt.Println(v) // want `fmt\.Println in hotpath function`
}

//shrimp:hotpath
func (r *ring) badStringConv(b []byte) string {
	return string(b) // want `conversion in hotpath function .* copies and allocates`
}

//shrimp:hotpath
func (r *ring) badByteConv(s string) []byte {
	return []byte(s) // want `conversion in hotpath function .* copies and allocates`
}

//shrimp:hotpath
func (r *ring) badBoxing(v int) {
	sink = any(v) // want `boxes the value`
}

//shrimp:hotpath
func (r *ring) badLocalAppend(v int) int {
	var tmp []int
	tmp = append(tmp, v) // want `a slice declared inside hotpath function`
	return len(tmp)
}

// okFieldAppend: growth of a struct-owned buffer is amortized pool
// growth, not a per-call allocation.
//
//shrimp:hotpath
func (r *ring) okFieldAppend(v int) {
	r.buf = append(r.buf, v)
}

//shrimp:hotpath
func okParamAppend(buf []int, v int) []int {
	return append(buf, v)
}

// okPanic: panic arguments are cold by definition.
//
//shrimp:hotpath
func (r *ring) okPanic(v int) {
	if v < 0 {
		panic(fmt.Sprintf("negative ring index %d", v))
	}
	r.buf[0] = v
}

//shrimp:hotpath
func (r *ring) justified() {
	//lint:ignore hotpath fixture: demonstrates a justified suppression
	r.buf = make([]int, 0, 64)
}

// Continuation-engine constructs (Queue.PopFn /
// Resource.AcquireFn): arming a wait inside a hotpath function must
// hand over a continuation that was materialized at construction time
// — a closure literal built at the arming site allocates on every
// re-arm, which is exactly the steady-state path the discipline
// protects.

type contQueue struct{ waitFn func() }

func (q *contQueue) popFn(fn func()) { q.waitFn = fn }

type contDev struct {
	q *contQueue
	// recvFn is the pre-built continuation, bound once off the hot path.
	recvFn func()
}

//shrimp:hotpath
func (d *contDev) badRearm() {
	d.q.popFn(func() { d.badRearm() }) // want `closure literal in hotpath function`
}

// okRearm hands over the pre-built continuation: no per-arm allocation.
//
//shrimp:hotpath
func (d *contDev) okRearm() {
	d.q.popFn(d.recvFn)
}

// unmarked may allocate freely: the directive, not the package,
// selects functions for enforcement.
func unmarked(v int) string {
	m := map[int]int{v: v}
	return fmt.Sprint(m, &ring{}, make([]byte, 4), string([]byte("x")))
}
