package memory

// Checkpoint support: an AddressSpace can capture its state at an
// instant and later rewind to it, with fork cost proportional to the
// pages actually written in between — not to the size of memory.
//
// BeginSnapshot copies only per-page metadata (O(pages), a few bytes
// each) and arms copy-on-write: every write path in memory.go calls
// capture(vpn) before the first post-snapshot modification of a page,
// which saves the page's pristine contents if it had a frame (or just
// notes it if it had none, i.e. read as all-zero). Restore then
// rewinds exactly the touched pages — copying saved contents back, or
// returning frames materialized since the snapshot to the pool — and
// truncates any post-snapshot allocations, so a branch that wrote k
// pages restores in O(k).
//
// The capture set is cumulative across branches: a page saved once
// stays saved, so re-writing it in a later branch skips the copy and
// Restore still rewinds it to the snapshot contents.

// pageMeta is the snapshot copy of one page's bookkeeping.
type pageMeta struct {
	mapped bool
	prot   Prot
}

// Snapshot is a rewindable capture of an AddressSpace. It stays
// attached (and copy-on-write stays armed) until Detach or Release.
type Snapshot struct {
	as     *AddressSpace
	npages int
	brk    Addr
	meta   []pageMeta

	// touched marks pages written since the snapshot; touchedList holds
	// them in first-touch order so Restore is O(touched). saved holds a
	// pristine copy for pages that had a frame at snapshot time; touched
	// pages with a nil saved entry had none and lose their frame again.
	touched     []bool //shrimp:nostate captured: first-touch dedup index over touchedList, which Restore walks instead
	touchedList []int
	saved       []*[PageSize]byte
}

// BeginSnapshot captures the address space and arms copy-on-write.
// Only one snapshot may be active per address space.
func (as *AddressSpace) BeginSnapshot() *Snapshot {
	if as.ck != nil {
		panic("memory: snapshot already active")
	}
	np := len(as.pages)
	ck := &Snapshot{
		as:      as,
		npages:  np,
		brk:     as.brk,
		meta:    make([]pageMeta, np),
		touched: make([]bool, np),
		saved:   make([]*[PageSize]byte, np),
	}
	for i := range as.pages {
		pg := &as.pages[i]
		ck.meta[i] = pageMeta{mapped: pg.mapped, prot: pg.prot}
	}
	as.ck = ck
	return ck
}

// capture saves a page's pristine contents before its first
// post-snapshot write. Pages allocated after the snapshot need no
// saving: Restore unmaps them wholesale. Every frame materialized
// since the snapshot passed through here first, so a page's frame at
// its first capture is the one it had at the snapshot.
func (ck *Snapshot) capture(vpn int) {
	if vpn >= ck.npages || ck.touched[vpn] {
		return
	}
	ck.touched[vpn] = true
	ck.touchedList = append(ck.touchedList, vpn)
	if f := ck.as.pages[vpn].data; f != nil {
		saved := *f
		ck.saved[vpn] = &saved
	}
}

// Restore rewinds the address space to the snapshot: post-snapshot
// allocations are unmapped and their frames recycled, touched pages get
// their pristine contents back (or give back the frame they gained),
// and per-page metadata (protection) is reset for every page.
// Copy-on-write stays armed, so the snapshot can be restored again
// after further writes.
func (ck *Snapshot) Restore() {
	as := ck.as
	if as.ck != ck {
		panic("memory: restoring a detached snapshot")
	}
	// Unmap pages allocated after the snapshot, returning their frames
	// to the pool.
	tail := as.pages[ck.npages:]
	for i := range tail {
		if f := tail[i].data; f != nil {
			putFrame(f)
		}
	}
	clear(tail)
	as.pages = as.pages[:ck.npages]
	as.brk = ck.brk
	// Rewind touched page contents.
	for _, vpn := range ck.touchedList {
		pg := &as.pages[vpn]
		if saved := ck.saved[vpn]; saved != nil {
			*pg.data = *saved
		} else if pg.data != nil {
			putFrame(pg.data)
			pg.data = nil
		}
	}
	// Reset metadata for every surviving page (protection can change
	// without any write, so this cannot ride the touched list).
	for i := range as.pages {
		m := ck.meta[i]
		pg := &as.pages[i]
		pg.mapped = m.mapped
		pg.prot = m.prot
	}
}

// Detach disarms copy-on-write without rewinding. The snapshot is dead
// afterwards.
func (ck *Snapshot) Detach() {
	if ck.as.ck == ck {
		ck.as.ck = nil
	}
}

// Touched reports how many pages have been captured since the
// snapshot (for benchmarks and diagnostics).
func (ck *Snapshot) Touched() int { return len(ck.touchedList) }
