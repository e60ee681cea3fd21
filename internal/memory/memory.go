// Package memory models a node's virtual address space as an array of
// 4 KB pages with per-page protection, a write-snoop hook (how the SHRIMP
// network interface observes stores on the Xpress memory bus), and a
// page-fault hook (how shared virtual memory protocols intercept access).
//
// Data held in an AddressSpace is real: deliberate-update and
// automatic-update transfers copy actual bytes between address spaces,
// so applications compute verifiable results through the simulated
// communication subsystem.
//
// Page storage is lazy. Mapping a page costs a few bytes of metadata;
// its 4 KB frame is materialized by the first write and recycled,
// zeroed, through a process-wide frame pool when the address space is
// released. An unwritten page reads as zeroes. Most mapped pages are
// never written — every proxy page of every VMMC import, and every SVM
// region page a node never touches — so host memory follows the pages
// a simulation writes, not the address space it maps.
package memory

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"

	"shrimp/internal/sim"
)

// Page geometry shared by the whole system (matches the i486/Pentium
// 4 KB page the SHRIMP OPT/IPT are built around).
const (
	PageShift = 12
	PageSize  = 1 << PageShift
	PageMask  = PageSize - 1
)

// Addr is a virtual address within one node's address space.
type Addr uint32

// VPN returns the virtual page number containing a.
func (a Addr) VPN() int { return int(a >> PageShift) }

// Offset returns the offset of a within its page.
func (a Addr) Offset() int { return int(a & PageMask) }

// PageBase returns the address of the first byte of a's page.
func (a Addr) PageBase() Addr { return a &^ Addr(PageMask) }

// Prot is a page protection mode, used by the SVM protocols.
type Prot uint8

const (
	// ProtNone faults on any access.
	ProtNone Prot = iota
	// ProtRead faults on writes only.
	ProtRead
	// ProtReadWrite allows all access.
	ProtReadWrite
)

func (p Prot) String() string {
	switch p {
	case ProtNone:
		return "none"
	case ProtRead:
		return "read"
	default:
		return "read-write"
	}
}

type page struct {
	// data is the page's frame, materialized by the first write; nil
	// means the page holds only zeroes. Most mapped pages (proxy pages
	// of imports, SVM region pages a node never touches) stay nil, so
	// mapping memory costs metadata, not storage.
	data   *[PageSize]byte
	mapped bool
	prot   Prot
}

// zeroFrame backs every read of an unwritten page. It is never handed
// to a caller that may write: every write path materializes a frame.
var zeroFrame [PageSize]byte

// framePool recycles zeroed page frames across address-space
// lifetimes: a full experiment grid builds and discards hundreds of
// machines, and reusing their written frames keeps that churn out of
// the allocator and the GC. Every frame on the free list is all-zero.
// The pool is shared by all workers; the mutex is uncontended off the
// first-write path.
var framePool struct {
	sync.Mutex
	free []*[PageSize]byte
}

// getFrame returns a zeroed frame.
func getFrame() *[PageSize]byte {
	framePool.Lock()
	if n := len(framePool.free); n > 0 {
		f := framePool.free[n-1]
		framePool.free[n-1] = nil
		framePool.free = framePool.free[:n-1]
		framePool.Unlock()
		return f
	}
	framePool.Unlock()
	return new([PageSize]byte)
}

// putFrame zeroes f and returns it to the pool.
func putFrame(f *[PageSize]byte) {
	clear(f[:])
	framePool.Lock()
	framePool.free = append(framePool.free, f)
	framePool.Unlock()
}

// SnoopFunc observes a completed store to main memory. It runs at the
// instant of the store, in the storer's context.
type SnoopFunc func(addr Addr, size int)

// FaultFunc resolves a protection fault. It runs in the faulting
// process's context and must upgrade the page's protection before
// returning (the access is retried once).
type FaultFunc func(p *sim.Proc, vpn int, write bool)

// AddressSpace is one node's paged memory.
type AddressSpace struct {
	pages []page
	brk   Addr

	// Snoop, if set, is invoked after every CPU store (not DMA stores;
	// see DMAWrite). This is the hook the NIC's AU logic attaches to.
	//shrimp:continuation
	Snoop SnoopFunc //shrimp:nostate wiring: observer hook attached at construction
	// Fault, if set, is invoked on protection violations.
	Fault FaultFunc //shrimp:nostate wiring: fault handler attached at construction

	// ck, when non-nil, is the active checkpoint: every write path
	// captures a page's pristine contents before its first post-snapshot
	// modification (see snapshot.go). Off the checkpointed path this is
	// one nil check per write.
	ck *Snapshot //shrimp:nostate wiring: the active-snapshot handle itself; its contents rewind the space, its identity is wiring
}

// NewAddressSpace returns an empty address space. Page zero is left
// unmapped so that address 0 is never valid.
func NewAddressSpace() *AddressSpace {
	return &AddressSpace{pages: make([]page, 1), brk: PageSize}
}

// Alloc maps npages fresh zeroed pages with read-write protection and
// returns the base address of the run. No frame is allocated: a page
// gets one on its first write.
func (as *AddressSpace) Alloc(npages int) Addr {
	if npages <= 0 {
		panic("memory: Alloc of non-positive page count")
	}
	base := as.brk
	as.pages = slices.Grow(as.pages, npages)
	for i := 0; i < npages; i++ {
		as.pages = append(as.pages, page{mapped: true, prot: ProtReadWrite})
	}
	as.brk += Addr(npages * PageSize)
	return base
}

// AllocBytes maps enough pages for n bytes and returns the base address.
func (as *AddressSpace) AllocBytes(n int) Addr {
	return as.Alloc((n + PageSize - 1) / PageSize)
}

// Release returns every written page's frame, zeroed, to the shared
// pool for the next machine to reuse. The address space is unusable
// afterwards. Callers that skip Release (tests, one-shot runs) simply
// leave their frames to the garbage collector.
func (as *AddressSpace) Release() {
	for i := range as.pages {
		if f := as.pages[i].data; f != nil {
			putFrame(f)
		}
	}
	as.pages = nil
	as.brk = 0
	as.ck = nil
}

// Mapped reports whether vpn is a mapped page.
func (as *AddressSpace) Mapped(vpn int) bool {
	return vpn >= 0 && vpn < len(as.pages) && as.pages[vpn].mapped
}

// Pages reports the number of page slots (mapped or not).
func (as *AddressSpace) Pages() int { return len(as.pages) }

// Prot returns the protection of a mapped page.
func (as *AddressSpace) Prot(vpn int) Prot {
	as.check(vpn)
	return as.pages[vpn].prot
}

// SetProt changes the protection of a mapped page.
func (as *AddressSpace) SetProt(vpn int, p Prot) {
	as.check(vpn)
	as.pages[vpn].prot = p
}

// PageData exposes the raw backing bytes of a page (for DMA engines,
// twin creation, and diff application). The caller may write through
// the returned slice, so the page's frame is materialized. The caller
// must respect the simulation's timing discipline itself.
func (as *AddressSpace) PageData(vpn int) []byte {
	as.check(vpn)
	return as.frame(vpn)[:]
}

func (as *AddressSpace) check(vpn int) {
	if vpn < 0 || vpn >= len(as.pages) || !as.pages[vpn].mapped {
		panic(fmt.Sprintf("memory: access to unmapped page %d", vpn))
	}
}

// frame returns vpn's frame for writing: the active checkpoint captures
// the page first, then an unwritten page gets a zeroed frame.
func (as *AddressSpace) frame(vpn int) *[PageSize]byte {
	if as.ck != nil {
		as.ck.capture(vpn)
	}
	pg := &as.pages[vpn]
	if pg.data == nil {
		pg.data = getFrame()
	}
	return pg.data
}

// view returns vpn's bytes for reading; an unwritten page reads as
// zeroes without allocating.
func (as *AddressSpace) view(vpn int) *[PageSize]byte {
	if f := as.pages[vpn].data; f != nil {
		return f
	}
	return &zeroFrame
}

// ensure resolves protection for an access of kind write at vpn,
// invoking the fault handler as needed.
func (as *AddressSpace) ensure(p *sim.Proc, vpn int, write bool) {
	as.check(vpn)
	for tries := 0; ; tries++ {
		prot := as.pages[vpn].prot
		ok := prot == ProtReadWrite || (!write && prot == ProtRead)
		if ok {
			return
		}
		if as.Fault == nil || tries > 0 {
			panic(fmt.Sprintf("memory: unhandled %s fault on page %d (prot %s)",
				accessName(write), vpn, prot))
		}
		as.Fault(p, vpn, write)
	}
}

func accessName(write bool) string {
	if write {
		return "write"
	}
	return "read"
}

// Read copies n bytes at addr into buf, honoring protection. The access
// must not cross a page boundary unless all pages are readable; it is
// split internally per page.
func (as *AddressSpace) Read(p *sim.Proc, addr Addr, buf []byte) {
	for len(buf) > 0 {
		vpn := addr.VPN()
		as.ensure(p, vpn, false)
		n := copy(buf, as.view(vpn)[addr.Offset():])
		buf = buf[n:]
		addr += Addr(n)
	}
}

// Write copies buf to addr, honoring protection and firing the snoop
// hook per page-contiguous chunk.
func (as *AddressSpace) Write(p *sim.Proc, addr Addr, buf []byte) {
	for len(buf) > 0 {
		vpn := addr.VPN()
		as.ensure(p, vpn, true)
		n := copy(as.frame(vpn)[addr.Offset():], buf)
		if as.Snoop != nil {
			as.Snoop(addr, n)
		}
		buf = buf[n:]
		addr += Addr(n)
	}
}

// ReadUint32 reads a little-endian 32-bit word.
func (as *AddressSpace) ReadUint32(p *sim.Proc, addr Addr) uint32 {
	vpn := addr.VPN()
	as.ensure(p, vpn, false)
	off := addr.Offset()
	if off+4 <= PageSize {
		return binary.LittleEndian.Uint32(as.view(vpn)[off:])
	}
	var b [4]byte
	as.Read(p, addr, b[:])
	return binary.LittleEndian.Uint32(b[:])
}

// WriteUint32 writes a little-endian 32-bit word.
func (as *AddressSpace) WriteUint32(p *sim.Proc, addr Addr, v uint32) {
	vpn := addr.VPN()
	as.ensure(p, vpn, true)
	off := addr.Offset()
	if off+4 <= PageSize {
		binary.LittleEndian.PutUint32(as.frame(vpn)[off:], v)
		if as.Snoop != nil {
			as.Snoop(addr, 4)
		}
		return
	}
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	as.Write(p, addr, b[:])
}

// ReadUint64 reads a little-endian 64-bit word.
func (as *AddressSpace) ReadUint64(p *sim.Proc, addr Addr) uint64 {
	vpn := addr.VPN()
	as.ensure(p, vpn, false)
	off := addr.Offset()
	if off+8 <= PageSize {
		return binary.LittleEndian.Uint64(as.view(vpn)[off:])
	}
	var b [8]byte
	as.Read(p, addr, b[:])
	return binary.LittleEndian.Uint64(b[:])
}

// WriteUint64 writes a little-endian 64-bit word.
func (as *AddressSpace) WriteUint64(p *sim.Proc, addr Addr, v uint64) {
	vpn := addr.VPN()
	as.ensure(p, vpn, true)
	off := addr.Offset()
	if off+8 <= PageSize {
		binary.LittleEndian.PutUint64(as.frame(vpn)[off:], v)
		if as.Snoop != nil {
			as.Snoop(addr, 8)
		}
		return
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	as.Write(p, addr, b[:])
}

// DMARead copies n bytes at addr into buf without protection checks or
// snooping: the path taken by the NIC's outgoing DMA engine.
func (as *AddressSpace) DMARead(addr Addr, buf []byte) {
	for len(buf) > 0 {
		vpn := addr.VPN()
		as.check(vpn)
		n := copy(buf, as.view(vpn)[addr.Offset():])
		buf = buf[n:]
		addr += Addr(n)
	}
}

// DMAWrite copies buf to addr without protection checks or snooping:
// the path taken by the NIC's incoming DMA engine. (The real snoop
// hardware sees these bus transactions too, but SHRIMP never AU-binds
// receive-buffer pages, so the distinction is unobservable; we document
// rather than model it.)
func (as *AddressSpace) DMAWrite(addr Addr, buf []byte) {
	for len(buf) > 0 {
		vpn := addr.VPN()
		as.check(vpn)
		n := copy(as.frame(vpn)[addr.Offset():], buf)
		buf = buf[n:]
		addr += Addr(n)
	}
}
