package memory

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"
)

// framed reports which pages of as hold a frame.
func framed(as *AddressSpace) []bool {
	out := make([]bool, len(as.pages))
	for i := range as.pages {
		out[i] = as.pages[i].data != nil
	}
	return out
}

func poolLen() int {
	framePool.Lock()
	defer framePool.Unlock()
	return len(framePool.free)
}

func TestUnwrittenPageReadsZeroWithoutFrame(t *testing.T) {
	as := NewAddressSpace()
	base := as.Alloc(3)
	buf := bytes.Repeat([]byte{0xee}, 64)
	as.Read(nil, base+8, buf)
	if !bytes.Equal(buf, make([]byte, 64)) {
		t.Fatalf("Read of unwritten page = %x", buf)
	}
	if v := as.ReadUint32(nil, base+PageSize+4); v != 0 {
		t.Fatalf("ReadUint32 = %#x", v)
	}
	if v := as.ReadUint64(nil, base+2*PageSize+16); v != 0 {
		t.Fatalf("ReadUint64 = %#x", v)
	}
	dma := bytes.Repeat([]byte{0xee}, 32)
	as.DMARead(base+PageSize, dma)
	if !bytes.Equal(dma, make([]byte, 32)) {
		t.Fatalf("DMARead of unwritten page = %x", dma)
	}
	cross := bytes.Repeat([]byte{0xee}, 100)
	as.Read(nil, base+PageSize-50, cross)
	if !bytes.Equal(cross, make([]byte, 100)) {
		t.Fatalf("cross-page Read of unwritten pages = %x", cross)
	}
	if v := as.ReadUint64(nil, base+2*PageSize-4); v != 0 {
		t.Fatalf("cross-page ReadUint64 = %#x", v)
	}
	for vpn, f := range framed(as) {
		if f {
			t.Errorf("page %d materialized by a read", vpn)
		}
	}
}

func TestFirstWriteMaterializesThatPage(t *testing.T) {
	writes := map[string]func(as *AddressSpace, addr Addr){
		"Write":       func(as *AddressSpace, a Addr) { as.Write(nil, a, []byte{1, 2, 3}) },
		"WriteUint32": func(as *AddressSpace, a Addr) { as.WriteUint32(nil, a, 7) },
		"WriteUint64": func(as *AddressSpace, a Addr) { as.WriteUint64(nil, a, 7) },
		"DMAWrite":    func(as *AddressSpace, a Addr) { as.DMAWrite(a, []byte{1, 2, 3}) },
		"PageData":    func(as *AddressSpace, a Addr) { as.PageData(a.VPN()) },
	}
	for name, write := range writes {
		t.Run(name, func(t *testing.T) {
			as := NewAddressSpace()
			base := as.Alloc(3)
			mid := base + PageSize
			write(as, mid+8)
			want := []bool{false, false, true, false}
			if got := framed(as); !reflect.DeepEqual(got, want) {
				t.Fatalf("framed pages = %v, want %v", got, want)
			}
		})
	}
}

func TestUnwrittenReadAllocatesNothing(t *testing.T) {
	as := NewAddressSpace()
	base := as.Alloc(2)
	buf := make([]byte, 64)
	allocs := testing.AllocsPerRun(100, func() {
		as.Read(nil, base+PageSize-32, buf)
		as.DMARead(base, buf)
		_ = as.ReadUint32(nil, base+4)
		_ = as.ReadUint64(nil, base+PageSize+8)
	})
	if allocs != 0 {
		t.Fatalf("reads of unwritten pages allocate %v times per run", allocs)
	}
	if f := framed(as); f[1] || f[2] {
		t.Fatal("reads materialized a frame")
	}
}

// Alloc costs page metadata, not storage: 64 Ki pages (256 MB mapped)
// must not allocate frames.
func TestAllocCostsMetadataNotStorage(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	as := NewAddressSpace()
	as.Alloc(1 << 16)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(as)
	if d := after.TotalAlloc - before.TotalAlloc; d >= 4<<20 {
		t.Fatalf("Alloc(1<<16) allocated %d bytes, want < 4 MB", d)
	}
}

// Frames on the pool's free list are all-zero: a released space's
// garbage never shows through a new space's pages.
func TestReleasedFramesComeBackZero(t *testing.T) {
	const n = 8
	old := NewAddressSpace()
	base := old.Alloc(n)
	old.Write(nil, base, bytes.Repeat([]byte{0xa5}, n*PageSize))
	old.Release()
	if poolLen() < n {
		t.Fatalf("pool holds %d frames after releasing %d", poolLen(), n)
	}
	as := NewAddressSpace()
	base = as.Alloc(n)
	zero := make([]byte, PageSize)
	for i := 0; i < n; i++ {
		if d := as.PageData(base.VPN() + i); !bytes.Equal(d, zero) {
			t.Fatalf("page %d of a new space is not zero", i)
		}
	}
}

// pageImage is the full observable state of one page.
type pageImage struct {
	mapped bool
	prot   Prot
	framed bool
	data   [PageSize]byte
}

func image(as *AddressSpace) ([]pageImage, Addr) {
	out := make([]pageImage, len(as.pages))
	for i, pg := range as.pages {
		out[i] = pageImage{mapped: pg.mapped, prot: pg.prot, framed: pg.data != nil}
		if pg.data != nil {
			out[i].data = *pg.data
		}
	}
	return out, as.brk
}

func TestRestoreDropsFrameOfPageCleanAtSnapshot(t *testing.T) {
	as := NewAddressSpace()
	base := as.Alloc(2)
	ck := as.BeginSnapshot()
	as.WriteUint32(nil, base+PageSize, 0xdeadbeef)
	ck.Restore()
	if as.pages[base.VPN()+1].data != nil {
		t.Fatal("page clean at the snapshot still holds a frame after Restore")
	}
	if v := as.ReadUint32(nil, base+PageSize); v != 0 {
		t.Fatalf("restored clean page reads %#x", v)
	}
}

func TestRestoreRewindsPageWrittenBeforeSnapshot(t *testing.T) {
	as := NewAddressSpace()
	base := as.Alloc(1)
	as.Write(nil, base+10, []byte("pristine"))
	ck := as.BeginSnapshot()
	as.Write(nil, base+10, []byte("branched"))
	as.PageData(base.VPN())[0] = 0xff
	ck.Restore()
	got := make([]byte, 8)
	as.Read(nil, base+10, got)
	if string(got) != "pristine" {
		t.Fatalf("restored page reads %q", got)
	}
	if b := as.PageData(base.VPN())[0]; b != 0 {
		t.Fatalf("restored page byte 0 = %#x", b)
	}
}

func TestRestoreRecyclesFramesOfPagesAllocatedAfterSnapshot(t *testing.T) {
	as := NewAddressSpace()
	as.Alloc(1)
	ck := as.BeginSnapshot()
	pages, brk := as.Pages(), as.brk
	const k = 5
	extra := as.Alloc(k)
	as.DMAWrite(extra, bytes.Repeat([]byte{1}, k*PageSize))
	pool := poolLen()
	ck.Restore()
	if got := poolLen() - pool; got != k {
		t.Fatalf("Restore returned %d frames to the pool, want %d", got, k)
	}
	if as.Pages() != pages || as.brk != brk {
		t.Fatalf("Restore left %d pages, brk %#x; want %d, %#x", as.Pages(), as.brk, pages, brk)
	}
	// Re-allocating after Restore maps fresh, unwritten pages.
	again := as.Alloc(k)
	if again != extra || as.pages[again.VPN()].data != nil {
		t.Fatal("pages re-allocated after Restore are not fresh")
	}
}

func TestRestoreTwiceIsIdentical(t *testing.T) {
	as := NewAddressSpace()
	base := as.Alloc(4)
	as.Write(nil, base, []byte("kept"))
	as.SetProt(base.VPN()+3, ProtRead)
	ck := as.BeginSnapshot()
	want, wantBrk := image(as)

	branch := func(tag byte) {
		as.Write(nil, base, []byte{tag, tag})
		as.DMAWrite(base+2*PageSize, []byte{tag})
		as.SetProt(base.VPN()+1, ProtNone)
		as.SetProt(base.VPN()+3, ProtReadWrite)
		more := as.Alloc(2)
		as.WriteUint64(nil, more+PageSize, uint64(tag))
	}
	for i, tag := range []byte{0x11, 0x22} {
		branch(tag)
		ck.Restore()
		got, brk := image(as)
		if brk != wantBrk || !reflect.DeepEqual(got, want) {
			t.Fatalf("restore %d: state differs from the snapshot", i+1)
		}
	}
}
