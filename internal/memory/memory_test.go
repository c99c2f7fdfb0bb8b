package memory

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/tz"
)

func testPlatform(t *testing.T) *Platform {
	t.Helper()
	p, err := NewPlatform(DefaultLayout())
	if err != nil {
		t.Fatalf("NewPlatform: %v", err)
	}
	return p
}

func TestPhysMemReadWriteRoundTrip(t *testing.T) {
	p := testPlatform(t)
	addr := p.Layout.DRAMBase + 0x100
	want := []byte("hello, peripheral world")
	if err := p.Mem.WriteAt(tz.WorldNormal, addr, want); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	got := make([]byte, len(want))
	if err := p.Mem.ReadAt(tz.WorldNormal, addr, got); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("round trip = %q, want %q", got, want)
	}
}

func TestPhysMemSecureIsolation(t *testing.T) {
	p := testPlatform(t)
	secret := []byte("wake word audio frames")
	addr := p.Layout.SecureBase + 0x40

	// Secure world can write and read the carve-out.
	if err := p.Mem.WriteAt(tz.WorldSecure, addr, secret); err != nil {
		t.Fatalf("secure WriteAt: %v", err)
	}
	got := make([]byte, len(secret))
	if err := p.Mem.ReadAt(tz.WorldSecure, addr, got); err != nil {
		t.Fatalf("secure ReadAt: %v", err)
	}
	if !bytes.Equal(got, secret) {
		t.Errorf("secure round trip = %q, want %q", got, secret)
	}

	// Normal world is rejected for both read and write.
	if err := p.Mem.ReadAt(tz.WorldNormal, addr, got); !errors.Is(err, tz.ErrSecurityViolation) {
		t.Errorf("normal ReadAt = %v, want security violation", err)
	}
	if err := p.Mem.WriteAt(tz.WorldNormal, addr, []byte("overwrite")); !errors.Is(err, tz.ErrSecurityViolation) {
		t.Errorf("normal WriteAt = %v, want security violation", err)
	}
	// And the rejected write must not have modified memory.
	check := make([]byte, len(secret))
	if err := p.Mem.ReadAt(tz.WorldSecure, addr, check); err != nil {
		t.Fatalf("verify ReadAt: %v", err)
	}
	if !bytes.Equal(check, secret) {
		t.Error("rejected normal-world write corrupted secure memory")
	}
}

func TestPhysMemSecureWorldReadsNormalRAM(t *testing.T) {
	p := testPlatform(t)
	addr := p.Layout.DRAMBase + 0x2000
	if err := p.Mem.WriteAt(tz.WorldNormal, addr, []byte{1, 2, 3}); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	got := make([]byte, 3)
	if err := p.Mem.ReadAt(tz.WorldSecure, addr, got); err != nil {
		t.Errorf("secure world should read non-secure RAM: %v", err)
	}
}

func TestPhysMemOutOfRange(t *testing.T) {
	p := testPlatform(t)
	end := p.Layout.DRAMBase + p.Layout.TotalSize()
	buf := make([]byte, 8)
	if err := p.Mem.ReadAt(tz.WorldNormal, end-4, buf); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("read past end = %v, want ErrOutOfRange", err)
	}
	if err := p.Mem.ReadAt(tz.WorldNormal, p.Layout.DRAMBase-16, buf); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("read before base = %v, want ErrOutOfRange", err)
	}
	if err := p.Mem.WriteAt(tz.WorldNormal, ^uint64(0)-2, buf); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("wrapping write = %v, want ErrOutOfRange", err)
	}
}

func TestPhysMemZero(t *testing.T) {
	p := testPlatform(t)
	addr := p.Layout.SecureBase + 0x80
	if err := p.Mem.WriteAt(tz.WorldSecure, addr, []byte{0xff, 0xff, 0xff, 0xff}); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	if err := p.Mem.Zero(tz.WorldSecure, addr, 4); err != nil {
		t.Fatalf("Zero: %v", err)
	}
	got := make([]byte, 4)
	if err := p.Mem.ReadAt(tz.WorldSecure, addr, got); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	if !bytes.Equal(got, []byte{0, 0, 0, 0}) {
		t.Errorf("Zero left %v", got)
	}
	// Normal world cannot zero secure memory (that would be a DoS primitive).
	if err := p.Mem.Zero(tz.WorldNormal, addr, 4); !errors.Is(err, tz.ErrSecurityViolation) {
		t.Errorf("normal Zero of secure ram = %v, want violation", err)
	}
}

func TestHeapAllocFree(t *testing.T) {
	h := NewHeap("t", 0x1000, 0x1000, 16)
	a, err := h.Alloc(100)
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	if a%16 != 0 {
		t.Errorf("alloc %#x not aligned", a)
	}
	b, err := h.Alloc(200)
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	if a == b {
		t.Error("two allocations share an address")
	}
	if err := h.Free(a); err != nil {
		t.Errorf("Free: %v", err)
	}
	if err := h.Free(b); err != nil {
		t.Errorf("Free: %v", err)
	}
	st := h.Stats()
	if st.Used != 0 {
		t.Errorf("Used = %d after freeing all, want 0", st.Used)
	}
	if st.Allocs != 2 || st.Frees != 2 {
		t.Errorf("Allocs/Frees = %d/%d, want 2/2", st.Allocs, st.Frees)
	}
}

func TestHeapExhaustion(t *testing.T) {
	h := NewHeap("small", 0, 256, 16)
	if _, err := h.Alloc(200); err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	if _, err := h.Alloc(200); !errors.Is(err, ErrOutOfSecureMemory) {
		t.Errorf("over-alloc = %v, want ErrOutOfSecureMemory", err)
	}
	if st := h.Stats(); st.Failures != 1 {
		t.Errorf("Failures = %d, want 1", st.Failures)
	}
}

func TestHeapBadFree(t *testing.T) {
	h := NewHeap("t", 0, 1024, 16)
	if err := h.Free(0x40); !errors.Is(err, ErrBadFree) {
		t.Errorf("Free of unallocated = %v, want ErrBadFree", err)
	}
	a, err := h.Alloc(10)
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	if err := h.Free(a); err != nil {
		t.Fatalf("Free: %v", err)
	}
	if err := h.Free(a); !errors.Is(err, ErrBadFree) {
		t.Errorf("double Free = %v, want ErrBadFree", err)
	}
}

func TestHeapCoalescingAllowsFullReuse(t *testing.T) {
	h := NewHeap("t", 0, 1024, 16)
	var addrs []uint64
	for i := 0; i < 4; i++ {
		a, err := h.Alloc(256)
		if err != nil {
			t.Fatalf("Alloc %d: %v", i, err)
		}
		addrs = append(addrs, a)
	}
	// Free out of order; holes must coalesce back into one block.
	for _, i := range []int{2, 0, 3, 1} {
		if err := h.Free(addrs[i]); err != nil {
			t.Fatalf("Free: %v", err)
		}
	}
	if _, err := h.Alloc(1024); err != nil {
		t.Errorf("full-size alloc after coalescing failed: %v", err)
	}
}

func TestHeapHighWater(t *testing.T) {
	h := NewHeap("t", 0, 4096, 16)
	a, _ := h.Alloc(1024)
	b, _ := h.Alloc(1024)
	_ = h.Free(a)
	_ = h.Free(b)
	if st := h.Stats(); st.HighWater != 2048 {
		t.Errorf("HighWater = %d, want 2048", st.HighWater)
	}
}

// Property: whatever sequence of allocs/frees happens, allocations never
// overlap and never leave the managed range.
func TestHeapNoOverlapProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		h := NewHeap("prop", 0x1_0000, 1<<16, 16)
		type alloc struct{ addr, size uint64 }
		var live []alloc
		for i, s := range sizes {
			n := uint64(s%2048) + 1
			a, err := h.Alloc(n)
			if err != nil {
				// Exhaustion is fine; free one and continue.
				if len(live) > 0 {
					_ = h.Free(live[0].addr)
					live = live[1:]
				}
				continue
			}
			if a < 0x1_0000 || a+n > 0x1_0000+1<<16 {
				return false
			}
			for _, l := range live {
				if a < l.addr+l.size && l.addr < a+n {
					return false // overlap
				}
			}
			live = append(live, alloc{a, alignUp(n, 16)})
			if i%3 == 2 && len(live) > 1 {
				_ = h.Free(live[1].addr)
				live = append(live[:1], live[2:]...)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDefaultLayoutRegions(t *testing.T) {
	l := DefaultLayout()
	regions := l.Regions()
	if len(regions) != 2 {
		t.Fatalf("Regions() returned %d regions, want 2", len(regions))
	}
	if regions[0].Attr != tz.AttrNonSecure || regions[1].Attr != tz.AttrSecureOnly {
		t.Error("region attributes wrong")
	}
	if regions[0].Overlaps(regions[1]) {
		t.Error("dram and tzdram overlap")
	}
	if l.TotalSize() != l.DRAMSize+l.SecureSize {
		t.Error("TotalSize inconsistent")
	}
}

func TestNewPlatformHeapsInsideRegions(t *testing.T) {
	p := testPlatform(t)
	// Secure heap allocations must land in the secure region.
	a, err := p.SecureHeap.Alloc(4096)
	if err != nil {
		t.Fatalf("SecureHeap.Alloc: %v", err)
	}
	if err := p.ASC.Check(tz.WorldSecure, a, 4096); err != nil {
		t.Errorf("secure alloc not accessible to secure world: %v", err)
	}
	if err := p.ASC.Check(tz.WorldNormal, a, 4096); !errors.Is(err, tz.ErrSecurityViolation) {
		t.Errorf("secure alloc accessible to normal world: %v", err)
	}
	// DMA heap allocations must be in non-secure DRAM.
	d, err := p.DMAHeap.Alloc(4096)
	if err != nil {
		t.Fatalf("DMAHeap.Alloc: %v", err)
	}
	if err := p.ASC.Check(tz.WorldNormal, d, 4096); err != nil {
		t.Errorf("dma alloc not accessible to normal world: %v", err)
	}
}

func TestPhysMemSparsePaging(t *testing.T) {
	p := testPlatform(t)
	if p.Mem.ResidentPages() != 0 {
		t.Fatalf("fresh memory has %d resident pages", p.Mem.ResidentPages())
	}
	// Reading untouched memory returns zeros without materializing pages.
	buf := make([]byte, 128)
	buf[0] = 0xff
	if err := p.Mem.ReadAt(tz.WorldNormal, p.Layout.DRAMBase+1<<20, buf); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("untouched byte %d = %d", i, b)
		}
	}
	if p.Mem.ResidentPages() != 0 {
		t.Errorf("read materialized %d pages", p.Mem.ResidentPages())
	}
	// A write materializes exactly the pages it spans.
	if err := p.Mem.WriteAt(tz.WorldNormal, p.Layout.DRAMBase+pageSize-4, make([]byte, 8)); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	if got := p.Mem.ResidentPages(); got != 2 {
		t.Errorf("straddling write resident pages = %d, want 2", got)
	}
}

func TestPhysMemPageGranularity(t *testing.T) {
	if pageSize != 4096 {
		t.Fatalf("pageSize = %d, want the 4 KiB ARMv8 granule", pageSize)
	}
	p := testPlatform(t)
	page := p.Layout.DRAMBase + 3*pageSize
	// A read of a whole page, and of bytes on both sides of it, allocates
	// nothing.
	if err := p.Mem.ReadAt(tz.WorldNormal, page-1, make([]byte, pageSize+2)); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	if got := p.Mem.ResidentPages(); got != 0 {
		t.Fatalf("read materialized %d pages", got)
	}
	// One byte materializes exactly one page; more writes inside the same
	// page materialize nothing further.
	for _, addr := range []uint64{page + 17, page, page + pageSize - 1} {
		if err := p.Mem.WriteAt(tz.WorldNormal, addr, []byte{0xa5}); err != nil {
			t.Fatalf("WriteAt(%#x): %v", addr, err)
		}
		if got := p.Mem.ResidentPages(); got != 1 {
			t.Fatalf("after 1-byte write at %#x: %d resident pages, want 1", addr, got)
		}
	}
	// The next byte starts the next page.
	if err := p.Mem.WriteAt(tz.WorldNormal, page+pageSize, []byte{0x5a}); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	if got := p.Mem.ResidentPages(); got != 2 {
		t.Errorf("write past the page end: %d resident pages, want 2", got)
	}
}

func TestPhysMemCrossPageRoundTrip(t *testing.T) {
	p := testPlatform(t)
	// A write spanning three pages must read back intact.
	addr := p.Layout.DRAMBase + pageSize - 100
	want := make([]byte, 3*200+pageSize)
	for i := range want {
		want[i] = byte(i * 7)
	}
	if err := p.Mem.WriteAt(tz.WorldNormal, addr, want); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	got := make([]byte, len(want))
	if err := p.Mem.ReadAt(tz.WorldNormal, addr, got); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("cross-page round trip corrupted data")
	}
	// Zero a sub-range crossing the page boundary.
	if err := p.Mem.Zero(tz.WorldNormal, addr+50, pageSize); err != nil {
		t.Fatalf("Zero: %v", err)
	}
	if err := p.Mem.ReadAt(tz.WorldNormal, addr, got); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	for i := 50; i < 50+pageSize; i++ {
		if got[i] != 0 {
			t.Fatalf("byte %d not zeroed", i)
		}
	}
	if got[49] != want[49] || got[50+pageSize] != want[50+pageSize] {
		t.Error("Zero clobbered neighbouring bytes")
	}
}

func TestAlignUp(t *testing.T) {
	tests := []struct{ v, a, want uint64 }{
		{0, 16, 0},
		{1, 16, 16},
		{16, 16, 16},
		{17, 16, 32},
		{100, 64, 128},
	}
	for _, tt := range tests {
		if got := alignUp(tt.v, tt.a); got != tt.want {
			t.Errorf("alignUp(%d,%d) = %d, want %d", tt.v, tt.a, got, tt.want)
		}
	}
}
