// Package memory models the platform's physical memory: a flat byte-
// addressable space whose accesses are checked by the TrustZone address
// space controller, plus an allocator for the (small) secure-RAM carve-out
// that OP-TEE hands to trusted applications.
//
// The secure allocator's fixed capacity reproduces the paper's §V
// limitation: "TEE technologies like TrustZone provide relatively small
// memory resources for applications".
package memory

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/tz"
)

// Errors returned by the memory subsystem.
var (
	// ErrOutOfRange is returned when an access falls outside physical memory.
	ErrOutOfRange = errors.New("memory: access out of physical range")
	// ErrOutOfSecureMemory is returned when the secure heap is exhausted.
	ErrOutOfSecureMemory = errors.New("memory: out of secure memory")
	// ErrBadFree is returned when freeing an address that was not allocated.
	ErrBadFree = errors.New("memory: free of unallocated address")
)

// AccessChecker validates a [addr, addr+n) access from a world.
// *tz.TZASC implements it.
type AccessChecker interface {
	Check(w tz.World, addr, n uint64) error
}

var _ AccessChecker = (*tz.TZASC)(nil)

// pageBits sizes the sparse backing pages: 4 KiB, the ARMv8 translation
// granule. Most devices touch only a few KiB of their modelled RAM, so a
// small page keeps the materialized footprint close to what was written.
const pageBits = 12

// pageSize is the byte length of one backing page.
const pageSize = 1 << pageBits

// PhysMem is the flat physical memory of the platform. All loads and stores
// pass through the access checker, so a normal-world caller cannot touch
// secure-only regions. Backing storage is paged sparsely: untouched memory
// reads as zero without ever being allocated, so building a platform is
// cheap regardless of its modelled RAM size. Pages are never pooled or
// recycled: a page is a fresh zeroed allocation on its first write, so no
// PhysMem can observe bytes another one wrote.
type PhysMem struct {
	checker AccessChecker
	base    uint64
	size    uint64

	mu    sync.RWMutex
	pages map[uint64][]byte
}

// NewPhysMem creates size bytes of physical memory starting at base.
func NewPhysMem(base, size uint64, checker AccessChecker) *PhysMem {
	return &PhysMem{
		checker: checker,
		base:    base,
		size:    size,
		pages:   make(map[uint64][]byte),
	}
}

// Base returns the first physical address.
func (p *PhysMem) Base() uint64 { return p.base }

// Size returns the memory size in bytes.
func (p *PhysMem) Size() uint64 { return p.size }

func (p *PhysMem) bounds(addr uint64, n int) error {
	if n < 0 {
		return fmt.Errorf("%w: negative length %d", ErrOutOfRange, n)
	}
	end := addr + uint64(n)
	if addr < p.base || end < addr || end > p.base+p.size {
		return fmt.Errorf("%w: [%#x,+%d)", ErrOutOfRange, addr, n)
	}
	return nil
}

// forEachPage walks the page spans covering [addr, addr+n), handing the
// callback the page index and the intra-page byte range.
func (p *PhysMem) forEachPage(addr uint64, n int, fn func(page uint64, off, length int)) {
	rel := addr - p.base
	remaining := n
	for remaining > 0 {
		page := rel >> pageBits
		off := int(rel & (pageSize - 1))
		length := pageSize - off
		if length > remaining {
			length = remaining
		}
		fn(page, off, length)
		rel += uint64(length)
		remaining -= length
	}
}

// Check validates an access of n bytes at addr on behalf of world w —
// the bounds and the access checker's verdict every load and store
// applies — without touching memory.
func (p *PhysMem) Check(w tz.World, addr uint64, n int) error {
	if err := p.bounds(addr, n); err != nil {
		return err
	}
	return p.checker.Check(w, addr, uint64(n))
}

// ReadAt copies len(buf) bytes at addr into buf on behalf of world w.
func (p *PhysMem) ReadAt(w tz.World, addr uint64, buf []byte) error {
	if err := p.Check(w, addr, len(buf)); err != nil {
		return err
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	pos := 0
	p.forEachPage(addr, len(buf), func(page uint64, off, length int) {
		if data, ok := p.pages[page]; ok {
			copy(buf[pos:pos+length], data[off:])
		} else {
			clear(buf[pos : pos+length])
		}
		pos += length
	})
	return nil
}

// WriteAt copies buf into memory at addr on behalf of world w.
func (p *PhysMem) WriteAt(w tz.World, addr uint64, buf []byte) error {
	if err := p.Check(w, addr, len(buf)); err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	pos := 0
	p.forEachPage(addr, len(buf), func(page uint64, off, length int) {
		data, ok := p.pages[page]
		if !ok {
			data = make([]byte, pageSize)
			p.pages[page] = data
		}
		copy(data[off:], buf[pos:pos+length])
		pos += length
	})
	return nil
}

// Zero clears n bytes at addr on behalf of world w. OP-TEE zeroes secure
// buffers before releasing them; the kernel does the same for page reuse.
func (p *PhysMem) Zero(w tz.World, addr uint64, n int) error {
	if err := p.Check(w, addr, n); err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.forEachPage(addr, n, func(page uint64, off, length int) {
		if data, ok := p.pages[page]; ok {
			clear(data[off : off+length])
		}
	})
	return nil
}

// ResidentPages reports how many backing pages have been materialized
// (observability for tests and memory-footprint accounting).
func (p *PhysMem) ResidentPages() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return len(p.pages)
}

// block is one allocation or free hole inside the heap.
type block struct {
	addr uint64
	size uint64
}

// HeapStats describes allocator occupancy.
type HeapStats struct {
	Capacity  uint64
	Used      uint64
	Allocs    uint64
	Frees     uint64
	Failures  uint64 // allocations rejected for lack of space
	HighWater uint64 // maximum Used ever observed
}

// Heap is a first-fit allocator over a fixed address range. It is used for
// the secure-RAM carve-out (OP-TEE's TA heap) and for normal-world DMA
// pools; the capacity limit is the TEE memory constraint from the paper.
type Heap struct {
	name  string
	base  uint64
	size  uint64
	align uint64

	mu     sync.Mutex
	free   []block // sorted by addr, coalesced
	allocs map[uint64]uint64
	stats  HeapStats
}

// NewHeap creates an allocator managing [base, base+size) with the given
// alignment (0 means 16-byte default).
func NewHeap(name string, base, size, align uint64) *Heap {
	if align == 0 {
		align = 16
	}
	h := &Heap{
		name:   name,
		base:   base,
		size:   size,
		align:  align,
		free:   []block{{addr: base, size: size}},
		allocs: make(map[uint64]uint64),
	}
	h.stats.Capacity = size
	return h
}

// Name returns the heap's label.
func (h *Heap) Name() string { return h.name }

func alignUp(v, a uint64) uint64 {
	return (v + a - 1) / a * a
}

// Alloc reserves n bytes and returns the physical address.
func (h *Heap) Alloc(n uint64) (uint64, error) {
	if n == 0 {
		n = 1
	}
	n = alignUp(n, h.align)
	h.mu.Lock()
	defer h.mu.Unlock()
	for i, b := range h.free {
		start := alignUp(b.addr, h.align)
		pad := start - b.addr
		if b.size < pad+n {
			continue
		}
		// Carve [start, start+n) out of the hole.
		var repl []block
		if pad > 0 {
			repl = append(repl, block{addr: b.addr, size: pad})
		}
		if rest := b.size - pad - n; rest > 0 {
			repl = append(repl, block{addr: start + n, size: rest})
		}
		h.free = append(h.free[:i], append(repl, h.free[i+1:]...)...)
		h.allocs[start] = n
		h.stats.Used += n
		h.stats.Allocs++
		if h.stats.Used > h.stats.HighWater {
			h.stats.HighWater = h.stats.Used
		}
		return start, nil
	}
	h.stats.Failures++
	return 0, fmt.Errorf("%w: heap %q: need %d, used %d of %d",
		ErrOutOfSecureMemory, h.name, n, h.stats.Used, h.size)
}

// Free releases an allocation made by Alloc.
func (h *Heap) Free(addr uint64) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	n, ok := h.allocs[addr]
	if !ok {
		return fmt.Errorf("%w: %#x in heap %q", ErrBadFree, addr, h.name)
	}
	delete(h.allocs, addr)
	h.stats.Used -= n
	h.stats.Frees++
	h.free = append(h.free, block{addr: addr, size: n})
	sort.Slice(h.free, func(i, j int) bool { return h.free[i].addr < h.free[j].addr })
	// Coalesce adjacent holes.
	out := h.free[:1]
	for _, b := range h.free[1:] {
		last := &out[len(out)-1]
		if last.addr+last.size == b.addr {
			last.size += b.size
		} else {
			out = append(out, b)
		}
	}
	h.free = out
	return nil
}

// Stats returns a snapshot of heap occupancy.
func (h *Heap) Stats() HeapStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.stats
}

// Layout is the standard platform memory map used across experiments:
// a large non-secure DRAM bank and a small TrustZone-carved secure bank,
// mirroring a Jetson-class device running OP-TEE.
type Layout struct {
	DRAMBase   uint64
	DRAMSize   uint64
	SecureBase uint64
	SecureSize uint64
}

// DefaultLayout returns the platform memory map: 64 MiB of modelled DRAM
// (enough for the workloads while keeping the simulation light) and a
// 16 MiB secure carve-out, matching OP-TEE's default TZDRAM scale.
func DefaultLayout() Layout {
	return Layout{
		DRAMBase:   0x8000_0000,
		DRAMSize:   64 << 20,
		SecureBase: 0x8000_0000 + 64<<20,
		SecureSize: 16 << 20,
	}
}

// Regions returns the TZASC region set for the layout.
func (l Layout) Regions() []tz.Region {
	return []tz.Region{
		{Name: "dram", Base: l.DRAMBase, Size: l.DRAMSize, Attr: tz.AttrNonSecure},
		{Name: "tzdram", Base: l.SecureBase, Size: l.SecureSize, Attr: tz.AttrSecureOnly},
	}
}

// TotalSize returns the total physical memory size.
func (l Layout) TotalSize() uint64 { return l.DRAMSize + l.SecureSize }

// Platform bundles the memory-system pieces every experiment needs.
type Platform struct {
	Layout Layout
	ASC    *tz.TZASC
	Mem    *PhysMem
	// SecureHeap allocates TA/PTA buffers inside the secure carve-out.
	SecureHeap *Heap
	// DMAHeap allocates normal-world DMA buffers inside DRAM.
	DMAHeap *Heap
}

// NewPlatform builds memory, TZASC and heaps for the layout.
func NewPlatform(l Layout) (*Platform, error) {
	asc, err := tz.NewTZASC(l.Regions())
	if err != nil {
		return nil, fmt.Errorf("platform tzasc: %w", err)
	}
	mem := NewPhysMem(l.DRAMBase, l.TotalSize(), asc)
	return &Platform{
		Layout:     l,
		ASC:        asc,
		Mem:        mem,
		SecureHeap: NewHeap("tzdram", l.SecureBase, l.SecureSize, 64),
		DMAHeap:    NewHeap("dma", l.DRAMBase+32<<20, 16<<20, 64),
	}, nil
}
