// Package kernel is a miniature Linux-like kernel for the normal world:
// a character-device registry with cost-accounted system calls, an
// interrupt layer, a dmesg ring, and — because the paper's threat model
// (§I) includes "privileged software like the operating system can be
// compromised" — a Snooper that lets a hostile kernel read any normal-world
// memory it likes. The TrustZone address space controller, not kernel good
// manners, is what stops the snooper at the secure carve-out boundary.
package kernel

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/memory"
	"repro/internal/tz"
)

// Errors returned by the kernel.
var (
	// ErrNoSuchDevice is returned when opening an unregistered device node.
	ErrNoSuchDevice = errors.New("kernel: no such device")
	// ErrBadFD is returned for operations on closed or invalid descriptors.
	ErrBadFD = errors.New("kernel: bad file descriptor")
	// ErrNoIRQHandler is returned when raising an unclaimed IRQ line.
	ErrNoIRQHandler = errors.New("kernel: no handler for irq")
)

// CharDevice is the miniature character-device operations vector
// (file_operations in Linux terms).
type CharDevice interface {
	// DevOpen prepares the device for a new descriptor.
	DevOpen() error
	// DevRead fills buf and returns the number of bytes read.
	DevRead(buf []byte) (int, error)
	// DevIoctl performs a device-specific control operation.
	DevIoctl(cmd uint32, arg uint64) (uint64, error)
	// DevClose releases the descriptor.
	DevClose() error
}

// SyscallStats counts cost-accounted kernel entries.
type SyscallStats struct {
	Opens  uint64
	Reads  uint64
	Ioctls uint64
	Closes uint64
	IRQs   uint64
}

// Kernel is the normal-world OS instance.
type Kernel struct {
	clock *tz.Clock
	cost  tz.CostModel
	mem   *memory.PhysMem

	mu      sync.Mutex
	devices map[string]CharDevice
	irqs    map[int]func()
	files   map[int]*file
	nextFD  int
	dmesg   []string
	stats   SyscallStats
}

type file struct {
	path string
	dev  CharDevice
}

// New creates a kernel. mem may be nil if no snooping is needed.
func New(clock *tz.Clock, cost tz.CostModel, mem *memory.PhysMem) *Kernel {
	return &Kernel{
		clock:   clock,
		cost:    cost,
		mem:     mem,
		devices: make(map[string]CharDevice),
		irqs:    make(map[int]func()),
		files:   make(map[int]*file),
		nextFD:  3, // 0..2 reserved, as tradition demands
	}
}

// RegisterDevice binds a device node path (e.g. "/dev/i2s0") to a driver.
func (k *Kernel) RegisterDevice(path string, dev CharDevice) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.devices[path] = dev
	k.logfLocked("registered device %s", path)
}

// UnregisterDevice removes a device node.
func (k *Kernel) UnregisterDevice(path string) {
	k.mu.Lock()
	defer k.mu.Unlock()
	delete(k.devices, path)
	k.logfLocked("unregistered device %s", path)
}

// Devices lists registered device node paths (unordered).
func (k *Kernel) Devices() []string {
	k.mu.Lock()
	defer k.mu.Unlock()
	out := make([]string, 0, len(k.devices))
	for p := range k.devices {
		out = append(out, p)
	}
	return out
}

// Open performs the open(2) syscall and returns a descriptor.
func (k *Kernel) Open(path string) (int, error) {
	k.clock.Advance(k.cost.Syscall)
	k.mu.Lock()
	dev, ok := k.devices[path]
	if !ok {
		k.mu.Unlock()
		return -1, fmt.Errorf("%w: %s", ErrNoSuchDevice, path)
	}
	k.stats.Opens++
	k.mu.Unlock()
	if err := dev.DevOpen(); err != nil {
		return -1, fmt.Errorf("open %s: %w", path, err)
	}
	k.mu.Lock()
	fd := k.nextFD
	k.nextFD++
	k.files[fd] = &file{path: path, dev: dev}
	k.mu.Unlock()
	return fd, nil
}

func (k *Kernel) lookup(fd int) (*file, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	f, ok := k.files[fd]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrBadFD, fd)
	}
	return f, nil
}

// Read performs the read(2) syscall.
func (k *Kernel) Read(fd int, buf []byte) (int, error) {
	k.clock.Advance(k.cost.Syscall)
	f, err := k.lookup(fd)
	if err != nil {
		return 0, err
	}
	k.mu.Lock()
	k.stats.Reads++
	k.mu.Unlock()
	n, err := f.dev.DevRead(buf)
	if err != nil {
		return n, fmt.Errorf("read %s: %w", f.path, err)
	}
	// Copy-to-user cost.
	k.clock.Advance(tz.Cycles(n) * k.cost.CopyPerByte)
	return n, nil
}

// Ioctl performs the ioctl(2) syscall.
func (k *Kernel) Ioctl(fd int, cmd uint32, arg uint64) (uint64, error) {
	k.clock.Advance(k.cost.Syscall)
	f, err := k.lookup(fd)
	if err != nil {
		return 0, err
	}
	k.mu.Lock()
	k.stats.Ioctls++
	k.mu.Unlock()
	res, err := f.dev.DevIoctl(cmd, arg)
	if err != nil {
		return res, fmt.Errorf("ioctl %s: %w", f.path, err)
	}
	return res, nil
}

// Close performs the close(2) syscall.
func (k *Kernel) Close(fd int) error {
	k.clock.Advance(k.cost.Syscall)
	k.mu.Lock()
	f, ok := k.files[fd]
	if ok {
		delete(k.files, fd)
		k.stats.Closes++
	}
	k.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %d", ErrBadFD, fd)
	}
	if err := f.dev.DevClose(); err != nil {
		return fmt.Errorf("close %s: %w", f.path, err)
	}
	return nil
}

// RegisterIRQ claims an interrupt line.
func (k *Kernel) RegisterIRQ(line int, handler func()) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.irqs[line] = handler
}

// RaiseIRQ delivers an interrupt to its registered handler, charging
// interrupt-entry cost.
func (k *Kernel) RaiseIRQ(line int) error {
	k.clock.Advance(k.cost.InterruptEntry)
	k.mu.Lock()
	h, ok := k.irqs[line]
	if ok {
		k.stats.IRQs++
	}
	k.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoIRQHandler, line)
	}
	h()
	return nil
}

// Logf appends a formatted line to the dmesg ring.
func (k *Kernel) Logf(format string, args ...any) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.logfLocked(format, args...)
}

func (k *Kernel) logfLocked(format string, args ...any) {
	const ringMax = 1024
	k.dmesg = append(k.dmesg, fmt.Sprintf("[%12d] ", uint64(k.clock.Now()))+fmt.Sprintf(format, args...))
	if len(k.dmesg) > ringMax {
		k.dmesg = k.dmesg[len(k.dmesg)-ringMax:]
	}
}

// Dmesg returns a copy of the kernel log.
func (k *Kernel) Dmesg() []string {
	k.mu.Lock()
	defer k.mu.Unlock()
	return append([]string(nil), k.dmesg...)
}

// Stats returns a snapshot of syscall counters.
func (k *Kernel) Stats() SyscallStats {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.stats
}

// SnoopResult reports one buffer-snooping attempt by a compromised kernel.
type SnoopResult struct {
	Addr    uint64
	Want    int
	Got     []byte
	Blocked bool // true when the TZASC rejected the read
}

// Snooper models the paper's compromised-OS adversary: privileged code
// that reads arbitrary physical memory through the kernel's linear map.
// Its reads carry the normal-world identity, so the TZASC — and nothing
// else — decides what it can see.
type Snooper struct {
	mem *memory.PhysMem
}

// NewSnooper creates the adversary over the platform memory.
func NewSnooper(mem *memory.PhysMem) *Snooper {
	return &Snooper{mem: mem}
}

// Capture attempts to read n bytes at addr. The access is checked before
// the read buffer is allocated, so a denied snoop allocates nothing.
func (s *Snooper) Capture(addr uint64, n int) SnoopResult {
	blocked := SnoopResult{Addr: addr, Want: n, Blocked: true}
	if s.mem.Check(tz.WorldNormal, addr, n) != nil {
		return blocked
	}
	buf := make([]byte, n)
	if s.mem.ReadAt(tz.WorldNormal, addr, buf) != nil {
		return blocked
	}
	return SnoopResult{Addr: addr, Want: n, Got: buf}
}

// CaptureAll sweeps a list of candidate buffers (e.g. every DMA buffer the
// kernel ever configured) and returns the per-buffer outcomes.
func (s *Snooper) CaptureAll(bufs []struct {
	Addr uint64
	Size int
}) []SnoopResult {
	out := make([]SnoopResult, 0, len(bufs))
	for _, b := range bufs {
		out = append(out, s.Capture(b.Addr, b.Size))
	}
	return out
}
