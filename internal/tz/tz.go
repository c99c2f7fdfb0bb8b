// Package tz models an Arm TrustZone machine: the two execution worlds,
// the secure monitor that switches between them (SMC), the TrustZone
// address space controller (TZASC) that carves secure regions out of
// physical memory, and a virtual cycle clock with a calibrated cost model.
//
// The model is deliberately cost-accounted rather than cycle-accurate: every
// architectural event (world switch, SMC dispatch, cache maintenance,
// syscall, byte copy) advances a shared virtual clock by a configurable
// number of cycles. Experiments measure the *relative* cost of crossing the
// normal/secure boundary, which is what the reproduced paper's evaluation
// hinges on.
package tz

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// World identifies a TrustZone execution world.
type World int

const (
	// WorldNormal is the non-secure world (rich OS, untrusted).
	WorldNormal World = iota + 1
	// WorldSecure is the secure world (OP-TEE, trusted).
	WorldSecure
)

// String returns the conventional name of the world.
func (w World) String() string {
	switch w {
	case WorldNormal:
		return "normal"
	case WorldSecure:
		return "secure"
	default:
		return fmt.Sprintf("world(%d)", int(w))
	}
}

// Valid reports whether w is one of the two defined worlds.
func (w World) Valid() bool {
	return w == WorldNormal || w == WorldSecure
}

// Cycles counts virtual CPU cycles.
type Cycles uint64

// FreqHz is the modelled core frequency every device runs at: 1 GHz, so
// one cycle is one nanosecond.
const FreqHz = 1_000_000_000

// Duration converts a cycle count to wall time at the given core frequency.
func (c Cycles) Duration(freqHz uint64) time.Duration {
	if freqHz == 0 {
		return 0
	}
	return time.Duration(uint64(c) * uint64(time.Second) / freqHz)
}

// CostModel holds the cycle costs of architectural events.
//
// Defaults are calibrated to published OP-TEE / TrustZone measurements on
// Armv8 application cores (~1 GHz equivalent, so 1 cycle ~ 1 ns):
// a full SMC world-switch round trip costs tens of microseconds, while a
// null syscall costs well under a microsecond. The exact constants are
// configurable; experiment E1 sweeps them.
type CostModel struct {
	// WorldSwitch is the one-way cost of saving one world's context and
	// restoring the other's (monitor entry/exit included).
	WorldSwitch Cycles
	// SMCDispatch is the cost of decoding the SMC function ID and routing
	// it inside the secure monitor / OP-TEE entry vector.
	SMCDispatch Cycles
	// CacheFlush is the penalty applied when crossing worlds with
	// shared-memory arguments (cache maintenance on the shared range).
	CacheFlush Cycles
	// Syscall is the round-trip cost of a normal-world system call.
	Syscall Cycles
	// CopyPerByte is the per-byte cost of memcpy between buffers.
	CopyPerByte Cycles
	// DMAPerByte is the per-byte cost charged to a DMA engine transfer.
	DMAPerByte Cycles
	// RegAccess is the cost of one MMIO register read or write.
	RegAccess Cycles
	// InterruptEntry is the cost of taking an interrupt to the kernel.
	InterruptEntry Cycles

	// Homomorphic-encryption per-slot costs (the hybrid HE+TEE mode).
	// A "slot" is one packed plaintext value; leveled-HE operations are
	// orders of magnitude more expensive than their cleartext
	// counterparts, and the asymmetry below (encrypt/decrypt dominated
	// by the key-switching-heavy multiply, cheap additions) mirrors the
	// published CKKS/BFV cost profiles the hybrid mode is calibrated
	// against.

	// HEEncryptPerSlot is the per-slot cost of encrypting under the
	// provider's public key (normal world, device side).
	HEEncryptPerSlot Cycles
	// HEDecryptPerSlot is the per-slot cost of decrypting with the
	// sealed secret key (secure world, inside the TA).
	HEDecryptPerSlot Cycles
	// HEMulPerSlot is the per-slot cost of a ciphertext-plaintext
	// multiply (the dominant cost of an encrypted linear layer).
	HEMulPerSlot Cycles
	// HEAddPerSlot is the per-slot cost of a homomorphic addition.
	HEAddPerSlot Cycles
	// HERescalePerSlot is the per-slot cost of rescaling after a
	// multiply (the level-consuming maintenance operation).
	HERescalePerSlot Cycles
}

// DefaultCostModel returns the calibrated default cost model.
func DefaultCostModel() CostModel {
	return CostModel{
		WorldSwitch:    12000, // ~12 us one way -> ~24 us SMC round trip
		SMCDispatch:    1500,
		CacheFlush:     900,
		Syscall:        700, // ~0.7 us round trip
		CopyPerByte:    1,
		DMAPerByte:     1, // DMA runs at bus speed; charged to the engine
		RegAccess:      120,
		InterruptEntry: 400,

		HEEncryptPerSlot: 6000,
		HEDecryptPerSlot: 4000,
		HEMulPerSlot:     2500,
		HEAddPerSlot:     300,
		HERescalePerSlot: 1200,
	}
}

// Clock is a shared virtual cycle clock. It is safe for concurrent use.
type Clock struct {
	mu  sync.Mutex
	now Cycles
}

// NewClock returns a clock starting at cycle zero.
func NewClock() *Clock { return &Clock{} }

// Advance moves the clock forward by n cycles and returns the new time.
func (c *Clock) Advance(n Cycles) Cycles {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now += n
	return c.now
}

// Now returns the current cycle count.
func (c *Clock) Now() Cycles {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Errors returned by the TZASC and monitor.
var (
	// ErrSecurityViolation is returned when a world accesses memory its
	// security attribute forbids. Real hardware raises an external abort.
	ErrSecurityViolation = errors.New("tzasc: security violation")
	// ErrNoRegion is returned when an access falls outside all regions.
	ErrNoRegion = errors.New("tzasc: access outside configured regions")
	// ErrBadRegion is returned for malformed or overlapping region setups.
	ErrBadRegion = errors.New("tzasc: invalid region configuration")
	// ErrUnknownSMC is returned for an SMC function with no handler.
	ErrUnknownSMC = errors.New("monitor: unknown SMC function")
)

// RegionAttr is the security attribute of a TZASC region.
type RegionAttr int

const (
	// AttrSecureOnly allows access from the secure world only.
	AttrSecureOnly RegionAttr = iota + 1
	// AttrNonSecure allows access from both worlds (normal RAM). On real
	// hardware a non-secure region is writable by the secure world too;
	// we model the same.
	AttrNonSecure
)

// String returns the attribute name.
func (a RegionAttr) String() string {
	switch a {
	case AttrSecureOnly:
		return "secure-only"
	case AttrNonSecure:
		return "non-secure"
	default:
		return fmt.Sprintf("attr(%d)", int(a))
	}
}

// Region is one protected address range.
type Region struct {
	Name string
	Base uint64
	Size uint64
	Attr RegionAttr
}

// End returns the first address past the region.
func (r Region) End() uint64 { return r.Base + r.Size }

// Contains reports whether [addr, addr+n) lies entirely inside the region.
func (r Region) Contains(addr, n uint64) bool {
	return addr >= r.Base && addr+n <= r.End() && addr+n >= addr
}

// Overlaps reports whether two regions share any address.
func (r Region) Overlaps(o Region) bool {
	return r.Base < o.End() && o.Base < r.End()
}

// TZASC is the TrustZone address space controller. Regions are fixed at
// construction, mirroring boot-time carve-out on real platforms.
type TZASC struct {
	regions []ascRegion

	mu         sync.Mutex
	violations uint64
}

// ascRegion is an installed region with the error a denied access to it
// returns, kept next to the region so a denial costs no formatting or
// allocation.
type ascRegion struct {
	Region
	denied violation
}

// violation is a denied non-secure access to a secure-only region. It
// wraps ErrSecurityViolation and is formatted only when printed.
type violation struct{ region string }

func (v *violation) Error() string {
	return fmt.Sprintf("%v: non-secure world access to %q", ErrSecurityViolation, v.region)
}

func (v *violation) Unwrap() error { return ErrSecurityViolation }

// NewTZASC validates and installs the region set. Regions must be non-empty,
// non-overlapping, and have valid attributes.
func NewTZASC(regions []Region) (*TZASC, error) {
	if len(regions) == 0 {
		return nil, fmt.Errorf("%w: no regions", ErrBadRegion)
	}
	for i, r := range regions {
		if r.Size == 0 {
			return nil, fmt.Errorf("%w: region %q has zero size", ErrBadRegion, r.Name)
		}
		if r.Base+r.Size < r.Base {
			return nil, fmt.Errorf("%w: region %q wraps the address space", ErrBadRegion, r.Name)
		}
		if r.Attr != AttrSecureOnly && r.Attr != AttrNonSecure {
			return nil, fmt.Errorf("%w: region %q has unknown attribute", ErrBadRegion, r.Name)
		}
		for _, prev := range regions[:i] {
			if r.Overlaps(prev) {
				return nil, fmt.Errorf("%w: regions %q and %q overlap", ErrBadRegion, prev.Name, r.Name)
			}
		}
	}
	rs := make([]ascRegion, len(regions))
	for i, r := range regions {
		rs[i] = ascRegion{Region: r, denied: violation{region: r.Name}}
	}
	return &TZASC{regions: rs}, nil
}

// Regions returns a copy of the configured regions.
func (t *TZASC) Regions() []Region {
	rs := make([]Region, len(t.regions))
	for i := range t.regions {
		rs[i] = t.regions[i].Region
	}
	return rs
}

// Check validates an access of n bytes at addr from the given world.
// It returns ErrSecurityViolation for a normal-world access to a
// secure-only region and ErrNoRegion for an unmapped access.
func (t *TZASC) Check(w World, addr, n uint64) error {
	if n == 0 {
		return nil
	}
	for i := range t.regions {
		r := &t.regions[i]
		if !r.Contains(addr, n) {
			continue
		}
		if r.Attr == AttrSecureOnly && w != WorldSecure {
			t.mu.Lock()
			t.violations++
			t.mu.Unlock()
			return &r.denied
		}
		return nil
	}
	return fmt.Errorf("%w: [%#x,+%d)", ErrNoRegion, addr, n)
}

// Violations returns the number of rejected accesses so far.
func (t *TZASC) Violations() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.violations
}

// FindRegion returns the region containing addr, if any.
func (t *TZASC) FindRegion(addr uint64) (Region, bool) {
	for _, r := range t.regions {
		if r.Contains(addr, 1) {
			return r.Region, true
		}
	}
	return Region{}, false
}

// SMCFunc identifies a secure monitor call function.
type SMCFunc uint32

// SMCHandler services one SMC function inside the secure world.
// Args and results follow the SMCCC convention of small register payloads;
// larger payloads travel through shared memory checked by the TZASC.
type SMCHandler func(args [4]uint64) ([4]uint64, error)

// MonitorStats is a snapshot of monitor activity.
type MonitorStats struct {
	Switches     uint64 // one-way world switches performed
	SMCs         uint64 // SMC invocations dispatched
	SecureCycles Cycles // cycles spent with the CPU in the secure world
	SwitchCycles Cycles // cycles spent purely on switching/dispatch
}

// Monitor is the secure monitor (EL3 firmware). It owns the current world
// of the single modelled CPU and performs cost-accounted world switches.
type Monitor struct {
	clock *Clock
	cost  CostModel

	mu       sync.Mutex
	world    World
	handlers map[SMCFunc]SMCHandler
	stats    MonitorStats
}

// NewMonitor creates a monitor with the CPU starting in the normal world.
func NewMonitor(clock *Clock, cost CostModel) *Monitor {
	return &Monitor{
		clock:    clock,
		cost:     cost,
		world:    WorldNormal,
		handlers: make(map[SMCFunc]SMCHandler),
	}
}

// World returns the world the CPU currently executes in.
func (m *Monitor) World() World {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.world
}

// Cost returns the monitor's cost model.
func (m *Monitor) Cost() CostModel { return m.cost }

// Clock returns the virtual clock the monitor accounts into.
func (m *Monitor) Clock() *Clock { return m.clock }

// Register installs the handler for an SMC function ID. Registering twice
// replaces the handler; a nil handler removes it.
func (m *Monitor) Register(fn SMCFunc, h SMCHandler) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if h == nil {
		delete(m.handlers, fn)
		return
	}
	m.handlers[fn] = h
}

// SMC performs a full secure monitor call from the normal world: switch to
// secure, dispatch the handler, switch back. The handler runs with the CPU
// in the secure world. Costs are charged to the virtual clock.
func (m *Monitor) SMC(fn SMCFunc, args [4]uint64) ([4]uint64, error) {
	m.mu.Lock()
	h, ok := m.handlers[fn]
	if !ok {
		m.mu.Unlock()
		return [4]uint64{}, fmt.Errorf("%w: %#x", ErrUnknownSMC, uint32(fn))
	}
	m.enterSecureLocked()
	m.stats.SMCs++
	m.clock.Advance(m.cost.SMCDispatch)
	m.stats.SwitchCycles += m.cost.SMCDispatch
	m.mu.Unlock()

	start := m.clock.Now()
	res, err := h(args)
	elapsed := m.clock.Now() - start

	m.mu.Lock()
	m.stats.SecureCycles += elapsed
	m.exitSecureLocked()
	m.mu.Unlock()
	return res, err
}

// NormalCall runs f in the normal world while a secure-world computation
// waits — the RPC pattern OP-TEE uses to reach supplicant services. It
// charges the two extra world switches such a round trip costs.
func (m *Monitor) NormalCall(f func()) {
	m.mu.Lock()
	m.exitSecureLocked()
	m.mu.Unlock()
	f()
	m.mu.Lock()
	m.enterSecureLocked()
	m.mu.Unlock()
}

// FlushSharedRange charges cache maintenance for shared-memory arguments.
func (m *Monitor) FlushSharedRange() {
	m.clock.Advance(m.cost.CacheFlush)
	m.mu.Lock()
	m.stats.SwitchCycles += m.cost.CacheFlush
	m.mu.Unlock()
}

func (m *Monitor) enterSecureLocked() {
	m.world = WorldSecure
	m.clock.Advance(m.cost.WorldSwitch)
	m.stats.Switches++
	m.stats.SwitchCycles += m.cost.WorldSwitch
}

func (m *Monitor) exitSecureLocked() {
	m.world = WorldNormal
	m.clock.Advance(m.cost.WorldSwitch)
	m.stats.Switches++
	m.stats.SwitchCycles += m.cost.WorldSwitch
}

// Stats returns a snapshot of monitor activity.
func (m *Monitor) Stats() MonitorStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// ResetStats zeroes the activity counters (used between experiment runs).
func (m *Monitor) ResetStats() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stats = MonitorStats{}
}
