// Package fault builds deterministic chaos plans for the fleet. A plan
// is a pure function of (fleet size, rates, seed): which devices it
// touches, what each touched device's uplink suffers per delivery
// (drops, duplicates, delays, expiry blackholes), which devices run
// slow, which see a transient TEE fault at boot, and where in the run
// the shard crashes land. Re-running the same plan against the same
// fleet replays every injection bit-for-bit — chaos you can regress
// against, not chaos you chase.
//
// Trust model: a plan is *cleartext operational metadata* — device
// indices, rates, a seed. It never sees, holds or alters sealed
// frame content; an injector drops, delays or re-sends opaque sealed
// bytes exactly as an unreliable network or a crashing frontend would.
// The security argument of the relay is therefore untouched by chaos:
// every frame that does arrive is the sealed frame the TA emitted.
package fault

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/supplicant"
	"repro/internal/tz"
)

// ErrInjectedDrop marks an uplink delivery the plan swallowed. It wraps
// supplicant.ErrTransient so the device's retry layer classifies it as
// retriable without importing this package.
var ErrInjectedDrop = fmt.Errorf("fault: injected uplink drop (%w)", supplicant.ErrTransient)

// ErrBadPlan is returned for invalid plan configurations.
var ErrBadPlan = errors.New("fault: invalid plan")

// The virtual time a plan charges on touched devices.
const (
	// DelayCycles is the virtual delay charged per delayed delivery.
	DelayCycles tz.Cycles = 50_000
	// SlowCycles is the extra virtual latency a straggler pays per
	// delivery.
	SlowCycles tz.Cycles = 200_000
	// TEEPenalty is the retried sealed-storage work a transient TEE
	// error at provisioning costs before the handshake proceeds.
	TEEPenalty tz.Cycles = 1_000_000
)

// PlanConfig parameterizes a chaos plan. All zero values are safe: a
// zero config touches a quarter of the fleet and injects nothing.
type PlanConfig struct {
	// Devices is the fleet size the plan spans (required, > 0).
	Devices int
	// TouchFraction is the fraction of devices the plan touches (default
	// 0.25). Untouched devices bypass injection entirely — their runs
	// must be bit-identical to a fault-free run, which E15 asserts.
	TouchFraction float64

	// Per-delivery decision rates on touched devices. Each delivery
	// draws once; the rates partition the draw (their sum must be ≤ 1).
	DropRate      float64 // delivery swallowed (retriable)
	DuplicateRate float64 // delivery duplicated after success (dedup target)
	DelayRate     float64 // delivery delayed by DelayCycles, then sent
	// ExpireRate opens a blackhole window: this delivery and every retry
	// the device's retry layer makes (core.RetryAttempts in all) are
	// dropped, so the frame deterministically expires.
	ExpireRate float64

	// SlowFraction of the touched devices pay SlowCycles of extra
	// virtual latency per delivery — the straggler set.
	SlowFraction float64

	// TEEFraction of the touched devices hit a transient TEE error at
	// provisioning time, charged as TEEPenalty cycles.
	TEEFraction float64

	// Crashes is the number of shard crashes scheduled across the run
	// (see CrashPoints).
	Crashes int

	// Seed roots every stream the plan derives (default 1).
	Seed uint64
}

// Validate returns an ErrBadPlan error for a configuration that
// describes no plan: a fleet size that is not positive, a fraction or
// rate outside [0,1] (NaN included), injection rates summing past 1, or
// a negative crash count. NewPlan applies it before filling defaults.
func (c PlanConfig) Validate() error {
	if c.Devices <= 0 {
		return fmt.Errorf("%w: Devices must be > 0", ErrBadPlan)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"TouchFraction", c.TouchFraction}, {"DropRate", c.DropRate},
		{"DuplicateRate", c.DuplicateRate}, {"DelayRate", c.DelayRate},
		{"ExpireRate", c.ExpireRate}, {"SlowFraction", c.SlowFraction},
		{"TEEFraction", c.TEEFraction},
	} {
		// NaN compares false against both bounds — reject it explicitly,
		// or int(NaN·Devices) would slice the permutation out of range.
		if !(f.v >= 0 && f.v <= 1) {
			return fmt.Errorf("%w: %s %v outside [0,1]", ErrBadPlan, f.name, f.v)
		}
	}
	if sum := c.DropRate + c.DuplicateRate + c.DelayRate + c.ExpireRate; sum > 1 {
		return fmt.Errorf("%w: injection rates sum to %v > 1", ErrBadPlan, sum)
	}
	if c.Crashes < 0 {
		return fmt.Errorf("%w: Crashes must be >= 0", ErrBadPlan)
	}
	return nil
}

func (c *PlanConfig) fillDefaults() error {
	if err := c.Validate(); err != nil {
		return err
	}
	if c.TouchFraction == 0 {
		c.TouchFraction = 0.25
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return nil
}

// Plan is a compiled chaos plan: the touched/slow/TEE-fault device sets
// plus the per-device injector factory. Safe for concurrent use.
type Plan struct {
	cfg     PlanConfig
	touched map[int]bool
	slow    map[int]bool
	tee     map[int]bool

	mu        sync.Mutex
	injectors []*Injector
}

// NewPlan compiles a plan. Device membership is drawn from the plan
// seed's SaltFault stream: a shuffled index permutation yields the
// touched set, whose head is the straggler set and tail the TEE-fault
// set — all pure functions of (Devices, fractions, Seed).
func NewPlan(cfg PlanConfig) (*Plan, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	p := &Plan{
		cfg:     cfg,
		touched: make(map[int]bool),
		slow:    make(map[int]bool),
		tee:     make(map[int]bool),
	}
	rng := core.NewRNG(cfg.Seed, core.SaltFault)
	perm := rng.Perm(cfg.Devices)
	tn := int(cfg.TouchFraction*float64(cfg.Devices) + 0.5)
	if tn > cfg.Devices {
		tn = cfg.Devices
	}
	touched := perm[:tn]
	for _, i := range touched {
		p.touched[i] = true
	}
	sn := int(cfg.SlowFraction*float64(tn) + 0.5)
	for _, i := range touched[:min(sn, tn)] {
		p.slow[i] = true
	}
	en := int(cfg.TEEFraction*float64(tn) + 0.5)
	for _, i := range touched[tn-min(en, tn):] {
		p.tee[i] = true
	}
	return p, nil
}

// Config returns the compiled (defaults-filled) configuration.
func (p *Plan) Config() PlanConfig { return p.cfg }

// Touches reports whether the plan injects faults on device index i.
func (p *Plan) Touches(i int) bool { return p.touched[i] }

// Slow reports whether device i is in the straggler set.
func (p *Plan) Slow(i int) bool { return p.slow[i] }

// TEEFault reports whether device i hits a transient TEE error at boot.
func (p *Plan) TEEFault(i int) bool { return p.tee[i] }

// TouchedCount returns how many devices the plan touches.
func (p *Plan) TouchedCount() int { return len(p.touched) }

// CrashPoints returns the device-completion counts at which the plan's
// shard crashes fire: Crashes points spread evenly across the run
// ((i+1)·devices/(crashes+1)), so the first crash lands mid-traffic and
// the last leaves room for recovery before the run drains.
func (p *Plan) CrashPoints() []int {
	if p.cfg.Crashes == 0 {
		return nil
	}
	pts := make([]int, 0, p.cfg.Crashes)
	for i := 0; i < p.cfg.Crashes; i++ {
		pt := (i + 1) * p.cfg.Devices / (p.cfg.Crashes + 1)
		if pt < 1 {
			pt = 1
		}
		pts = append(pts, pt)
	}
	return pts
}

// Injector returns device i's delivery path: the device's own seeded
// injector wrapping next for touched devices, next unchanged otherwise
// (untouched devices must not even share an RNG with the chaos).
func (p *Plan) Injector(i int, next cloud.Ingestor, clock *tz.Clock) cloud.Ingestor {
	if !p.touched[i] {
		return next
	}
	inj := &Injector{
		plan:  p,
		next:  next,
		clock: clock,
		rng:   core.NewRNG(core.DeriveSeed(p.cfg.Seed, core.SaltFault, i), core.SaltFault),
		slow:  p.slow[i],
	}
	p.mu.Lock()
	p.injectors = append(p.injectors, inj)
	p.mu.Unlock()
	return inj
}

// Stats sums every injector's counters.
func (p *Plan) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	var total Stats
	for _, inj := range p.injectors {
		s := inj.Stats()
		total.Delivered += s.Delivered
		total.Drops += s.Drops
		total.Duplicates += s.Duplicates
		total.Delays += s.Delays
		total.Blackholes += s.Blackholes
		total.DelayCharged += s.DelayCharged
	}
	return total
}

// Stats counts one injector's (or a whole plan's) injections.
type Stats struct {
	// Delivered counts deliveries passed through (possibly delayed).
	Delivered uint64
	// Drops counts swallowed deliveries, including blackhole drops.
	Drops uint64
	// Duplicates counts extra same-seq deliveries sent after a success.
	Duplicates uint64
	// Delays counts deliveries delayed by DelayCycles before sending.
	Delays uint64
	// Blackholes counts expiry windows opened (frames doomed to expire).
	Blackholes uint64
	// DelayCharged is the total virtual time charged for delays.
	DelayCharged tz.Cycles
}

// Injected sums the individual injection events.
func (s Stats) Injected() uint64 { return s.Drops + s.Duplicates + s.Delays }

// Injector is one touched device's delivery path: it wraps the router
// (below the retry layer, above the ring) and decides per delivery —
// from the device's own PCG stream — whether to drop, duplicate, delay
// or blackhole the frame. A device's pipeline is sequential, so the
// decision sequence is deterministic per (plan seed, device index).
type Injector struct {
	plan  *Plan
	next  cloud.Ingestor
	clock *tz.Clock
	rng   *rand.Rand
	slow  bool

	mu        sync.Mutex
	blackhole int // remaining deliveries to swallow (expiry window)
	stats     Stats
}

var _ cloud.Ingestor = (*Injector)(nil)

// IngestMeta implements cloud.Ingestor.
func (inj *Injector) IngestMeta(deviceID string, frame []byte, meta cloud.FrameMeta) ([]byte, error) {
	cfg := inj.plan.cfg
	if inj.slow {
		// Straggler: every delivery pays extra virtual latency.
		inj.clock.Advance(SlowCycles)
	}
	inj.mu.Lock()
	if inj.blackhole > 0 {
		// Open expiry window: this frame's retries all vanish, so the
		// device's retry layer deterministically expires it.
		inj.blackhole--
		inj.stats.Drops++
		inj.mu.Unlock()
		return nil, fmt.Errorf("%w: %q seq %d (blackhole)", ErrInjectedDrop, deviceID, meta.Seq)
	}
	roll := inj.rng.Float64()
	var verdict int // 0 pass, 1 drop, 2 duplicate, 3 delay
	switch {
	case roll < cfg.ExpireRate:
		// Blackhole the frame: swallow this delivery and the next
		// RetryAttempts-1 (its retries — the device pipeline is
		// sequential).
		inj.blackhole = core.RetryAttempts - 1
		inj.stats.Blackholes++
		inj.stats.Drops++
		verdict = 1
	case roll < cfg.ExpireRate+cfg.DropRate:
		inj.stats.Drops++
		verdict = 1
	case roll < cfg.ExpireRate+cfg.DropRate+cfg.DuplicateRate:
		inj.stats.Duplicates++
		verdict = 2
	case roll < cfg.ExpireRate+cfg.DropRate+cfg.DuplicateRate+cfg.DelayRate:
		inj.stats.Delays++
		inj.stats.DelayCharged += DelayCycles
		verdict = 3
	}
	if verdict != 1 {
		inj.stats.Delivered++
	}
	inj.mu.Unlock()

	switch verdict {
	case 1: // drop
		return nil, fmt.Errorf("%w: %q seq %d", ErrInjectedDrop, deviceID, meta.Seq)
	case 3: // delay, then deliver
		inj.clock.Advance(DelayCycles)
	}
	directive, err := inj.next.IngestMeta(deviceID, frame, meta)
	if verdict == 2 && err == nil {
		// Duplicate the delivery that just succeeded: same meta, same seq.
		// The shard's (device, seq) dedup must swallow it; whatever comes
		// back is discarded — the device already has its directive.
		_, _ = inj.next.IngestMeta(deviceID, frame, meta)
	}
	return directive, err
}

// Stats snapshots the injector's counters.
func (inj *Injector) Stats() Stats {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return inj.stats
}
