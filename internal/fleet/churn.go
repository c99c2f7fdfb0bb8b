package fleet

// Elastic fleet churn. The paper's evaluation assumes a fixed device
// population; a production fleet never has one — devices join (new
// installs), leave (power-off, resets, decommissioning) and the ingest
// tier itself is rebalanced under them. Config.Churn drives both sides
// of that elasticity in one run: joiners are extra devices that arrive
// while the base population is mid-workload and run the *full*
// provision → attest → handshake flow against the verifier's state at
// join time (so a joiner arriving after a rollout opened is provisioned
// to, and must attest at, the raised minimum version), and leavers are
// base-population devices that depart early — they process part of their
// workload, then release cleanly: their provider-side audit is folded
// into the run's accounting, their endpoint leaves the ring, and their
// attested session is released so later frames under their identity
// would be rejected.
//
// Config.Rebalance schedules the tier-side churn: at a configurable
// point in the run, fresh (optionally weighted) shards join the ring
// and/or a founding shard drains — while devices are still processing,
// which is exactly the hand-off the cloud.Router guarantees is lossless.
//
// The invariant all of this preserves (E12, TestChurnInvariant): a
// device that does not churn produces bit-identical results — audit
// counters included — whether the fleet around it churned or not.

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/cloud"
	"repro/internal/core"
)

// ChurnSpec drives mid-run population churn.
type ChurnSpec struct {
	// JoinFraction adds ceil(JoinFraction × Devices) joiners: devices
	// that arrive while the base population is mid-run and go through
	// the full provision/attest/handshake flow on arrival.
	JoinFraction float64
	// LeaveFraction picks ceil(LeaveFraction × Devices) base devices to
	// depart early: each processes leaveAfter of its workload, then
	// deregisters from the ring and releases its attested session.
	LeaveFraction float64
}

// leaveAfter is the fraction of a leaver's workload processed before
// departure (at least one item is always processed).
const leaveAfter = 0.5

func (c *ChurnSpec) validate() error {
	if !unitFraction(c.JoinFraction) || !unitFraction(c.LeaveFraction) {
		return fmt.Errorf("%w: churn fractions %g/%g", ErrBadConfig, c.JoinFraction, c.LeaveFraction)
	}
	return nil
}

// RebalanceSpec schedules a mid-run ingest-tier rebalance.
type RebalanceSpec struct {
	// AtFraction of completed devices triggers the rebalance
	// (default 0.5).
	AtFraction float64
	// DrainShard is the index of the founding shard to drain at the
	// trigger; -1 disables the drain (the zero value drains shard 0).
	DrainShard int
	// AddShards fresh shards join the ring at the trigger, before any
	// drain, each with ring weight AddWeight (floored at 1).
	AddShards int
	AddWeight int
}

func (r *RebalanceSpec) fillDefaults(shards int) error {
	if !unitFraction(r.AtFraction) {
		return fmt.Errorf("%w: rebalance fraction %g", ErrBadConfig, r.AtFraction)
	}
	if r.AtFraction == 0 {
		r.AtFraction = 0.5
	}
	if r.DrainShard >= shards {
		return fmt.Errorf("%w: drain shard %d of %d", ErrBadConfig, r.DrainShard, shards)
	}
	if r.DrainShard < 0 {
		r.DrainShard = -1
	}
	if r.AddShards < 0 {
		return fmt.Errorf("%w: %d added shards", ErrBadConfig, r.AddShards)
	}
	if r.DrainShard >= 0 && r.AddShards == 0 && shards == 1 {
		return fmt.Errorf("%w: draining the only shard", ErrBadConfig)
	}
	if r.AddWeight < 1 {
		r.AddWeight = 1
	}
	return nil
}

// joinCount / leaveCount round the churn fractions up so any nonzero
// rate churns at least one device.
func (c *ChurnSpec) joinCount(devices int) int {
	return int(math.Ceil(c.JoinFraction * float64(devices)))
}

func (c *ChurnSpec) leaveCount(devices int) int {
	n := int(math.Ceil(c.LeaveFraction * float64(devices)))
	if n > devices {
		n = devices
	}
	return n
}

// churnPlan is the run-time churn state: who leaves, when joiners
// arrive, and the accounting for departed endpoints.
type churnPlan struct {
	leaver  map[int]bool
	arrival []int // device indices in worker-feed order

	mu       sync.Mutex
	departed cloud.Audit
	left     int
}

// newChurnPlan derives the leaver set and the arrival order from the
// churn spec. Arrival order: base devices keep their index order (their
// results must not depend on churn), with joiners spliced in from the
// one-third mark onward at seeded positions — mid-run arrivals, after
// enough of the base population is in flight for the join to interleave
// with real traffic.
func newChurnPlan(cfg Config, base, join int) *churnPlan {
	p := &churnPlan{
		leaver:  make(map[int]bool),
		arrival: make([]int, 0, base+join),
	}
	rng := core.NewRNG(core.DeriveSeed(cfg.Seed, core.SaltChurn, 0), core.SaltChurn)
	perm := rng.Perm(base)
	for _, i := range perm[:cfg.Churn.leaveCount(base)] {
		p.leaver[i] = true
	}
	for i := 0; i < base; i++ {
		p.arrival = append(p.arrival, i)
	}
	// Splice joiners into the feed past the one-third mark. Insertion
	// positions are seeded; base relative order is preserved.
	lo := base / 3
	for j := 0; j < join; j++ {
		pos := lo + rng.IntN(len(p.arrival)-lo+1)
		p.arrival = append(p.arrival, 0)
		copy(p.arrival[pos+1:], p.arrival[pos:])
		p.arrival[pos] = base + j
	}
	return p
}

// truncateWorkload clips a leaver's workload to its pre-departure share
// (at least one item: a device that joined processed something).
func (p *churnPlan) truncateWorkload(w core.DeviceWorkload) core.DeviceWorkload {
	clip := func(n int) int {
		k := int(leaveAfter*float64(n) + 0.5)
		if k < 1 {
			k = 1
		}
		if k > n {
			k = n
		}
		return k
	}
	if len(w.Utterances) > 0 {
		w.Utterances = w.Utterances[:clip(len(w.Utterances))]
	}
	if len(w.Scenes) > 0 {
		w.Scenes = w.Scenes[:clip(len(w.Scenes))]
	}
	return w
}

// depart folds a leaver's endpoint audit into the run accounting before
// its endpoint leaves the ring (the ring can no longer vouch for it).
func (p *churnPlan) depart(a cloud.Audit) {
	p.mu.Lock()
	p.departed = p.departed.Merge(a)
	p.mu.Unlock()
}

// noteLeft counts one clean departure (endpoint-bearing or not).
func (p *churnPlan) noteLeft() {
	p.mu.Lock()
	p.left++
	p.mu.Unlock()
}

// rebalancer triggers the scheduled ingest-tier rebalance once a target
// number of devices has completed. The trigger runs inline on whichever
// device worker crosses the threshold — deliberately concurrent with the
// rest of the fleet's traffic.
type rebalancer struct {
	spec    RebalanceSpec
	router  *cloud.Router
	cfg     Config
	trigger int

	mu        sync.Mutex
	completed int
	fired     bool
	added     []string
	drained   string
	moved     int
	err       error
}

func newRebalancer(cfg Config, router *cloud.Router, totalDevices int) *rebalancer {
	r := &rebalancer{spec: *cfg.Rebalance, router: router, cfg: cfg}
	r.trigger = int(r.spec.AtFraction * float64(totalDevices))
	if r.trigger < 1 {
		r.trigger = 1
	}
	return r
}

// noteDone counts one completed device and fires the rebalance when the
// threshold is crossed.
func (r *rebalancer) noteDone() {
	r.mu.Lock()
	r.completed++
	fire := !r.fired && r.completed >= r.trigger
	if fire {
		r.fired = true
	}
	r.mu.Unlock()
	if !fire {
		return
	}
	for i := 0; i < r.spec.AddShards; i++ {
		name := fmt.Sprintf("shard-r%02d", i)
		r.router.AddShard(cloud.NewShard(name, r.cfg.ShardWorkers, r.cfg.ShardQueue), r.spec.AddWeight)
		r.mu.Lock()
		r.added = append(r.added, name)
		r.mu.Unlock()
	}
	if r.spec.DrainShard >= 0 {
		name := fmt.Sprintf("shard-%02d", r.spec.DrainShard)
		err := r.router.Drain(name)
		r.mu.Lock()
		if err != nil {
			if r.err == nil {
				r.err = fmt.Errorf("rebalance drain %s: %w", name, err)
			}
		} else {
			r.drained = name
		}
		r.mu.Unlock()
	}
}

// report snapshots what the rebalance did.
func (r *rebalancer) report() *RebalanceReport {
	r.mu.Lock()
	defer r.mu.Unlock()
	return &RebalanceReport{
		Fired:        r.fired,
		AddedShards:  append([]string(nil), r.added...),
		DrainedShard: r.drained,
	}
}

// RebalanceReport summarizes the scheduled mid-run rebalance.
type RebalanceReport struct {
	// Fired reports whether the trigger point was reached.
	Fired bool
	// AddedShards are the ring names of the shards added at the trigger.
	AddedShards []string
	// DrainedShard is the ring name of the drained shard ("" if none).
	DrainedShard string
}

// tenantName renders the label of billing tenant t.
func tenantName(t int) string { return fmt.Sprintf("tenant-%02d", t) }

// tenantFor stripes device traffic across the configured tenant count —
// the cleartext billing label the fair-share admission policy and the
// per-tenant verifier federation see.
func tenantFor(cfg Config, deviceIndex int) string {
	return tenantName(deviceIndex % cfg.Tenants)
}
