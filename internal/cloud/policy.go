// Admission policies. The PR-1 ingest tier had exactly one admission
// behaviour: a fixed-depth queue whose fullness blocked the radio
// (backpressure). A production frontend serving an elastic fleet needs
// more: under queue pressure it sheds bulk telemetry rather than
// stalling every device behind one slow shard, it keeps a priority lane
// for flagged/security events so they are never the frames that get
// dropped, and it stops a single chatty tenant from starving everyone
// else's share of the queue.
//
// AdmissionPolicy is the pluggable seam for those behaviours. It
// composes with (and runs after) the attestation AdmissionGate: the gate
// answers *who* may ingest at all — an identity/trust decision — while
// the policy answers *whether this frame fits right now* — a capacity
// decision. Policies see only cleartext connection metadata (FrameMeta:
// tenant label and traffic class); frames themselves are sealed, so an
// honest-but-curious frontend cannot make admission decisions from
// content even if it wanted to. The priority lane itself is enforced by
// the Shard, not the policy: a policy is never asked to shed a priority
// frame, so "priority frames are never shed" holds for any policy
// implementation, including a buggy one.
package cloud

import "sync"

// FrameMeta is the cleartext connection metadata the ingest frontend may
// use for admission decisions. It travels outside the sealed payload —
// the provider terminates TLS per device and reads the traffic class and
// tenant from the connection, never from frame content.
type FrameMeta struct {
	// Tenant is the billing/fair-share label of the device's owner.
	Tenant string
	// Priority marks flagged/security events (e.g. doorbell events) that
	// ride the priority lane: served before bulk telemetry and never
	// shed by an admission policy.
	Priority bool
	// Seq is the device-assigned frame sequence number (1-based; 0 means
	// unsequenced, e.g. probe traffic). The shard dedups by (device, Seq)
	// so a duplicated delivery can never double-count in the audit. Like
	// the rest of FrameMeta it is cleartext connection metadata — it says
	// nothing about frame content.
	Seq uint64
}

// AdmissionPolicy decides, per non-priority frame, whether the shard
// should shed it instead of queueing it. Admitted/Served bracket a
// frame's time in the queue so stateful policies (fair share) can track
// occupancy. All three methods are called under the shard lock; a policy
// shared across shards must do its own locking for cross-shard state.
type AdmissionPolicy interface {
	// Name labels the policy in stats and snapshots.
	Name() string
	// ShouldShed reports whether a non-priority frame should be shed
	// given the shard's queued *bulk*-frame count and the bulk lane's
	// capacity. The shard never consults ShouldShed for priority frames,
	// and priority-lane occupancy is excluded from pending — priority
	// bursts cannot make a policy shed bulk frames out of an empty bulk
	// queue.
	ShouldShed(f FrameMeta, pending, capacity int) bool
	// Admitted notes a frame (any class) entering the shard queue.
	Admitted(f FrameMeta)
	// Served notes a previously Admitted frame taking a service slot.
	Served(f FrameMeta)
}

// FixedQueuePolicy is the PR-1 behaviour made explicit: never shed, let
// the bounded queue block the radio. A nil policy behaves identically;
// this type exists so the choice shows up by name in stats.
type FixedQueuePolicy struct{}

// Name implements AdmissionPolicy.
func (FixedQueuePolicy) Name() string { return "fixed" }

// ShouldShed implements AdmissionPolicy: never shed.
func (FixedQueuePolicy) ShouldShed(FrameMeta, int, int) bool { return false }

// Admitted implements AdmissionPolicy.
func (FixedQueuePolicy) Admitted(FrameMeta) {}

// Served implements AdmissionPolicy.
func (FixedQueuePolicy) Served(FrameMeta) {}

// DefaultHighWater is the queue-occupancy fraction above which the
// shedding policies start dropping bulk frames.
const DefaultHighWater = 0.75

// LoadShedPolicy sheds bulk telemetry once the queue passes a high-water
// fraction of its capacity, trading completeness for tail latency: a
// burst beyond what the service slots absorb drops cheap frames at the
// frontend instead of stalling every device behind the full queue.
type LoadShedPolicy struct {
	// HighWater is the occupancy fraction (of queue capacity) at which
	// shedding starts; 0 means DefaultHighWater.
	HighWater float64
}

// Name implements AdmissionPolicy.
func (p *LoadShedPolicy) Name() string { return "shed" }

// ShouldShed implements AdmissionPolicy.
func (p *LoadShedPolicy) ShouldShed(_ FrameMeta, pending, capacity int) bool {
	return pending >= highWaterMark(p.HighWater, capacity)
}

// Admitted implements AdmissionPolicy.
func (p *LoadShedPolicy) Admitted(FrameMeta) {}

// Served implements AdmissionPolicy.
func (p *LoadShedPolicy) Served(FrameMeta) {}

// FairSharePolicy is LoadShedPolicy with per-tenant accounting: above
// the high-water mark it sheds bulk frames only from tenants that hold
// at least their fair share (capacity / active tenants) of the bulk
// queue, so one chatty tenant's burst cannot crowd out everyone else's
// telemetry. Only bulk frames count toward a tenant's occupancy — the
// priority lane is arbitrated separately, so a tenant's security events
// can never cost it its telemetry share. One instance may be installed
// on every shard of a router, in which case occupancy is tracked
// tier-wide (the tenant's global bulk footprint is judged against the
// local shard's capacity).
type FairSharePolicy struct {
	// HighWater is the occupancy fraction at which shedding starts;
	// 0 means DefaultHighWater.
	HighWater float64

	mu     sync.Mutex
	queued map[string]int // tenant -> bulk frames currently queued
}

// NewFairSharePolicy creates the policy (highWater 0 = DefaultHighWater).
func NewFairSharePolicy(highWater float64) *FairSharePolicy {
	return &FairSharePolicy{HighWater: highWater, queued: make(map[string]int)}
}

// Name implements AdmissionPolicy.
func (p *FairSharePolicy) Name() string { return "fair" }

// ShouldShed implements AdmissionPolicy.
func (p *FairSharePolicy) ShouldShed(f FrameMeta, pending, capacity int) bool {
	if pending < highWaterMark(p.HighWater, capacity) {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	active := len(p.queued)
	if p.queued[f.Tenant] == 0 {
		active++ // the candidate's tenant counts toward the division
	}
	fair := capacity / active
	if fair < 1 {
		fair = 1
	}
	return p.queued[f.Tenant] >= fair
}

// Admitted implements AdmissionPolicy. Priority frames are excluded:
// tenant occupancy tracks the bulk lane ShouldShed arbitrates.
func (p *FairSharePolicy) Admitted(f FrameMeta) {
	if f.Priority {
		return
	}
	p.mu.Lock()
	p.queued[f.Tenant]++
	p.mu.Unlock()
}

// Served implements AdmissionPolicy.
func (p *FairSharePolicy) Served(f FrameMeta) {
	if f.Priority {
		return
	}
	p.mu.Lock()
	if p.queued[f.Tenant]--; p.queued[f.Tenant] <= 0 {
		delete(p.queued, f.Tenant)
	}
	p.mu.Unlock()
}

// highWaterMark converts a fraction into a queued-frame threshold,
// floored at 1 so a capacity-1 queue can still shed.
func highWaterMark(frac float64, capacity int) int {
	if frac <= 0 {
		frac = DefaultHighWater
	}
	mark := int(frac * float64(capacity))
	if mark < 1 {
		mark = 1
	}
	return mark
}

// PolicyByName maps the CLI/config spelling to a policy instance:
// "" or "fixed" → FixedQueuePolicy, "shed" → LoadShedPolicy,
// "fair" → FairSharePolicy. Unknown names return (nil, false).
func PolicyByName(name string) (AdmissionPolicy, bool) {
	switch name {
	case "", "fixed":
		return FixedQueuePolicy{}, true
	case "shed":
		return &LoadShedPolicy{}, true
	case "fair":
		return NewFairSharePolicy(0), true
	default:
		return nil, false
	}
}
