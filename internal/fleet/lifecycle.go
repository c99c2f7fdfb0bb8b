package fleet

// Attestation-lifecycle driver. Enrollment on the PR-3 ingest tier was
// immutable: a device key lived as long as the fleet, and the only way
// to expel a compromised device was to restart everything. The paper's
// edge-to-cloud key-management gap (and the ROADMAP item it left open)
// is exactly this lifecycle: keys must rotate while traffic flows, and a
// compromised device must be cut off *now*, at the frontend, with an
// auditable trail.
//
// Config.Lifecycle drives both events against a live run:
//
//   - Rotation: for a seeded fraction of the population the verifier
//     issues the rotation token right before the device's attested
//     handshake, so the handshake itself lands in the grace window (the
//     device still signs at the old epoch) and the device's whole
//     workload flows while the verifier already expects the next epoch.
//     After the workload the device redeems the token in its TEE
//     (CmdRotateKey: MAC verify, seal epoch, swap signer) and re-attests
//     at the new epoch, closing the window. Zero frames may be lost to
//     any of it.
//
//   - Revocation: a seeded fraction of completed devices is revoked
//     while the rest of the fleet is still processing; probe frames are
//     then fired under each revoked identity and every one must be
//     *rejected* (cloud.ErrRejected wrapping attest.ErrRevoked, counted
//     in ShardStats.Rejected) — never shed, and never delivered.
//
// The invariant E13 pins: none of this changes a single audit counter of
// any device, because rotation and revocation are control-plane events —
// the data plane's frames either flow (rotation) or are rejected before
// an endpoint ever sees them (revocation probes).

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/obs"
)

// LifecycleSpec drives mid-run key rotation and revocation.
type LifecycleSpec struct {
	// RotateFraction of the endpoint-bearing population has its
	// attestation key rotated mid-run (token issued before the
	// handshake, redeemed in-TEE after the workload, re-attested at the
	// new epoch).
	RotateFraction float64
	// RevokeFraction of the endpoint-bearing population is revoked right
	// after completing its workload, while the rest of the fleet is
	// still processing.
	RevokeFraction float64
}

// revokeProbes frames are fired under each revoked identity; every one
// must be rejected at the frontend.
const revokeProbes = 2

func (l *LifecycleSpec) validate() error {
	if !unitFraction(l.RotateFraction) || !unitFraction(l.RevokeFraction) {
		return fmt.Errorf("%w: lifecycle fractions %g/%g", ErrBadConfig, l.RotateFraction, l.RevokeFraction)
	}
	if l.RotateFraction+l.RevokeFraction > 1 {
		return fmt.Errorf("%w: lifecycle fractions sum to %g", ErrBadConfig, l.RotateFraction+l.RevokeFraction)
	}
	return nil
}

// lifecyclePlan is the run-time lifecycle state: which base devices
// rotate and which are revoked, plus the probe accounting.
type lifecyclePlan struct {
	rotate map[int]bool
	revoke map[int]bool

	mu             sync.Mutex
	rotated        int
	revoked        int
	probeAttempts  int
	probeRejected  int
	probeDelivered int // frames that reached an endpoint after a revoke: must stay 0
}

// newLifecyclePlan selects disjoint rotation and revocation target sets
// from the endpoint-bearing base population (baseline doorbells never
// register an endpoint, so there is no ingest path to rotate under or
// revoke from). Selection is a seeded permutation: deterministic per
// root seed, independent of worker scheduling.
func newLifecyclePlan(cfg Config, specs []core.DeviceSpec) *lifecyclePlan {
	p := &lifecyclePlan{
		rotate: make(map[int]bool),
		revoke: make(map[int]bool),
	}
	eligible := make([]int, 0, len(specs))
	for i := range specs {
		if specs[i].Kind == core.DeviceDoorbell && specs[i].Mode == core.ModeBaseline {
			continue
		}
		eligible = append(eligible, i)
	}
	rng := core.NewRNG(core.DeriveSeed(cfg.Seed, core.SaltLifecycle, 0), core.SaltLifecycle)
	perm := rng.Perm(len(eligible))
	nRotate := int(cfg.Lifecycle.RotateFraction*float64(len(eligible)) + 0.5)
	nRevoke := int(cfg.Lifecycle.RevokeFraction*float64(len(eligible)) + 0.5)
	if nRotate+nRevoke > len(eligible) {
		nRevoke = len(eligible) - nRotate
	}
	for _, j := range perm[:nRotate] {
		p.rotate[eligible[j]] = true
	}
	for _, j := range perm[nRotate : nRotate+nRevoke] {
		p.revoke[eligible[j]] = true
	}
	return p
}

// noteRotated counts one completed redeem + re-attest.
func (p *lifecyclePlan) noteRotated() {
	p.mu.Lock()
	p.rotated++
	p.mu.Unlock()
}

// probeRevoked revokes the device on its authority and fires the probe
// frames that must all be rejected. The rejection must be the admission
// gate's (ErrRejected, counted in ShardStats.Rejected): a shed or — far
// worse — a delivery is a gate bypass.
func (p *lifecyclePlan) probeRevoked(r *runner, id, tenant string, meta cloud.FrameMeta, tc *obs.TraceContext) {
	r.st.authority(tenant).Revoke(id, "lifecycle drill: compromised device")
	r.tracer.Verb(obs.VerbRevoke)
	// The first revocation of the run dumps every shard's flight
	// recorder: the admission timeline that led up to the cut-off.
	r.tracer.Anomaly("first-revocation", fmt.Sprintf("device %s revoked", id))
	p.mu.Lock()
	p.revoked++
	p.mu.Unlock()
	for j := 0; j < revokeProbes; j++ {
		_, err := r.router.IngestMeta(id, []byte("post-revocation probe"), meta)
		// Probes are observed off-device, so their spans carry no device
		// virtual time — StageAdmit with zero start and duration, one
		// terminal verdict per probe, mirroring the accounting below.
		if tc.Enabled() {
			tc.NextItem()
			switch {
			case err == nil:
				tc.Emit(obs.StageAdmit, obs.VerdictDelivered, 0, 0, 0, 0)
			case errors.Is(err, cloud.ErrShed):
				tc.Emit(obs.StageAdmit, obs.VerdictShed, 0, 0, 0, 0)
			default:
				tc.Emit(obs.StageAdmit, cloud.RejectVerdict(err), 0, 0, 0, 0)
			}
		}
		p.mu.Lock()
		p.probeAttempts++
		switch {
		case err == nil:
			p.probeDelivered++
		case errors.Is(err, cloud.ErrRejected) && !errors.Is(err, cloud.ErrShed):
			p.probeRejected++
		}
		p.mu.Unlock()
	}
}

// fill copies the plan's accounting into the run result.
func (p *lifecyclePlan) fill(res *Result) {
	p.mu.Lock()
	defer p.mu.Unlock()
	res.Rotated = p.rotated
	res.Revoked = p.revoked
	res.RevokeProbes = p.probeAttempts
	res.RevokeRejected = p.probeRejected
	res.RevokeDelivered = p.probeDelivered
}
