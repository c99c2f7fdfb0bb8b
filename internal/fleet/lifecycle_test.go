package fleet

import (
	"testing"

	"repro/internal/core"
)

// TestLifecycleRotationInvariant: rotating a fraction of the fleet's
// keys mid-run loses zero frames and leaves every device's audit
// counters — rotated devices included — bit-identical to a static run:
// rotation is a control-plane event, the data plane never notices.
func TestLifecycleRotationInvariant(t *testing.T) {
	base := Config{
		Devices:    24,
		Shards:     2,
		Utterances: 2,
		Frames:     2,
		Seed:       11,
		Attest:     true,
	}
	static, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	rotated := base
	rotated.Lifecycle = &LifecycleSpec{RotateFraction: 0.2}
	res, err := Run(rotated)
	if err != nil {
		t.Fatal(err)
	}

	if res.Rotated == 0 {
		t.Fatal("no device rotated")
	}
	if res.LostFrames() != 0 {
		t.Fatalf("lost %d frames across rotations", res.LostFrames())
	}
	for i := 0; i < base.Devices; i++ {
		if got, want := fingerprint(res.DeviceResults[i]), fingerprint(static.DeviceResults[i]); got != want {
			t.Fatalf("device %d diverged under rotation: %s != %s", i, got, want)
		}
	}
	// Every rotated device re-attested at epoch 1; the rest sit at 0.
	if res.KeyEpochs[1] != res.Rotated {
		t.Fatalf("epoch tally %v, want %d at epoch 1", res.KeyEpochs, res.Rotated)
	}
	if res.KeyEpochs[0] != res.AttestedDevices-res.Rotated {
		t.Fatalf("epoch tally %v for %d attested", res.KeyEpochs, res.AttestedDevices)
	}
}

// TestLifecycleRevocationRejectsProbes: a device revoked mid-run is cut
// off at the frontend within one frame — every post-revocation probe is
// rejected (never shed, never delivered) and lands in the per-shard
// Rejected counters.
func TestLifecycleRevocationRejectsProbes(t *testing.T) {
	res, err := Run(Config{
		Devices:    24,
		Shards:     2,
		Utterances: 2,
		Frames:     2,
		Seed:       11,
		Lifecycle:  &LifecycleSpec{RevokeFraction: 0.25},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Revoked == 0 {
		t.Fatal("no device revoked")
	}
	if res.RevokeProbes != res.Revoked*revokeProbes {
		t.Fatalf("probes %d for %d revoked devices", res.RevokeProbes, res.Revoked)
	}
	if res.RevokeRejected != res.RevokeProbes {
		t.Fatalf("only %d/%d probes rejected", res.RevokeRejected, res.RevokeProbes)
	}
	if res.RevokeDelivered != 0 {
		t.Fatalf("%d probes reached an endpoint: the gate was bypassed", res.RevokeDelivered)
	}
	var rejected uint64
	for _, s := range res.ShardStats {
		rejected += s.Rejected
	}
	if rejected < uint64(res.RevokeProbes) {
		t.Fatalf("shard Rejected counters %d < %d probes", rejected, res.RevokeProbes)
	}
	// Revoked identities lose their attested state; nothing was lost or
	// silently shed on the way. (Baseline doorbells never uplink, so
	// they never attest and sit outside both tallies.)
	attesting := res.Config.Devices
	if g := res.Groups[GroupKey{Kind: core.DeviceDoorbell, Mode: core.ModeBaseline}]; g != nil {
		attesting -= g.Devices
	}
	if res.AttestedDevices != attesting-res.Revoked {
		t.Fatalf("attested %d of %d attesting with %d revoked", res.AttestedDevices, attesting, res.Revoked)
	}
	if res.LostFrames() != 0 {
		t.Fatalf("lost %d frames", res.LostFrames())
	}
}

// TestFederatedFleetRoutesByTenant: with Federate on, every tenant's
// verifier attests exactly its own stripe of the population, the tier
// still loses nothing, and rogue (unlabelled) traffic is rejected by
// the federation's admit-nothing fallback.
func TestFederatedFleetRoutesByTenant(t *testing.T) {
	res, err := Run(Config{
		Devices:    24,
		Shards:     2,
		Utterances: 2,
		Frames:     2,
		Seed:       11,
		Tenants:    3,
		Federate:   true,
		Rogues:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TenantAttested) != 3 {
		t.Fatalf("tenant tallies: %v", res.TenantAttested)
	}
	sum := 0
	for tenant, n := range res.TenantAttested {
		if n == 0 {
			t.Fatalf("tenant %s attested nothing: %v", tenant, res.TenantAttested)
		}
		sum += n
	}
	if sum != res.AttestedDevices {
		t.Fatalf("tenant tallies sum to %d, attested %d", sum, res.AttestedDevices)
	}
	if res.LostFrames() != 0 {
		t.Fatalf("lost %d frames", res.LostFrames())
	}
	if res.RogueRejected != res.RogueAttempts || res.UnattestedIngested != 0 {
		t.Fatalf("rogues: %d/%d rejected, %d ingested",
			res.RogueRejected, res.RogueAttempts, res.UnattestedIngested)
	}
	// A federated run is behaviourally identical to a single-root run:
	// per-device audits do not depend on how trust is partitioned.
	single := res.Config
	single.Federate = false
	single.Rogues = 0
	sres, err := Run(single)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < res.Config.Devices; i++ {
		if got, want := fingerprint(res.DeviceResults[i]), fingerprint(sres.DeviceResults[i]); got != want {
			t.Fatalf("device %d diverged under federation: %s != %s", i, got, want)
		}
	}
}

// TestLifecycleWithChurnAndRollout: the full stack at once — rotation
// and revocation riding a churned, federated, rolling-out fleet — keeps
// the frame-conservation invariant and converges the rollout.
func TestLifecycleWithChurnAndRollout(t *testing.T) {
	res, err := Run(Config{
		Devices:    24,
		Shards:     2,
		Utterances: 2,
		Frames:     2,
		Seed:       11,
		Tenants:    2,
		Federate:   true,
		Rollout:    &RolloutSpec{CanaryFraction: 0.2},
		Churn:      &ChurnSpec{JoinFraction: 0.2, LeaveFraction: 0.2},
		Lifecycle:  &LifecycleSpec{RotateFraction: 0.2, RevokeFraction: 0.1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.LostFrames() != 0 {
		t.Fatalf("lost %d frames", res.LostFrames())
	}
	if res.Rotated == 0 || res.Revoked == 0 {
		t.Fatalf("lifecycle inactive: rotated %d, revoked %d", res.Rotated, res.Revoked)
	}
	if res.RevokeRejected != res.RevokeProbes {
		t.Fatalf("probes: %d/%d rejected", res.RevokeRejected, res.RevokeProbes)
	}
	if res.Rollout == nil || !res.Rollout.Converged {
		t.Fatalf("rollout did not converge: %+v", res.Rollout)
	}
}
