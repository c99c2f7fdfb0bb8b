package experiments

// E10 (Fig-E / Table-6): fleet scaling. The paper's design is evaluated
// one device at a time; the production question is how the sealed-relay
// architecture behaves when a provider ingests a whole population. E10
// sweeps the fleet size at a fixed shard count and reports, per point,
// wall-clock throughput of the simulator, the virtual per-item latency
// distribution, and the per-mode leakage — demonstrating that the
// privacy separation between baseline and secure-filter deployments is
// preserved (and auditable) at fleet scale.

import (
	"bytes"
	"fmt"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/obs"
)

// E10Point is one fleet size in the sweep.
type E10Point struct {
	Devices        int
	Shards         int
	ItemsPerSec    float64 // wall-clock simulator throughput
	P50Us          float64 // virtual per-item latency, merged population
	P99Us          float64
	BaselineLeak   float64 // sensitive tokens per baseline speaker
	FilteredLeak   float64 // sensitive tokens per secure-filter speaker
	LostFrames     int
	IngestedFrames uint64
}

// E10FleetScale sweeps the population size at 4 shards.
func E10FleetScale(seed uint64) (*metrics.Table, []E10Point, error) {
	tbl := metrics.NewTable("E10: fleet scaling (4 shards)",
		"devices", "items/s(wall)", "p50(us)", "p99(us)",
		"base leak/dev", "filt leak/dev", "lost frames")
	var points []E10Point
	for _, devices := range []int{8, 16, 32} {
		res, err := fleet.Run(fleet.Config{
			Devices:    devices,
			Shards:     4,
			Utterances: 2,
			Frames:     2,
			Seed:       seed,
		})
		if err != nil {
			return nil, nil, fmt.Errorf("fleet of %d: %w", devices, err)
		}
		p := E10Point{
			Devices:        devices,
			Shards:         4,
			ItemsPerSec:    res.Throughput(),
			P50Us:          cyclesToUs(res.Latency.Percentile(50)),
			P99Us:          cyclesToUs(res.Latency.Percentile(99)),
			LostFrames:     res.LostFrames(),
			IngestedFrames: res.IngestedFrames(),
		}
		if g := res.Groups[fleet.GroupKey{Kind: core.DeviceSpeaker, Mode: core.ModeBaseline}]; g != nil {
			p.BaselineLeak = float64(g.SensitiveTokens) / float64(g.Devices)
		}
		if g := res.Groups[fleet.GroupKey{Kind: core.DeviceSpeaker, Mode: core.ModeSecureFilter}]; g != nil {
			p.FilteredLeak = float64(g.SensitiveTokens) / float64(g.Devices)
		}
		points = append(points, p)
		tbl.AddRow(p.Devices, p.ItemsPerSec, p.P50Us, p.P99Us,
			p.BaselineLeak, p.FilteredLeak, p.LostFrames)
	}
	return tbl, points, nil
}

// E12Result is the elastic-fleet experiment outcome.
type E12Result struct {
	Devices int
	Joined  int
	Left    int
	// Invariant leg: the non-churned sub-population compared bit-for-bit
	// against a static run of the same seed.
	Compared       int
	AuditIdentical bool
	// Elasticity accounting.
	DrainedShard     string
	AddedShards      int
	RebalancedFrames uint64
	PriorityFrames   uint64
	ShedFrames       uint64
	LostFrames       int
	ItemsPerSec      float64
	// Rollout leg: joiners arrive around a staged rollout and the whole
	// elastic fleet must converge on the published version, which then
	// becomes the ingest floor.
	RolloutConverged bool
	MinVersion       uint64
}

// e12Fingerprint reduces a device result to the audit counters the churn
// invariant protects.
func e12Fingerprint(r *core.DeviceResult) string {
	if r == nil {
		return "<nil>"
	}
	if r.Session != nil {
		a := r.Session.CloudAudit
		return fmt.Sprintf("s:%d/%d/%d/%d/%d", a.Events, a.TokensSeen,
			a.SensitiveTokens, a.AudioBytes, len(r.Session.Utterances))
	}
	c := r.Camera
	return fmt.Sprintf("c:%d/%d/%d/%d", c.Frames, c.PersonFrames,
		c.ForwardedFrames, c.ForwardedPersons)
}

// E12ElasticFleet is the elastic-churn experiment. Leg one: an attested
// 64-device fleet runs once statically and once with 30% joins, 30%
// leaves and a mid-run rebalance (drain shard-00, add a weight-2 shard at
// the halfway point); the claims under test are zero frames lost to the
// rebalance, priority (doorbell/flagged-event) frames never shed, and —
// the invariant — bit-identical audit counters for every device that did
// not churn. Leg two: joiners arrive around a staged model rollout and
// the elastic fleet must still converge on the published version, with
// the verifier's ingest floor raised behind it.
func E12ElasticFleet(seed uint64) (*metrics.Table, E12Result, error) {
	base := fleet.Config{
		Devices:    64,
		Shards:     4,
		Utterances: 2,
		Frames:     2,
		Seed:       seed,
		Attest:     true,
	}
	static, err := fleet.Run(base)
	if err != nil {
		return nil, E12Result{}, fmt.Errorf("static fleet: %w", err)
	}
	elastic := base
	elastic.Churn = &fleet.ChurnSpec{JoinFraction: 0.3, LeaveFraction: 0.3}
	elastic.Rebalance = &fleet.RebalanceSpec{AtFraction: 0.5, DrainShard: 0, AddShards: 1, AddWeight: 2}
	// The invariant leg keeps the fixed (never-shed) policy: a shedding
	// policy's drops depend on host scheduling, and this leg asserts
	// bit-identical audits. Shedding behaviour is pinned by the
	// internal/cloud property tests and the snapshot smoke test.
	res, err := fleet.Run(elastic)
	if err != nil {
		return nil, E12Result{}, fmt.Errorf("elastic fleet: %w", err)
	}

	out := E12Result{
		Devices:          base.Devices,
		Joined:           res.Joined,
		Left:             res.Left,
		AuditIdentical:   true,
		RebalancedFrames: res.RebalancedFrames(),
		PriorityFrames:   res.PriorityFrames(),
		ShedFrames:       res.ShedFrames(),
		LostFrames:       res.LostFrames(),
		ItemsPerSec:      res.Throughput(),
	}
	if res.Rebalance != nil {
		out.DrainedShard = res.Rebalance.DrainedShard
		out.AddedShards = len(res.Rebalance.AddedShards)
	}
	left := make(map[int]bool, len(res.Leavers))
	for _, i := range res.Leavers {
		left[i] = true
	}
	for i := 0; i < base.Devices; i++ {
		if left[i] {
			continue
		}
		if e12Fingerprint(res.DeviceResults[i]) != e12Fingerprint(static.DeviceResults[i]) {
			out.AuditIdentical = false
			break
		}
		out.Compared++
	}

	// Leg two: churned joins against a staged rollout.
	rollout := base
	rollout.Devices = 48
	rollout.Rollout = &fleet.RolloutSpec{CanaryFraction: 0.1}
	rollout.Churn = &fleet.ChurnSpec{JoinFraction: 0.3}
	rres, err := fleet.Run(rollout)
	if err != nil {
		return nil, E12Result{}, fmt.Errorf("elastic rollout fleet: %w", err)
	}
	if rres.Rollout != nil {
		out.RolloutConverged = rres.Rollout.Converged
		out.MinVersion = rres.Rollout.MinVersion
	}

	tbl := metrics.NewTable("E12: elastic fleet (30% churn, mid-run drain + weighted add)",
		"devices", "joined", "left", "non-churned identical", "drained", "added",
		"rebal frames", "prio frames", "shed", "lost", "items/s(wall)",
		"rollout converged", "min-ver")
	tbl.AddRow(out.Devices, out.Joined, out.Left,
		fmt.Sprintf("%v (%d compared)", out.AuditIdentical, out.Compared), out.DrainedShard, out.AddedShards,
		out.RebalancedFrames, out.PriorityFrames, out.ShedFrames, out.LostFrames,
		out.ItemsPerSec, out.RolloutConverged, out.MinVersion)
	if !out.AuditIdentical {
		return tbl, out, fmt.Errorf("elastic fleet: non-churned sub-population diverged from the static run")
	}
	return tbl, out, nil
}

// E13Result is the attestation-lifecycle experiment outcome.
type E13Result struct {
	Devices int
	// Rotation leg: RotateFraction of the fleet's keys rotate mid-run.
	Rotated int
	// Compared non-rotated AND rotated devices bit-identical to a static
	// run (rotation is control plane; the data plane must not notice).
	Compared       int
	AuditIdentical bool
	KeyEpochs      map[uint64]int
	// Revocation leg: devices revoked mid-run, probe frames fired under
	// their identities; every probe must be rejected (not shed).
	Revoked       int
	ProbeAttempts int
	ProbeRejected int
	LostFrames    int
	ItemsPerSec   float64
	// Federation leg: per-tenant verifiers over the same population.
	Tenants        int
	TenantAttested map[string]int
	FederationOK   bool
}

// E13AttestationLifecycle is the attestation-lifecycle experiment.
// Leg one: an attested 64-device fleet runs once statically and once
// with 20% of its keys rotated mid-run (tokens issued before the
// handshake so the whole workload flows inside the rotation's grace
// window) plus 10% of devices revoked after completing; the claims under
// test are zero lost frames, every device's audit counters bit-identical
// to the static run, every rotated device re-attested at epoch 1, and
// every post-revocation probe rejected — not shed — within one frame.
// Leg two: the same population under a per-tenant verifier federation;
// each tenant's verifier must attest exactly its own stripe and the
// frame-conservation invariant must hold unchanged.
func E13AttestationLifecycle(seed uint64) (*metrics.Table, E13Result, error) {
	base := fleet.Config{
		Devices:    64,
		Shards:     4,
		Utterances: 2,
		Frames:     2,
		Seed:       seed,
		Attest:     true,
	}
	static, err := fleet.Run(base)
	if err != nil {
		return nil, E13Result{}, fmt.Errorf("static fleet: %w", err)
	}
	lifecycle := base
	lifecycle.Lifecycle = &fleet.LifecycleSpec{RotateFraction: 0.2, RevokeFraction: 0.1}
	res, err := fleet.Run(lifecycle)
	if err != nil {
		return nil, E13Result{}, fmt.Errorf("lifecycle fleet: %w", err)
	}

	out := E13Result{
		Devices:        base.Devices,
		Rotated:        res.Rotated,
		AuditIdentical: true,
		KeyEpochs:      res.KeyEpochs,
		Revoked:        res.Revoked,
		ProbeAttempts:  res.RevokeProbes,
		ProbeRejected:  res.RevokeRejected,
		LostFrames:     res.LostFrames(),
		ItemsPerSec:    res.Throughput(),
	}
	for i := 0; i < base.Devices; i++ {
		if e12Fingerprint(res.DeviceResults[i]) != e12Fingerprint(static.DeviceResults[i]) {
			out.AuditIdentical = false
			break
		}
		out.Compared++
	}

	// Leg two: per-tenant federation over the same population.
	federated := base
	federated.Tenants = 4
	federated.Federate = true
	fres, err := fleet.Run(federated)
	if err != nil {
		return nil, E13Result{}, fmt.Errorf("federated fleet: %w", err)
	}
	out.Tenants = federated.Tenants
	out.TenantAttested = fres.TenantAttested
	sum := 0
	for _, n := range fres.TenantAttested {
		sum += n
	}
	out.FederationOK = len(fres.TenantAttested) == federated.Tenants &&
		sum == fres.AttestedDevices && fres.LostFrames() == 0

	tbl := metrics.NewTable("E13: attestation lifecycle (20% rotation, 10% revocation, 4-tenant federation)",
		"devices", "rotated", "epoch tally", "revoked", "probes rejected",
		"audit identical", "lost", "items/s(wall)", "tenants", "federation ok")
	tbl.AddRow(out.Devices, out.Rotated, fmt.Sprintf("%v", out.KeyEpochs), out.Revoked,
		fmt.Sprintf("%d/%d", out.ProbeRejected, out.ProbeAttempts),
		fmt.Sprintf("%v (%d compared)", out.AuditIdentical, out.Compared),
		out.LostFrames, out.ItemsPerSec, out.Tenants, out.FederationOK)
	switch {
	case !out.AuditIdentical:
		return tbl, out, fmt.Errorf("lifecycle fleet: audits diverged from the static run")
	case out.LostFrames != 0:
		return tbl, out, fmt.Errorf("lifecycle fleet: lost %d frames", out.LostFrames)
	case out.ProbeRejected != out.ProbeAttempts:
		return tbl, out, fmt.Errorf("lifecycle fleet: %d/%d revocation probes rejected",
			out.ProbeRejected, out.ProbeAttempts)
	case res.RevokeDelivered != 0:
		return tbl, out, fmt.Errorf("lifecycle fleet: %d revocation probes reached an endpoint (gate bypass)",
			res.RevokeDelivered)
	case out.KeyEpochs[1] != out.Rotated:
		return tbl, out, fmt.Errorf("lifecycle fleet: epoch tally %v for %d rotations",
			out.KeyEpochs, out.Rotated)
	case !out.FederationOK:
		return tbl, out, fmt.Errorf("federated fleet: tenant tallies %v inconsistent", out.TenantAttested)
	}
	return tbl, out, nil
}

// E14Result is the frame-telemetry experiment outcome.
type E14Result struct {
	Devices        int
	SampledDevices int
	Spans          uint64
	// Terminal-span tallies at 1-in-1 sampling, which must equal the
	// audit counters bit-exactly (every frame's fate is witnessed by
	// exactly one verdict-bearing span).
	Delivered uint64
	Shed      uint64
	Rejected  uint64
	// The audit side of the equalities.
	IngestedFrames uint64
	ShedFrames     uint64
	RejectedFrames uint64
	// Control-plane telemetry.
	Verbs     map[string]uint64
	Anomalies int
	DumpBytes int
	// RoundTrip reports whether the exported dump parses back into the
	// same verdict counters under the strict grammar.
	RoundTrip   bool
	ItemsPerSec float64
}

// E14FrameTelemetry is the end-to-end telemetry experiment: an attested
// 64-device fleet with mid-run key rotation, revocations (probe frames
// fired under revoked identities), rogue unattested clients and a
// load-shedding admission policy, traced at 1-in-1 sampling. The claim
// under test is trace↔audit consistency: with every device sampled,
// exactly one verdict-bearing span witnesses each frame's fate, so the
// per-verdict span tallies equal the ingest tier's audit counters
// bit-exactly — delivered spans == ingested frames, shed spans == shed
// frames, rejection spans == per-reason rejection counters — and the
// equalities survive a dump/parse round trip under the strict
// metadata-only grammar.
func E14FrameTelemetry(seed uint64) (*metrics.Table, E14Result, error) {
	res, err := fleet.Run(fleet.Config{
		Devices:      64,
		Shards:       4,
		ShardWorkers: 2,
		ShardQueue:   2,
		Utterances:   2,
		Frames:       2,
		Seed:         seed,
		Policy:       "shed",
		Lifecycle:    &fleet.LifecycleSpec{RotateFraction: 0.2, RevokeFraction: 0.1},
		Rogues:       4,
		Trace:        &fleet.TraceSpec{SampleEvery: 1},
	})
	if err != nil {
		return nil, E14Result{}, fmt.Errorf("traced fleet: %w", err)
	}
	tel := res.Telemetry
	if tel == nil {
		return nil, E14Result{}, fmt.Errorf("traced fleet returned no telemetry block")
	}
	out := E14Result{
		Devices:        res.Config.Devices,
		SampledDevices: tel.SampledDevices(),
		Spans:          tel.SpanCount(),
		Delivered:      tel.VerdictCount(obs.VerdictDelivered),
		Shed:           tel.VerdictCount(obs.VerdictShed),
		Rejected:       tel.RejectedCount(),
		IngestedFrames: res.IngestedFrames(),
		ShedFrames:     res.ShedFrames(),
		Verbs:          tel.Verbs,
		Anomalies:      len(tel.Anomalies),
		ItemsPerSec:    res.Throughput(),
	}
	var rejRevoked, rejStale, rejForged, rejPolicy uint64
	for _, s := range res.ShardStats {
		out.RejectedFrames += s.Rejected
		rejRevoked += s.RejectedRevoked
		rejStale += s.RejectedStale
		rejForged += s.RejectedForged
		rejPolicy += s.RejectedPolicy
	}

	var dump bytes.Buffer
	if err := tel.WriteDump(&dump); err != nil {
		return nil, E14Result{}, fmt.Errorf("trace dump: %w", err)
	}
	out.DumpBytes = dump.Len()
	parsed, err := obs.ParseDump(&dump)
	if err != nil {
		return nil, E14Result{}, fmt.Errorf("trace dump does not parse under the strict grammar: %w", err)
	}
	out.RoundTrip = parsed.VerdictCount(obs.VerdictDelivered) == out.Delivered &&
		parsed.VerdictCount(obs.VerdictShed) == out.Shed &&
		parsed.RejectedCount() == out.Rejected

	tbl := metrics.NewTable("E14: frame telemetry (1-in-1 sampling, shed policy, lifecycle + rogues)",
		"devices", "sampled", "spans", "delivered==ingested", "shed==shed",
		"rejected==rejected", "verbs", "anomalies", "dump bytes", "items/s(wall)")
	tbl.AddRow(out.Devices, out.SampledDevices, out.Spans,
		fmt.Sprintf("%d==%d", out.Delivered, out.IngestedFrames),
		fmt.Sprintf("%d==%d", out.Shed, out.ShedFrames),
		fmt.Sprintf("%d==%d", out.Rejected, out.RejectedFrames),
		fmt.Sprintf("%v", out.Verbs), out.Anomalies, out.DumpBytes, out.ItemsPerSec)
	switch {
	case out.SampledDevices != res.Config.Devices+res.Config.Rogues:
		return tbl, out, fmt.Errorf("telemetry: sampled %d of %d clients at 1-in-1",
			out.SampledDevices, res.Config.Devices+res.Config.Rogues)
	case out.Delivered != out.IngestedFrames:
		return tbl, out, fmt.Errorf("telemetry: %d delivered spans vs %d ingested frames",
			out.Delivered, out.IngestedFrames)
	case out.Shed != out.ShedFrames:
		return tbl, out, fmt.Errorf("telemetry: %d shed spans vs %d shed frames",
			out.Shed, out.ShedFrames)
	case out.Rejected != out.RejectedFrames:
		return tbl, out, fmt.Errorf("telemetry: %d rejection spans vs %d rejected frames",
			out.Rejected, out.RejectedFrames)
	case tel.VerdictCount(obs.VerdictRejectedRevoked) != rejRevoked ||
		tel.VerdictCount(obs.VerdictRejectedStale) != rejStale ||
		tel.VerdictCount(obs.VerdictRejectedForged) != rejForged ||
		tel.VerdictCount(obs.VerdictRejectedPolicy) != rejPolicy:
		return tbl, out, fmt.Errorf("telemetry: per-reason rejection spans diverge from shard counters")
	case out.Verbs[obs.VerbRotate] != uint64(res.Rotated):
		return tbl, out, fmt.Errorf("telemetry: %d rotate verbs vs %d rotations",
			out.Verbs[obs.VerbRotate], res.Rotated)
	case out.Verbs[obs.VerbRevoke] != uint64(res.Revoked):
		return tbl, out, fmt.Errorf("telemetry: %d revoke verbs vs %d revocations",
			out.Verbs[obs.VerbRevoke], res.Revoked)
	case res.Revoked > 0 && out.Anomalies == 0:
		return tbl, out, fmt.Errorf("telemetry: revocations occurred but no anomaly was recorded")
	case !out.RoundTrip:
		return tbl, out, fmt.Errorf("telemetry: dump round trip changed the verdict tallies")
	}
	return tbl, out, nil
}

// E11Result is the attested-rollout experiment outcome.
type E11Result struct {
	Devices         int
	AttestedDevices int
	Canary          int
	ToVersion       uint64
	Converged       bool
	VersionCounts   map[uint64]int
	ItemsPerSec     float64
	LostFrames      int
	// Adversarial-ingest outcome: every rogue frame must be rejected at
	// the shard frontend and none may reach an endpoint.
	RogueAttempts      int
	RogueRejected      int
	UnattestedIngested int
}

// E11AttestedRollout runs the attested fleet with a staged (10% canary →
// full fleet) model rollout and adversarial unattested clients. The
// claims under test: no unattested event is ever ingested (the shard
// admission gate backs the attestation verifier), the fleet converges on
// the published model version with zero lost frames, and the handshake +
// rollout control plane does not disturb the data plane's privacy audit.
func E11AttestedRollout(seed uint64) (*metrics.Table, E11Result, error) {
	res, err := fleet.Run(fleet.Config{
		Devices:    64,
		Shards:     4,
		Utterances: 2,
		Frames:     2,
		Seed:       seed,
		Rollout:    &fleet.RolloutSpec{CanaryFraction: 0.1},
		Rogues:     4,
	})
	if err != nil {
		return nil, E11Result{}, fmt.Errorf("attested fleet: %w", err)
	}
	out := E11Result{
		Devices:            res.Config.Devices,
		AttestedDevices:    res.AttestedDevices,
		ItemsPerSec:        res.Throughput(),
		LostFrames:         res.LostFrames(),
		VersionCounts:      res.ModelVersions,
		RogueAttempts:      res.RogueAttempts,
		RogueRejected:      res.RogueRejected,
		UnattestedIngested: res.UnattestedIngested,
	}
	if res.Rollout != nil {
		out.Canary = res.Rollout.Canary
		out.ToVersion = res.Rollout.ToVersion
		out.Converged = res.Rollout.Converged
	}
	tbl := metrics.NewTable("E11: attested rollout (10% canary, 4 rogues)",
		"devices", "attested", "canary", "to-ver", "converged",
		"items/s(wall)", "lost frames", "rogue rej/att", "unattested ingested")
	tbl.AddRow(out.Devices, out.AttestedDevices, out.Canary, out.ToVersion, out.Converged,
		out.ItemsPerSec, out.LostFrames,
		fmt.Sprintf("%d/%d", out.RogueRejected, out.RogueAttempts), out.UnattestedIngested)
	return tbl, out, nil
}

// E15Result is the deterministic-chaos experiment outcome.
type E15Result struct {
	Devices int
	Touched int
	// Replay leg: the same crash-free chaos plan run twice must produce
	// bit-identical per-device audits and identical injection counters.
	Replayable bool
	Injected   uint64
	Expired    int
	// Conservation: expected == ingested + shed + expired on every leg
	// (LostFrames stays 0 through the whole chaos plan).
	LostCalm, LostReplay, LostCrash int
	// Identity: devices with zero expired events must be bit-identical to
	// the fault-free run (Compared of them were; includes every untouched
	// device), and every expired device must be one the plan touches.
	Compared              int
	AuditIdentical        bool
	ExpiredOutsideTouched int
	// Crash leg: scheduled shard crashes healed by the supervisor.
	Crashes           int
	Restarts          uint64
	QueuedAtCrash     int
	Recovered         uint64
	Duplicates        uint64
	DuplicatesDropped uint64
	Retries           uint64
	RetryRecovered    uint64
	TEEFaults         int
	ItemsPerSec       float64
}

// expiredEvents counts one device's explicit expiries.
func expiredEvents(r *core.DeviceResult) int {
	if r == nil {
		return 0
	}
	return r.Expired()
}

// E15ChaosFleet is the deterministic-chaos experiment. A fault-free
// attested fleet is the reference; leg one replays a crash-free chaos
// plan (seeded uplink drops, duplicates, delays and expiry blackholes on
// half the population, plus stragglers, a slow shard and transient TEE
// provisioning errors) twice and demands bit-identical per-device audits
// between the two runs; leg two adds scheduled shard crashes under live
// traffic. The claims under test: the conservation identity expected ==
// ingested + shed + expired holds on every leg (zero lost frames through
// crashes, drops and duplicates), every crash is healed by exactly one
// supervised restart that replays the frames stranded in the dead
// shard's queue, injected duplicates never double-count an audit, only
// plan-touched devices ever expire a frame, and every device with zero
// expiries — the whole untouched sub-population included — is
// bit-identical to the fault-free run.
func E15ChaosFleet(seed uint64) (*metrics.Table, E15Result, error) {
	base := fleet.Config{
		Devices:    64,
		Shards:     4,
		Utterances: 3,
		Frames:     3,
		Seed:       seed,
		Attest:     true,
	}
	calm, err := fleet.Run(base)
	if err != nil {
		return nil, E15Result{}, fmt.Errorf("fault-free fleet: %w", err)
	}

	// Leg one: crash-free chaos, twice. Without crashes every delivery
	// decision is a pure function of per-device seeded streams, so the
	// two runs must agree bit-for-bit.
	spec := fleet.FaultSpec{
		TouchFraction: 0.5,
		DropRate:      0.2,
		DuplicateRate: 0.15,
		DelayRate:     0.1,
		ExpireRate:    0.1,
		SlowFraction:  0.25,
		TEEFraction:   0.25,
		SlowShard:     1,
	}
	chaos := base
	chaos.Faults = &spec
	replayA, err := fleet.Run(chaos)
	if err != nil {
		return nil, E15Result{}, fmt.Errorf("chaos fleet (replay A): %w", err)
	}
	chaos = base
	specB := spec
	chaos.Faults = &specB
	replayB, err := fleet.Run(chaos)
	if err != nil {
		return nil, E15Result{}, fmt.Errorf("chaos fleet (replay B): %w", err)
	}

	// Leg two: the same injection mix with two scheduled shard crashes.
	// Crash timing interleaves with live traffic under wall-clock
	// scheduling, so this leg asserts the recovery invariants rather than
	// bit-replay.
	specC := spec
	specC.Crashes = 2
	chaos = base
	chaos.Faults = &specC
	crash, err := fleet.Run(chaos)
	if err != nil {
		return nil, E15Result{}, fmt.Errorf("chaos fleet (crashes): %w", err)
	}
	if replayA.Faults == nil || crash.Faults == nil {
		return nil, E15Result{}, fmt.Errorf("chaos fleet returned no fault report")
	}

	out := E15Result{
		Devices:           base.Devices,
		Touched:           replayA.Faults.Touched,
		Replayable:        true,
		Injected:          replayA.Faults.Injected,
		Expired:           replayA.Faults.Expired,
		LostCalm:          calm.LostFrames(),
		LostReplay:        replayA.LostFrames(),
		LostCrash:         crash.LostFrames(),
		AuditIdentical:    true,
		Crashes:           crash.Faults.Crashes,
		Restarts:          crash.Faults.Restarts,
		QueuedAtCrash:     crash.Faults.QueuedAtCrash,
		Recovered:         crash.Faults.Recovered,
		Duplicates:        crash.Faults.Duplicates,
		DuplicatesDropped: crash.Faults.DuplicatesDropped,
		Retries:           crash.Faults.Retries,
		RetryRecovered:    crash.Faults.RetryRecovered,
		TEEFaults:         crash.Faults.TEEFaults,
		ItemsPerSec:       crash.Throughput(),
	}

	// Bit-replay: every device, injected or not, agrees across the two
	// crash-free chaos runs; the plan's counters agree too.
	a, b := replayA.Faults, replayB.Faults
	if a.Injected != b.Injected || a.Drops != b.Drops || a.Duplicates != b.Duplicates ||
		a.Delays != b.Delays || a.Blackholes != b.Blackholes || a.Expired != b.Expired {
		out.Replayable = false
	}
	for i := range replayA.DeviceResults {
		if e12Fingerprint(replayA.DeviceResults[i]) != e12Fingerprint(replayB.DeviceResults[i]) {
			out.Replayable = false
			break
		}
	}

	// Identity vs the fault-free run, and expiry containment, on both
	// chaos legs.
	touched := make(map[int]bool, len(replayA.Faults.TouchedDevices))
	for _, i := range replayA.Faults.TouchedDevices {
		touched[i] = true
	}
	for _, res := range []*fleet.Result{replayA, crash} {
		for i := range res.DeviceResults {
			if expiredEvents(res.DeviceResults[i]) > 0 {
				if !touched[i] {
					out.ExpiredOutsideTouched++
				}
				continue
			}
			if e12Fingerprint(res.DeviceResults[i]) != e12Fingerprint(calm.DeviceResults[i]) {
				out.AuditIdentical = false
			} else {
				out.Compared++
			}
		}
	}

	tbl := metrics.NewTable("E15: deterministic chaos (50% touched, drops+dups+delays+expiries, 2 crashes)",
		"devices", "touched", "replayable", "injected", "expired",
		"lost calm/replay/crash", "identical", "crashes", "restarts",
		"queued@crash", "recovered", "dups inj/dropped", "retries", "tee faults", "items/s(wall)")
	tbl.AddRow(out.Devices, out.Touched, out.Replayable, out.Injected, out.Expired,
		fmt.Sprintf("%d/%d/%d", out.LostCalm, out.LostReplay, out.LostCrash),
		fmt.Sprintf("%v (%d compared)", out.AuditIdentical, out.Compared),
		out.Crashes, out.Restarts, out.QueuedAtCrash, out.Recovered,
		fmt.Sprintf("%d/%d", out.Duplicates, out.DuplicatesDropped),
		out.Retries, out.TEEFaults, out.ItemsPerSec)

	switch {
	case !out.Replayable:
		return tbl, out, fmt.Errorf("chaos: two runs of the same crash-free plan diverged")
	case out.LostCalm != 0 || out.LostReplay != 0 || out.LostCrash != 0:
		return tbl, out, fmt.Errorf("chaos: lost frames %d/%d/%d (calm/replay/crash), want 0",
			out.LostCalm, out.LostReplay, out.LostCrash)
	case out.ExpiredOutsideTouched != 0:
		return tbl, out, fmt.Errorf("chaos: %d devices outside the plan's touched set expired frames",
			out.ExpiredOutsideTouched)
	case !out.AuditIdentical:
		return tbl, out, fmt.Errorf("chaos: a zero-expiry device diverged from the fault-free run")
	case out.Crashes != 2 || out.Restarts != uint64(out.Crashes):
		return tbl, out, fmt.Errorf("chaos: %d crashes healed by %d restarts, want 2/2",
			out.Crashes, out.Restarts)
	case out.Recovered != uint64(out.QueuedAtCrash):
		return tbl, out, fmt.Errorf("chaos: %d frames stranded at crash but %d replayed",
			out.QueuedAtCrash, out.Recovered)
	case out.DuplicatesDropped > out.Duplicates:
		return tbl, out, fmt.Errorf("chaos: dedup dropped %d frames but only %d duplicates were injected",
			out.DuplicatesDropped, out.Duplicates)
	case out.Expired == 0:
		return tbl, out, fmt.Errorf("chaos: expiry blackholes injected but no frame expired")
	case out.TEEFaults == 0:
		return tbl, out, fmt.Errorf("chaos: TEE fault fraction set but no device hit one")
	}
	return tbl, out, nil
}

// E16Result is the cross-device batch-scheduler experiment outcome.
type E16Result struct {
	Devices int
	Joined  int
	Left    int
	Rotated int
	// Equivalence leg: every device of the scheduled run compared
	// bit-for-bit against the per-device-classify run of the same seed.
	Compared       int
	AuditIdentical bool
	// Scheduler accounting.
	Batches             uint64
	BatchedItems        uint64
	MeanOccupancy       float64
	MaxOccupancy        int
	MixedVersionFlushes uint64
	PressureFlushes     uint64
	LostFrames          int
	ItemsPerSec         float64
	// Rollout leg: canaries classify on the target version's queue while
	// the stable cohort stays on the base queue; the fleet still
	// converges and the ingest floor rises.
	RolloutConverged bool
	MinVersion       uint64
}

// E16BatchScheduler is the shared-TEE batch-scheduler experiment. The
// same elastic fleet — churn, mid-run key rotations, a staged model
// rollout — runs twice: once on the per-device classify path and once
// with every secure-filter speaker submitting to the shared cross-device
// scheduler (per-model-version queues, flush on batch-full or max-age).
// The claims under test: every device's audit counters are bit-identical
// between the two runs (batching is latency machinery, never a
// correctness knob), no flush ever mixes model versions, the scheduler
// actually coalesces (flushes above occupancy 1), zero frames are lost,
// and the rollout still converges with the ingest floor raised.
func E16BatchScheduler(seed uint64) (*metrics.Table, E16Result, error) {
	base := fleet.Config{
		Devices:    48,
		Shards:     4,
		Utterances: 3,
		Frames:     2,
		Seed:       seed,
		Rollout:    &fleet.RolloutSpec{CanaryFraction: 0.2},
		Churn:      &fleet.ChurnSpec{JoinFraction: 0.25, LeaveFraction: 0.25},
		Lifecycle:  &fleet.LifecycleSpec{RotateFraction: 0.25},
	}
	plain, err := fleet.Run(base)
	if err != nil {
		return nil, E16Result{}, fmt.Errorf("per-device fleet: %w", err)
	}
	scheduled := base
	scheduled.Sched = &fleet.SchedSpec{}
	res, err := fleet.Run(scheduled)
	if err != nil {
		return nil, E16Result{}, fmt.Errorf("scheduled fleet: %w", err)
	}
	if res.Sched == nil {
		return nil, E16Result{}, fmt.Errorf("scheduled fleet returned no scheduler report")
	}

	out := E16Result{
		Devices:             base.Devices,
		Joined:              res.Joined,
		Left:                res.Left,
		Rotated:             res.Rotated,
		AuditIdentical:      true,
		Batches:             res.Sched.Batches,
		BatchedItems:        res.Sched.Items,
		MeanOccupancy:       res.Sched.MeanOccupancy,
		MaxOccupancy:        res.Sched.MaxOccupancy,
		MixedVersionFlushes: res.Sched.MixedVersionFlushes,
		PressureFlushes:     res.Sched.PressureFlushes,
		LostFrames:          res.LostFrames(),
		ItemsPerSec:         res.Throughput(),
	}
	if res.Rollout != nil {
		out.RolloutConverged = res.Rollout.Converged
		out.MinVersion = res.Rollout.MinVersion
	}
	if len(res.DeviceResults) != len(plain.DeviceResults) {
		return nil, out, fmt.Errorf("population diverged: %d vs %d devices",
			len(res.DeviceResults), len(plain.DeviceResults))
	}
	for i := range plain.DeviceResults {
		if e12Fingerprint(res.DeviceResults[i]) != e12Fingerprint(plain.DeviceResults[i]) {
			out.AuditIdentical = false
			continue
		}
		out.Compared++
	}

	tbl := metrics.NewTable("E16: cross-device batch scheduler (48 devices, churn + rotation + rollout)",
		"devices", "joined/left/rotated", "identical", "batches", "items",
		"occupancy mean/max", "mixed-version", "lost frames", "converged@floor", "items/s(wall)")
	tbl.AddRow(out.Devices,
		fmt.Sprintf("%d/%d/%d", out.Joined, out.Left, out.Rotated),
		fmt.Sprintf("%v (%d compared)", out.AuditIdentical, out.Compared),
		out.Batches, out.BatchedItems,
		fmt.Sprintf("%.2f/%d", out.MeanOccupancy, out.MaxOccupancy),
		out.MixedVersionFlushes, out.LostFrames,
		fmt.Sprintf("%v@v%d", out.RolloutConverged, out.MinVersion),
		out.ItemsPerSec)

	switch {
	case !out.AuditIdentical:
		return tbl, out, fmt.Errorf("scheduler: a device's audit diverged from the per-device classify run")
	case out.LostFrames != 0:
		return tbl, out, fmt.Errorf("scheduler: lost %d frames, want 0", out.LostFrames)
	case out.MixedVersionFlushes != 0:
		return tbl, out, fmt.Errorf("scheduler: %d flushes mixed model versions", out.MixedVersionFlushes)
	case out.Batches == 0 || out.BatchedItems == 0:
		return tbl, out, fmt.Errorf("scheduler: classified nothing (%d batches, %d items)",
			out.Batches, out.BatchedItems)
	case out.MaxOccupancy <= 1:
		return tbl, out, fmt.Errorf("scheduler: never coalesced (max occupancy %d)", out.MaxOccupancy)
	case out.Joined == 0 || out.Left == 0 || out.Rotated == 0:
		return tbl, out, fmt.Errorf("scheduler: churn/rotation did not fire (joined %d, left %d, rotated %d)",
			out.Joined, out.Left, out.Rotated)
	case !out.RolloutConverged:
		return tbl, out, fmt.Errorf("scheduler: rollout did not converge")
	}
	return tbl, out, nil
}
