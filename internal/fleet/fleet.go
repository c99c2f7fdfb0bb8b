// Package fleet is the orchestration layer that scales the paper's
// single-device pipeline to a device population. It instantiates N
// concurrent device pipelines (smart speakers and camera doorbells in a
// mix of deployment modes, via the core device factory), multiplexes
// their cloud-bound traffic into a sharded ingest tier (per-shard
// provider endpoints behind a consistent-hash router, bounded worker
// pools, channel backpressure), and drives secure speakers through the
// TA's batched-inference path so a device pays one world-switch round
// trip per utterance batch instead of per utterance.
//
// In attested deployments (Config.Attest) the orchestration also runs
// the trust handshake the confidential-computing model demands: every
// device's TEE signs a measurement report over a verifier challenge
// before its endpoint joins the ring, the verifier gates every ingested
// frame, and a staged model rollout (Config.Rollout) moves the fleet
// from one sealed model-pack version to the next — canary cohort first,
// full fleet after the canary verdict — with hot-swaps that never drop
// an in-flight batch. See internal/attest for the protocol pieces.
//
// Everything below the orchestration is the unmodified per-device
// simulation: virtual-cycle latencies stay deterministic per root seed;
// only wall-clock throughput depends on the host.
package fleet

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/attest"
	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/peripheral"
	"repro/internal/sensitive"
)

// ErrBadConfig is returned for invalid fleet configurations.
var ErrBadConfig = errors.New("fleet: invalid config")

// hashReplicas is the consistent-hash ring points per shard.
const hashReplicas = 64

// unitFraction reports whether v lies in [0, 1]. NaN compares false
// against both bounds, so it fails here too.
func unitFraction(v float64) bool { return v >= 0 && v <= 1 }

// Config parameterizes one fleet run.
type Config struct {
	// Devices is the population size.
	Devices int
	// DoorbellFraction is the share of camera doorbells (the rest are
	// smart speakers). 0 means default (0.25); pass any negative value
	// for an explicitly speakers-only fleet.
	DoorbellFraction float64
	// Mix weights the deployment modes across speakers, keyed by
	// core.Mode (see MixSpec); nil means the default 1:1:1 over
	// baseline : secure-nofilter : secure-filter. Doorbells alternate
	// baseline and secure-filter (the no-filter middle mode is
	// meaningless for images), plus hybrid-he when the mix weights it.
	Mix MixSpec

	// Shards is the number of ingest partitions; default 4.
	Shards int
	// ShardWorkers is the number of frames a shard serves at once, each
	// on the executor that ingests it; default 4.
	ShardWorkers int
	// ShardQueue is the per-shard bulk-queue depth the admission policy
	// and the scheduler's pressure gauge judge occupancy against;
	// default 2×ShardWorkers.
	ShardQueue int

	// DeviceWorkers sizes the executor pool that drives device tasks;
	// default GOMAXPROCS. A device waiting on a shared classify flush or
	// on the rollout verdict parks without holding an executor.
	DeviceWorkers int
	// Batch is the TA batch size for secure speakers (1 disables
	// batching); default 4, capped at core.MaxBatch. When the cap
	// applies, the clamp is surfaced in Result.RequestedBatch vs
	// Result.EffectiveBatch rather than silently rewriting the config.
	Batch int

	// Sched enables the shared cross-device TEE inference scheduler:
	// secure-filter speakers submit their classify stage to per-model-
	// version queues that flush on batch-full or max-age, replacing the
	// per-device forward pass with one shared batched pass. Audits are
	// bit-identical to the per-device path — the scheduler is latency
	// machinery only. Nil keeps the per-device path.
	Sched *SchedSpec

	// Async is ignored: every run uses the event-driven engine, sized by
	// DeviceWorkers, and reports it in Result.Async.
	//
	// Deprecated: set DeviceWorkers instead.
	Async *AsyncSpec

	// Utterances per speaker (default 4) and Frames per doorbell
	// (default 6).
	Utterances int
	Frames     int
	// SensitiveFraction of the workload carries private content.
	// 0 means default (0.4); negative means an explicitly all-benign
	// workload; 1 means all-sensitive.
	SensitiveFraction float64

	// Seed is the root seed: device seeds, workloads and the shared
	// provisioned model all derive from it. Default 1.
	Seed uint64

	// Churn drives mid-run population churn: joiners that arrive while
	// the base population is processing (full provision → attest →
	// handshake on arrival) and leavers that depart early, releasing
	// their sessions cleanly. Nil means a static population.
	Churn *ChurnSpec
	// Rebalance schedules a mid-run ingest-tier rebalance (add weighted
	// shards and/or drain one) at a configurable point in the run. Nil
	// means a static tier.
	Rebalance *RebalanceSpec
	// Policy selects the per-shard admission policy: "" or "fixed"
	// (blocking fixed-depth queue, the PR-1 behaviour), "shed"
	// (load-shedding above the queue high-water mark), "fair" (per-tenant
	// fair share). Priority frames are never shed under any policy.
	Policy string
	// Tenants is the number of billing tenants device traffic is striped
	// across (the fair-share policy's unit of accounting); default 4.
	Tenants int

	// Attest enables remote attestation: every device produces TA-signed
	// evidence before its endpoint joins the ring, and the ingest tier
	// rejects frames from unattested or stale-model devices.
	Attest bool
	// Rollout stages an online model rollout during the run (implies
	// Attest); see RolloutSpec.
	Rollout *RolloutSpec
	// Rogues adds adversarial clients that register ingest endpoints
	// without attesting; the admission gate must reject every frame they
	// send. Setting Rogues implies Attest.
	Rogues int
	// Lifecycle drives mid-run attestation-lifecycle events: key
	// rotations issued while the rotating devices' frames are in flight
	// (the verifier honors the old epoch under a grace window until the
	// device redeems the token in its TEE and re-attests), and
	// revocations of completed devices followed by probe frames that the
	// ingest tier must reject — not shed. Implies Attest.
	Lifecycle *LifecycleSpec
	// Federate gives every tenant its own attestation verifier: digest
	// policy, minimum model version, key epochs and revocation list are
	// tenant-owned, and the ingest tier routes every frame's admission
	// by the tenant label the frontend reads from the connection.
	// Implies Attest.
	Federate bool

	// Faults compiles a deterministic chaos plan against the run: seeded
	// uplink drops/duplicates/delays/expiries on a touched subset of the
	// population, scheduled shard crash/restart cycles healed by a
	// supervisor, a run-long slow shard, and transient TEE provisioning
	// errors — all replayable from the plan seed. Nil disables chaos
	// entirely (no injector, no retry layer, no supervisor on the hot
	// path).
	Faults *FaultSpec

	// Trace enables end-to-end frame telemetry: virtual-time tracing
	// spans on a deterministic 1-in-N device sample, per-shard flight
	// recorders dumped on anomaly, and the aggregated histogram registry
	// in Result.Telemetry. Nil disables telemetry entirely — untraced
	// runs pay nothing on the hot path.
	Trace *TraceSpec
}

// TraceSpec parameterizes the run's frame telemetry.
type TraceSpec struct {
	// SampleEvery traces 1 in N devices; the decision is a pure function
	// of each device's trace seed (core.SaltTrace off the root seed), so
	// the sampled set — and the exported dump — is bit-reproducible.
	// Default 64; 1 traces every device.
	SampleEvery int
}

func (t *TraceSpec) fillDefaults() error {
	if t.SampleEvery < 0 {
		return fmt.Errorf("%w: trace sample rate %d", ErrBadConfig, t.SampleEvery)
	}
	if t.SampleEvery == 0 {
		t.SampleEvery = 64
	}
	return nil
}

// own points *p at a private copy of the caller's spec, so the defaults
// filled into it never write through to a spec the caller may reuse
// (for another seed, say).
func own[T any](p **T) {
	if *p != nil {
		c := **p
		*p = &c
	}
}

func (c *Config) fillDefaults() error {
	own(&c.Sched)
	own(&c.Rebalance)
	own(&c.Rollout)
	own(&c.Trace)
	own(&c.Faults)
	if c.Devices <= 0 {
		c.Devices = 16
	}
	if c.DoorbellFraction > 1 || math.IsNaN(c.DoorbellFraction) {
		return fmt.Errorf("%w: doorbell fraction %g", ErrBadConfig, c.DoorbellFraction)
	}
	switch {
	case c.DoorbellFraction == 0:
		c.DoorbellFraction = 0.25
	case c.DoorbellFraction < 0:
		c.DoorbellFraction = 0
	}
	if len(c.Mix) == 0 {
		c.Mix = DefaultMix()
	}
	if err := c.Mix.validate(); err != nil {
		return err
	}
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.ShardWorkers <= 0 {
		c.ShardWorkers = 4
	}
	if c.ShardQueue <= 0 {
		c.ShardQueue = 2 * c.ShardWorkers
	}
	if c.DeviceWorkers <= 0 {
		c.DeviceWorkers = runtime.GOMAXPROCS(0)
	}
	if c.Batch <= 0 {
		c.Batch = 4
	}
	// The per-device clamp is kept for compatibility, but Run records the
	// requested value and surfaces both in the Result so a bench config
	// cannot silently claim a batch size the TA never ran.
	if c.Batch > core.MaxBatch {
		c.Batch = core.MaxBatch
	}
	if c.Sched != nil {
		if err := c.Sched.fillDefaults(c.Batch); err != nil {
			return err
		}
	}
	if c.Utterances <= 0 {
		c.Utterances = 4
	}
	if c.Frames <= 0 {
		c.Frames = 6
	}
	if c.SensitiveFraction > 1 || math.IsNaN(c.SensitiveFraction) {
		return fmt.Errorf("%w: sensitive fraction %g", ErrBadConfig, c.SensitiveFraction)
	}
	switch {
	case c.SensitiveFraction == 0:
		c.SensitiveFraction = 0.4
	case c.SensitiveFraction < 0:
		c.SensitiveFraction = 0
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Tenants <= 0 {
		c.Tenants = 4
	}
	if _, ok := cloud.PolicyByName(c.Policy); !ok {
		return fmt.Errorf("%w: admission policy %q", ErrBadConfig, c.Policy)
	}
	if c.Churn != nil {
		if err := c.Churn.validate(); err != nil {
			return err
		}
	}
	if c.Rebalance != nil {
		if err := c.Rebalance.fillDefaults(c.Shards); err != nil {
			return err
		}
	}
	if c.Rollout != nil {
		c.Attest = true
		if c.Rollout.CanaryFraction > 1 || math.IsNaN(c.Rollout.CanaryFraction) {
			return fmt.Errorf("%w: canary fraction %g", ErrBadConfig, c.Rollout.CanaryFraction)
		}
		if c.Rollout.CanaryFraction <= 0 {
			c.Rollout.CanaryFraction = 0.1
		}
	}
	if c.Rogues < 0 {
		return fmt.Errorf("%w: %d rogues", ErrBadConfig, c.Rogues)
	}
	// Rogue clients only make sense against an admission gate; asking
	// for them turns the gate on rather than silently doing nothing.
	if c.Rogues > 0 {
		c.Attest = true
	}
	if c.Lifecycle != nil {
		if err := c.Lifecycle.validate(); err != nil {
			return err
		}
		c.Attest = true
	}
	if c.Federate {
		c.Attest = true
	}
	if c.Trace != nil {
		if err := c.Trace.fillDefaults(); err != nil {
			return err
		}
	}
	if c.Faults != nil {
		if err := c.Faults.fillDefaults(c.Seed, c.Devices, c.Shards); err != nil {
			return err
		}
	}
	return nil
}

// DeviceID names fleet member i on the ingest tier.
func DeviceID(i int) string { return fmt.Sprintf("device-%05d", i) }

// memberSpec derives the identity fields every fleet member — base
// population and churn joiners alike — gets the same way from its
// global index: device seed, shared model seed, attestation enrollment.
// Kind and mode are assigned by the caller's interleaving loop.
func memberSpec(cfg Config, i int) core.DeviceSpec {
	spec := core.DeviceSpec{
		Seed:      core.DeriveSeed(cfg.Seed, core.SaltDeviceSeed, i),
		ModelSeed: cfg.Seed,
		Batch:     cfg.Batch,
		DeviceID:  DeviceID(i),
	}
	if cfg.Attest {
		// Enrollment: the device's attestation-key seed is derived from
		// the root seed exactly like its other per-device streams; the
		// verifier derives the same key from the same registry.
		spec.AttestKeySeed = core.DeriveSeed(cfg.Seed, core.SaltAttestKey, i)
		spec.ModelVersion = 1
	}
	return spec
}

// Plan lays out the population deterministically: device i's kind comes
// from the doorbell fraction, its mode from the weighted mix, its seed
// from the root seed. The shared ModelSeed models one provider-trained
// model provisioned to every device.
func Plan(cfg Config) ([]core.DeviceSpec, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	return plan(cfg, 0), nil
}

// plan is Plan over a config whose defaults are already filled: the base
// population, then the given number of churn joiners. Every member's
// identity comes from memberSpec on its global index, so the base specs
// do not depend on the joiners. Joiners continue the base interleave
// (a doorbell every stride indices, speaker modes cycling) with one
// difference: the base population caps doorbells at its quota, while
// joiners have no quota, so the fraction extends with the population.
func plan(cfg Config, joiners int) []core.DeviceSpec {
	specs := make([]core.DeviceSpec, cfg.Devices+joiners)
	doorbells := int(float64(cfg.Devices) * cfg.DoorbellFraction)
	stride := cfg.Devices
	if doorbells > 0 {
		stride = cfg.Devices / doorbells
	}
	speakerModes := weightedModes(cfg.Mix)
	dbModes := doorbellModes(cfg.Mix)
	nSpeaker, nDoorbell := 0, 0
	for i := range specs {
		spec := memberSpec(cfg, i)
		// Interleave doorbells evenly through the population.
		if doorbells > 0 && i%stride == 0 && (nDoorbell < doorbells || i >= cfg.Devices) {
			spec.Kind = core.DeviceDoorbell
			spec.Mode = dbModes[nDoorbell%len(dbModes)]
			nDoorbell++
		} else {
			spec.Kind = core.DeviceSpeaker
			spec.Mode = speakerModes[nSpeaker%len(speakerModes)]
			nSpeaker++
		}
		specs[i] = spec
	}
	return specs
}

// GroupKey identifies one (kind, mode) slice of the population.
type GroupKey struct {
	Kind core.DeviceKind
	Mode core.Mode
}

// String renders "speaker/secure-filter"-style labels.
func (k GroupKey) String() string { return k.Kind.String() + "/" + k.Mode.String() }

// GroupStats aggregates one population slice.
type GroupStats struct {
	Devices int
	// Items processed: utterances for speakers, frames for doorbells.
	Items int
	// CloudEvents the slice pushed through the ingest tier.
	CloudEvents int
	// SensitiveTokens the provider observed from this slice (speakers).
	SensitiveTokens int
	// PersonFrames that reached the provider (doorbells; baseline
	// doorbells count locally-uploaded person frames).
	PersonFrames int
	// Latency is the merged per-item virtual-cycle recorder.
	Latency *metrics.Recorder
}

// Result aggregates one fleet run.
type Result struct {
	Config Config

	// BuildWall and RunWall split shared-model provisioning from the
	// processing phase; throughput figures use RunWall only. With lazy
	// device construction, BuildWall covers the one-time training of the
	// shared model pack, while RunWall covers per-device (lazy) pipeline
	// construction plus workload processing.
	BuildWall time.Duration
	RunWall   time.Duration

	// Groups slices the fleet by (kind, mode).
	Groups map[GroupKey]*GroupStats
	// Latency merges every device's per-item recorder.
	Latency *metrics.Recorder

	// Audit is the cross-shard aggregate of everything the provider tier
	// ingested — including what departed (churned-out) devices delivered
	// before releasing their endpoints; ShardStats the per-shard counters
	// (drained shards appear with Drained=true).
	Audit      cloud.Audit
	ShardStats []cloud.ShardStats

	// DeviceResults holds every device's per-run outcome, indexed like
	// the population plan (base devices 0..Devices-1, then joiners).
	// The churn invariant is checked against these: a non-churned
	// device's result is bit-identical to its result in a static run.
	DeviceResults []*core.DeviceResult

	// Churn/elasticity observability (zero values on static runs).

	// Joined and Left count mid-run arrivals and clean departures;
	// Leavers lists the departed base-device indices (sorted), so the
	// non-churned sub-population is recoverable from the result.
	Joined, Left int
	Leavers      []int
	// PolicyName is the admission policy the ingest tier ran.
	PolicyName string
	// Rebalance summarizes the scheduled mid-run rebalance, if one was
	// configured.
	Rebalance *RebalanceReport
	// Faults summarizes the chaos plan's injections and the recovery
	// machinery's response, if chaos was configured.
	Faults *FaultReport

	// ExpectedCloudEvents is the sum of per-device expectations; a lossless
	// ingest tier has Audit.Events == ExpectedCloudEvents and zero shard
	// errors.
	ExpectedCloudEvents int
	// TotalItems counts utterances + frames processed fleet-wide.
	TotalItems int

	// RequestedBatch is the per-device TA batch the config asked for
	// (after defaulting); EffectiveBatch is what actually ran. They
	// differ only when the request exceeded core.MaxBatch — the clamp is
	// surfaced here so benches cannot report a batch size the TA never
	// used.
	RequestedBatch int
	EffectiveBatch int
	// Sched summarizes the cross-device scheduler's flush behavior (nil
	// when the per-device classify path ran).
	Sched *SchedReport
	// Async summarizes the engine's execution.
	Async *AsyncReport

	// Attested-run observability (zero values outside Attest mode).

	// AttestedDevices counts devices holding a verified measurement.
	AttestedDevices int
	// ModelVersions tallies model-bearing devices per attested pack
	// version, fleet-wide.
	ModelVersions map[uint64]int
	// ShardModelVersions is the same tally per ingest shard (rollout
	// progress as the provider observes it).
	ShardModelVersions map[string]map[uint64]int
	// Rollout summarizes the staged rollout, if one was configured.
	Rollout *RolloutReport
	// RogueAttempts/RogueRejected/UnattestedIngested account for the
	// adversarial unattested clients: every attempt must be rejected and
	// no frame may reach an endpoint.
	RogueAttempts      int
	RogueRejected      int
	UnattestedIngested int

	// Lifecycle observability (zero values outside Lifecycle mode).

	// Rotated counts devices that redeemed a key rotation in their TEE
	// and re-attested at the new epoch; KeyEpochs tallies attested
	// devices per key epoch at run end (revoked devices excluded — their
	// attested state is gone).
	Rotated   int
	KeyEpochs map[uint64]int
	// Revoked counts devices put on the revocation list mid-run;
	// RevokeProbes frames were then fired under their identities and
	// RevokeRejected of them were rejected (not shed) at the frontend —
	// a correct gate keeps the two equal. RevokeDelivered counts probes
	// that reached an endpoint anyway: a gate bypass, which must be 0.
	Revoked         int
	RevokeProbes    int
	RevokeRejected  int
	RevokeDelivered int

	// TenantAttested tallies attested devices per tenant verifier
	// (federated runs only).
	TenantAttested map[string]int

	// Telemetry is the run's aggregated telemetry block — per-stage
	// latency histograms, queue-depth and batch-occupancy histograms,
	// verdict and attestation-verb counters, anomalies with their
	// flight-recorder dumps, and the sampled traces themselves. Nil on
	// untraced runs.
	Telemetry *obs.Telemetry
}

// IngestedFrames sums frames processed across shards (drained shards
// included — their pre-drain frames are retired, not forgotten).
func (r *Result) IngestedFrames() uint64 {
	var n uint64
	for _, s := range r.ShardStats {
		n += s.Frames
	}
	return n
}

// ShedFrames sums frames the admission policy dropped across shards.
func (r *Result) ShedFrames() uint64 {
	var n uint64
	for _, s := range r.ShardStats {
		n += s.Shed
	}
	return n
}

// PriorityFrames sums frames admitted through the priority lane.
func (r *Result) PriorityFrames() uint64 {
	var n uint64
	for _, s := range r.ShardStats {
		n += s.Prioritized
	}
	return n
}

// RebalancedFrames sums frames redirected to a new owner after a ring
// change raced their delivery.
func (r *Result) RebalancedFrames() uint64 {
	var n uint64
	for _, s := range r.ShardStats {
		n += s.Rebalanced
	}
	return n
}

// ExpiredFrames sums frames whose retry budget the device-side uplink
// exhausted under a chaos plan — an explicit, per-device-accounted
// outcome (SessionResult.ExpiredEvents / CameraSessionResult
// .ExpiredFrames), never a silent loss.
func (r *Result) ExpiredFrames() int {
	n := 0
	for _, res := range r.DeviceResults {
		if res != nil {
			n += res.Expired()
		}
	}
	return n
}

// LostFrames is the gap between emitted and accounted-for cloud events:
// every emitted frame must be either ingested by an endpoint, explicitly
// shed by the admission policy, or explicitly expired by the device's
// retry layer. Anything else — e.g. a frame dropped by a rebalance or a
// crash — is a loss.
func (r *Result) LostFrames() int {
	return r.ExpectedCloudEvents - int(r.IngestedFrames()) - int(r.ShedFrames()) - r.ExpiredFrames()
}

// Throughput returns items/s over the run phase.
func (r *Result) Throughput() float64 {
	return metrics.Throughput(r.TotalItems, r.RunWall.Seconds())
}

// GroupKeys returns the populated group keys in stable order.
func (r *Result) GroupKeys() []GroupKey {
	keys := make([]GroupKey, 0, len(r.Groups))
	for k := range r.Groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Kind != keys[j].Kind {
			return keys[i].Kind < keys[j].Kind
		}
		return keys[i].Mode < keys[j].Mode
	})
	return keys
}

// Run executes one fleet: plan → pretrain shared models (and, for a
// staged rollout, train and publish the model packs) → wire ingest →
// lazily build, attest and process each device → audit.
//
// Device provisioning is lazy: the build phase trains only the shared
// immutable model pack (ASR templates, text and image classifiers), and
// each device pipeline is constructed by the executor that admits it
// (see async.go), then released as soon as its result is recorded. A
// thousand-device fleet therefore holds device pipelines for about
// DeviceWorkers devices (plus the parked ones) at a time instead of the
// whole population, which keeps the working set (and the GC) fleet-size
// independent.
//
// In Attest mode each device additionally runs the handshake before its
// endpoint joins the ring (provision to the rollout target → challenge →
// TA-signed report → verify), and after the workload the rollout
// convergence step (canary success reporting, then — parked until the
// verdict — update + re-attest once the rollout opens). Default runs are
// bit-deterministic per root seed, and so is the pack every device of a
// staged rollout classifies on: the canary and stable cohorts are fixed
// by admission order, and admission pauses after them until the canary
// verdict (see attestState.stage).
//
// With Config.Churn the population is elastic: joiners arrive mid-run
// and run the same full per-device flow against the verifier's *current*
// state (a joiner after the rollout opened is provisioned to, and gated
// at, the raised minimum version), and leavers depart early — audit
// folded into the run accounting, endpoint deregistered, attested
// session released. With Config.Rebalance the ingest tier itself churns
// mid-run (weighted shards added, a shard drained) under live traffic.
// Churn and rebalance never change a non-churned device's results.
func Run(cfg Config) (*Result, error) {
	requestedBatch := cfg.Batch
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	if requestedBatch <= 0 {
		requestedBatch = cfg.Batch // defaulted, not clamped
	}
	joiners := 0
	if cfg.Churn != nil {
		joiners = cfg.Churn.joinCount(cfg.Devices)
	}
	all := plan(cfg, joiners)
	specs := all[:cfg.Devices]

	// Build phase: train the shared model pack once up front. Every
	// lazily constructed device below hits these caches. Rollout packs
	// are trained here too — publishing is a provider-side build step.
	buildStart := time.Now()
	if err := core.Pretrain(all); err != nil {
		return nil, err
	}
	var st *attestState
	var err error
	if cfg.Attest {
		if st, err = newAttestState(cfg, all); err != nil {
			return nil, err
		}
	}
	buildWall := time.Since(buildStart)

	// Wire the ingest tier: shards and ring exist before any device.
	shards := make([]*cloud.Shard, cfg.Shards)
	for i := range shards {
		shards[i] = cloud.NewShard(fmt.Sprintf("shard-%02d", i), cfg.ShardWorkers, cfg.ShardQueue)
	}
	router, err := cloud.NewRouter(shards, hashReplicas)
	if err != nil {
		return nil, err
	}
	defer router.Close()
	policy, _ := cloud.PolicyByName(cfg.Policy) // validated in fillDefaults
	router.SetPolicy(policy)
	var tracer *obs.Tracer
	if cfg.Trace != nil {
		tracer = obs.NewTracer(cfg.Trace.SampleEvery)
		// Every shard admission outcome — all devices, not just sampled
		// ones — lands in that shard's flight recorder.
		router.SetFlight(tracer.Flight)
	}
	if st != nil {
		st.tracer = tracer
		router.SetGate(st.gate())
		if st.rollout != nil {
			// Settle the rollout on early return.
			defer func() {
				if !st.rollout.Full() {
					tracer.Anomaly("rollout-abort", "run ended before the rollout opened")
				}
				st.rollout.Abort("run ended before the rollout opened")
			}()
		}
	}

	var sc *schedControl
	if cfg.Sched != nil {
		if sc, err = newSchedControl(cfg, st, router); err != nil {
			return nil, err
		}
	}

	var fd *faultDriver
	if cfg.Faults != nil {
		if fd, err = newFaultDriver(cfg, router, len(all)); err != nil {
			return nil, err
		}
		// The supervisor heals the crashes the driver fires. Its Close is
		// deferred *after* router.Close so it winds down first (LIFO), and
		// a closed supervisor still restarts inline — a late crash can
		// never strand a queue.
		defer fd.supervise(tracer).Close()
	}

	// Run phase: construct each device on first workload item, register
	// its endpoint on the ring, process, and drop the pipeline. The
	// endpoints stay registered for the post-run audit (leavers excepted:
	// their audit is folded into the run accounting at departure).
	r := &runner{cfg: cfg, st: st, router: router, tracer: tracer, fd: fd, sched: sc, results: make([]*core.DeviceResult, len(all))}
	if cfg.Lifecycle != nil {
		// Lifecycle targets are drawn from the base population only, so
		// the selection (and every non-churned device's behaviour) is
		// independent of whether joiners exist.
		r.lc = newLifecyclePlan(cfg, specs)
	}
	order := make([]int, len(all))
	for i := range order {
		order[i] = i
	}
	if cfg.Churn != nil {
		r.churn = newChurnPlan(cfg, len(specs), joiners)
		order = r.churn.arrival
	}
	if cfg.Rebalance != nil {
		r.reb = newRebalancer(cfg, router, len(all))
	}
	runStart := time.Now()
	eng := newAsyncEngine(r, all, order)
	runErr := eng.run()
	if sc != nil {
		// Drain on both outcomes: an errored run must not strand a
		// queued entry.
		sc.scheduler.Drain()
	}
	if runErr != nil {
		return nil, runErr
	}
	runWall := time.Since(runStart)
	if fd != nil {
		// Drain pending supervision work now: a crash fired on the last
		// completions may still be mid-restart, and the aggregate below
		// must snapshot settled shard stats.
		fd.settle()
	}
	if r.reb != nil {
		r.reb.mu.Lock()
		rebErr := r.reb.err
		r.reb.mu.Unlock()
		if rebErr != nil {
			return nil, rebErr
		}
	}

	// The rollout completed: raise the fleet's minimum admitted model
	// version (on every tenant's authority), so from here on a straggler
	// still attested at the base version would be rejected at ingest
	// (attest.ErrStaleModel).
	if st != nil && st.rollout != nil && st.rollout.Full() {
		st.setMinVersion(st.next.Version)
	}

	// Rogue traffic fires before the audit snapshot so the per-shard
	// rejection counters it provokes are visible in the result.
	var rogueAttempts, rogueRejected, unattestedIngested int
	if st != nil {
		rogueAttempts, rogueRejected, unattestedIngested = runRogues(cfg, router, tracer, len(all))
	}
	res := aggregate(cfg, buildWall, runWall, r, router)
	res.RequestedBatch = requestedBatch
	res.EffectiveBatch = cfg.Batch
	res.Async = eng.report()
	if sc != nil {
		res.Sched = sc.report(cfg.Sched)
		tracer.Flushes(res.Sched.Flushes)
	}
	if tracer != nil {
		tel, err := tracer.Summary()
		if err != nil {
			return nil, err
		}
		res.Telemetry = tel
	}
	res.Joined = joiners
	if st != nil {
		res.RogueAttempts, res.RogueRejected, res.UnattestedIngested = rogueAttempts, rogueRejected, unattestedIngested
		fillAttestResult(res, cfg, all, st, router)
	}
	if r.lc != nil {
		r.lc.fill(res)
	}
	return res, nil
}

// runner carries the per-run shared state of the device tasks.
type runner struct {
	cfg     Config
	st      *attestState
	router  *cloud.Router
	tracer  *obs.Tracer
	results []*core.DeviceResult
	churn   *churnPlan
	reb     *rebalancer
	lc      *lifecyclePlan
	fd      *faultDriver
	sched   *schedControl
}

// devCtx carries one device's constructed pipeline between the setup,
// run and finish stages of the per-device flow. The engine holds it in
// its task table across parks instead of on a stack frame.
type devCtx struct {
	i        int
	spec     core.DeviceSpec
	w        core.DeviceWorkload
	d        *core.Device
	id       string
	tenant   string
	meta     cloud.FrameMeta
	ep       cloud.Provider
	tc       *obs.TraceContext
	leaving  bool
	rotating bool
	rotTok   attest.RotationToken
	sink     *core.RetrySink

	closeOnce sync.Once
}

// close settles the context's delivery-path accounting (retry stats).
// Idempotent; it must fire on every exit path, success or failure, like
// the deferred noteRetry of the pre-split pipeline.
func (dc *devCtx) close(r *runner) {
	dc.closeOnce.Do(func() {
		if dc.sink != nil {
			r.fd.noteRetry(dc.sink.Stats())
		}
	})
}

// setupOne is the front half of the per-device flow: derive the
// workload, build the pipeline, provision to the rollout target,
// (lifecycle) issue a rotation, run the attested handshake, register the
// endpoint and wire the uplink. Everything up to — but not including —
// processing.
func (r *runner) setupOne(spec core.DeviceSpec, i int) (*devCtx, error) {
	w, err := workloadFor(r.cfg, spec, i)
	if err != nil {
		return nil, fmt.Errorf("device %d workload: %w", i, err)
	}
	leaving := r.churn != nil && r.churn.leaver[i]
	if leaving {
		w = r.churn.truncateWorkload(w)
	}
	// Scheduled mode: secure-filter speakers skip the per-device
	// classifier build and submit their classify stage to the shared
	// scheduler instead. This covers base population and joiners alike —
	// both funnel through setupOne.
	if r.sched != nil && spec.Kind == core.DeviceSpeaker && spec.Mode == core.ModeSecureFilter {
		spec.SharedClassify = true
	}
	d, err := core.NewDevice(spec)
	if err != nil {
		return nil, fmt.Errorf("device %d: %w", i, err)
	}
	id := spec.DeviceID
	tenant := tenantFor(r.cfg, i)
	// The sampling decision is a pure function of the device's trace
	// seed; sampled-out devices thread a nil context (the zero-cost
	// path) through their whole pipeline.
	tc := r.tracer.Device(id, tenant, core.DeriveSeed(r.cfg.Seed, core.SaltTrace, i))
	d.SetTrace(tc)
	ep := d.CloudEndpoint()
	// The frontend reads tenant and traffic class from the connection,
	// never from sealed content: doorbell events are the fleet's
	// flagged/security traffic and ride the priority lane; speaker
	// telemetry is bulk.
	meta := cloud.FrameMeta{Tenant: tenant, Priority: spec.Kind == core.DeviceDoorbell}
	if r.fd != nil && r.fd.plan.TEEFault(i) {
		// Transient TEE fault at provisioning: the first sealed-storage
		// access times out and is retried, so the device pays the penalty
		// in virtual time before its handshake proceeds. Transient means
		// transient — nothing else about the device's run changes.
		d.Clock().Advance(fault.TEEPenalty)
		r.fd.noteTEE()
		r.tracer.Anomaly("tee-transient", fmt.Sprintf("%s: transient TEE error at provisioning, retried", id))
	}
	rotating := r.lc != nil && r.lc.rotate[i] && ep != nil
	var rotTok attest.RotationToken
	if r.st != nil {
		// The stable cohort processes on the base pack it was built with
		// and converges after the canary verdict (see attestState.stage).
		if !r.st.stable[i] {
			if err := r.st.provision(d, id, tenant); err != nil {
				return nil, fmt.Errorf("device %d provision: %w", i, err)
			}
		}
		if rotating {
			// Rotation is issued *before* the handshake: the verifier
			// already expects the next epoch while the device still signs
			// at the old one, so this device's handshake — and its whole
			// workload — runs inside the grace window, exactly the
			// in-flight case rotation must never break.
			if rotTok, err = r.st.authority(tenant).Rotate(id); err != nil {
				return nil, fmt.Errorf("device %d rotate: %w", i, err)
			}
			r.tracer.Verb(obs.VerbRotate)
		}
		if ep != nil {
			if err := r.st.handshake(d, id, tenant); err != nil {
				return nil, fmt.Errorf("device %d: %w", i, err)
			}
		}
	}
	dc := &devCtx{
		i: i, spec: spec, w: w, d: d, id: id, tenant: tenant, meta: meta,
		ep: ep, tc: tc, leaving: leaving, rotating: rotating, rotTok: rotTok,
	}
	if ep != nil {
		r.router.Register(id, ep)
		up := &cloud.Uplink{DeviceID: id, Router: r.router, Meta: meta}
		if r.fd == nil {
			d.SetUplink(up)
		} else {
			// Chaos path: the plan's injector sits between the uplink and
			// the router (untouched devices get the router back unchanged,
			// so their delivery path shares no state with the chaos), and
			// the retry layer wraps the whole delivery so transient faults
			// back off in virtual cycles on this device's own clock.
			up.Ingest = r.fd.plan.Injector(i, r.router, d.Clock())
			rcfg := core.RetryConfig{Seed: core.DeriveSeed(r.fd.spec.Seed, core.SaltFault, i)}
			sink := core.NewRetrySink(up, d.Clock(), rcfg)
			dc.sink = sink
			d.SetUplink(sink)
		}
	}
	return dc, nil
}

// reportOne starts the finish flow, run after the workload: the
// rotation redeemed + re-attested, then the rollout outcome reported. It
// returns true when the device must wait for the rollout verdict (and
// converge on it) before finishOne.
func (r *runner) reportOne(dc *devCtx) (wait bool, err error) {
	if r.st == nil {
		return false, nil
	}
	i, d, id, tenant := dc.i, dc.d, dc.id, dc.tenant
	if dc.rotating && !dc.leaving {
		// Redeem inside the TEE, then re-attest at the new epoch —
		// closing the grace window — before any rollout convergence
		// mints manifests for this device at the rotated epoch.
		if _, err := d.RotateKey(dc.rotTok); err != nil {
			return false, fmt.Errorf("device %d rotate redeem: %w", i, err)
		}
		if err := r.st.handshake(d, id, tenant); err != nil {
			return false, fmt.Errorf("device %d re-attest: %w", i, err)
		}
		r.lc.noteRotated()
	}
	return r.st.reportSuccess(d, id, dc.leaving), nil
}

// finishOne is the back half of the per-device flow: revocation probes,
// leaver release, result recording.
func (r *runner) finishOne(dc *devCtx, res *core.DeviceResult) error {
	defer dc.close(r)
	i, id, tenant, leaving := dc.i, dc.id, dc.tenant, dc.leaving
	if r.lc != nil && r.lc.revoke[i] && dc.ep != nil && !leaving {
		// The compromised-device drill: revoke the completed device while
		// the rest of the fleet is still processing, then prove its
		// identity is cut off at the frontend within one frame.
		r.lc.probeRevoked(r, id, tenant, dc.meta, dc.tc)
	}
	if leaving {
		// Clean departure: account for what the provider saw from this
		// device, hand the ring back its slot, release the attested
		// session so the identity cannot keep ingesting.
		if dc.ep != nil {
			r.churn.depart(dc.ep.Audit())
			r.router.Deregister(id)
		}
		if r.st != nil {
			r.st.authority(tenant).Release(id)
		}
		r.churn.noteLeft()
	}
	r.results[i] = res
	if r.reb != nil {
		r.reb.noteDone()
	}
	if r.fd != nil {
		r.fd.noteDone()
	}
	return nil
}

// workloadFor derives device i's labelled workload from the root seed.
func workloadFor(cfg Config, spec core.DeviceSpec, i int) (core.DeviceWorkload, error) {
	wseed := core.DeriveSeed(cfg.Seed, core.SaltWorkload, i)
	if spec.Kind == core.DeviceSpeaker {
		utts, err := sensitive.Generate(sensitive.GenConfig{
			N: cfg.Utterances, SensitiveFraction: cfg.SensitiveFraction, Seed: wseed,
		})
		if err != nil {
			return core.DeviceWorkload{}, err
		}
		return core.DeviceWorkload{Utterances: utts}, nil
	}
	rng := core.NewRNG(wseed, wseed^core.SaltWorkload)
	scenes := make([]peripheral.Scene, cfg.Frames)
	for j := range scenes {
		if rng.Float64() < cfg.SensitiveFraction {
			scenes[j] = peripheral.ScenePerson
		} else {
			scenes[j] = peripheral.SceneEmpty
		}
	}
	return core.DeviceWorkload{Scenes: scenes}, nil
}

func aggregate(cfg Config, buildWall, runWall time.Duration, r *runner, router *cloud.Router) *Result {
	out := &Result{
		Config:        cfg,
		BuildWall:     buildWall,
		RunWall:       runWall,
		Groups:        make(map[GroupKey]*GroupStats),
		Latency:       metrics.NewRecorder(),
		DeviceResults: r.results,
		PolicyName:    router.Policy().Name(),
	}
	for _, res := range r.results {
		key := GroupKey{Kind: res.Spec.Kind, Mode: res.Spec.Mode}
		g := out.Groups[key]
		if g == nil {
			g = &GroupStats{Latency: metrics.NewRecorder()}
			out.Groups[key] = g
		}
		g.Devices++
		g.CloudEvents += res.CloudEvents()
		out.ExpectedCloudEvents += res.CloudEvents()
		g.Latency.Merge(res.Latency())
		out.Latency.Merge(res.Latency())
		tokens, persons := res.Leaked()
		g.SensitiveTokens += tokens
		g.PersonFrames += persons
		g.Items += res.Items()
		out.TotalItems += res.Items()
	}
	out.ShardStats = router.Stats()
	out.Audit = router.Audit()
	if r.churn != nil {
		// Leavers deregistered their endpoints; what they delivered
		// before departing was captured then and is folded in here.
		r.churn.mu.Lock()
		out.Audit = out.Audit.Merge(r.churn.departed)
		out.Left = r.churn.left
		r.churn.mu.Unlock()
		for i := range r.churn.leaver {
			out.Leavers = append(out.Leavers, i)
		}
		sort.Ints(out.Leavers)
	}
	if r.reb != nil {
		out.Rebalance = r.reb.report()
	}
	if r.fd != nil {
		out.Faults = r.fd.report(out)
	}
	return out
}
