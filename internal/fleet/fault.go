package fleet

// Fleet-scope chaos. Config.Faults compiles an internal/fault plan over
// the whole population (base devices and joiners alike) and wires the
// run to both inject and survive it: touched devices get the plan's
// injector spliced between their uplink and the router plus a
// virtual-time retry layer (core.RetrySink) around the whole delivery;
// the ingest tier gets a shard supervisor that restarts crashed shards
// and replays their stranded queues; and the faultDriver below fires
// the scheduled shard crashes at deterministic completion thresholds,
// mirroring the rebalancer's trigger pattern.
//
// The accounting contract under chaos is the same as without it, with
// one new explicit bucket: every emitted frame is ingested, shed, or
// expired (retry budget exhausted — an accounted outcome, never a
// silent loss), so Result.LostFrames stays 0 through crashes, drops,
// duplicates and delays. E15 asserts this, plus bit-identical audits
// for every device the plan does not touch.

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
)

// FaultSpec drives a deterministic chaos plan against the run. Zero
// rates inject nothing; Crashes schedules shard crash/restart cycles at
// evenly spaced completion points; SlowShard inflates one shard's
// wall-clock serve latency for the whole run (latency only — virtual
// time and accounting are untouched). Touched devices retry under the
// default core.RetryConfig, and the plan charges fault.DelayCycles,
// fault.SlowCycles and fault.TEEPenalty.
type FaultSpec struct {
	// TouchFraction of the population is subject to uplink injection
	// (default 0.25); see fault.PlanConfig.
	TouchFraction float64
	// Per-delivery injection rates on touched devices (sum ≤ 1).
	DropRate      float64
	DuplicateRate float64
	DelayRate     float64
	ExpireRate    float64
	// SlowFraction of touched devices are stragglers; TEEFraction hit a
	// transient TEE error at provisioning.
	SlowFraction float64
	TEEFraction  float64
	// Crashes is the number of shard crash/restart cycles to fire,
	// rotating over the founding shards.
	Crashes int
	// SlowShard is the 1-based index of a founding shard to slow by
	// slowServe for the whole run (0 = none).
	SlowShard int
	// Seed roots the plan's streams (0 = derived from the root seed via
	// core.SaltFault).
	Seed uint64
}

// slowServe is the wall-clock serve delay per frame on the slow shard.
const slowServe = 200 * time.Microsecond

// fillDefaults runs fault's own plan validation over the spec, so a bad
// config fails before the build phase trains any model, and derives the
// plan seed.
func (f *FaultSpec) fillDefaults(root uint64, devices, shards int) error {
	if f.SlowShard < 0 || f.SlowShard > shards {
		return fmt.Errorf("%w: fault slow-shard %d of %d", ErrBadConfig, f.SlowShard, shards)
	}
	if err := f.planConfig(devices).Validate(); err != nil {
		return fmt.Errorf("%w: %w", ErrBadConfig, err)
	}
	if f.Seed == 0 {
		f.Seed = core.DeriveSeed(root, core.SaltFault, 0)
	}
	return nil
}

// planConfig is the chaos plan the spec describes over devices members.
func (f *FaultSpec) planConfig(devices int) fault.PlanConfig {
	return fault.PlanConfig{
		Devices:       devices,
		TouchFraction: f.TouchFraction,
		DropRate:      f.DropRate,
		DuplicateRate: f.DuplicateRate,
		DelayRate:     f.DelayRate,
		ExpireRate:    f.ExpireRate,
		SlowFraction:  f.SlowFraction,
		TEEFraction:   f.TEEFraction,
		Crashes:       f.Crashes,
		Seed:          f.Seed,
	}
}

// FaultReport summarizes what the chaos plan did and what the system
// did about it.
type FaultReport struct {
	// Touched is the number of devices the plan subjects to injection.
	Touched int
	// Injected is the total injected uplink events (Drops + Duplicates +
	// Delays); Blackholes counts expiry windows opened.
	Injected   uint64
	Drops      uint64
	Duplicates uint64
	Delays     uint64
	Blackholes uint64
	// Crashes executed and the frames stranded in crashed shards' queues
	// (all of which the restarts must replay).
	Crashes       int
	QueuedAtCrash int
	// TEEFaults is devices that hit the transient TEE provisioning error.
	TEEFaults int
	// Restarts/Recovered/DuplicatesDropped are the shard-side totals:
	// supervised shard restarts, stranded frames replayed to completion, and
	// injected duplicates dropped by (device, seq) dedup.
	Restarts          uint64
	Recovered         uint64
	DuplicatesDropped uint64
	// Expired is frames the device retry layer explicitly gave up on.
	Expired int
	// Retries/RetryRecovered are the device-side totals: individual retry
	// attempts and frames that landed after at least one retry.
	Retries        uint64
	RetryRecovered uint64
	// TouchedDevices lists the touched device indices, sorted — the set
	// outside which the run must be indistinguishable from fault-free.
	TouchedDevices []int
}

// faultDriver holds the run-time chaos state: the compiled plan, the
// crash schedule (completion-count thresholds, fired inline on whichever
// device worker crosses them — deliberately concurrent with live
// traffic), and the aggregated device-side retry counters.
type faultDriver struct {
	plan   *fault.Plan
	router *cloud.Router
	spec   *FaultSpec
	shards int
	sup    *cloud.Supervisor

	mu        sync.Mutex
	completed int
	points    []int // remaining crash thresholds, ascending
	nextShard int
	crashed   int
	queued    int
	teeFaults int
	retry     core.RetryStats
}

// newFaultDriver compiles the spec into a plan over the full population
// (base + joiners) and installs the run-long slow shard, if any.
func newFaultDriver(cfg Config, router *cloud.Router, totalDevices int) (*faultDriver, error) {
	spec := cfg.Faults
	plan, err := fault.NewPlan(spec.planConfig(totalDevices))
	if err != nil {
		return nil, err
	}
	fd := &faultDriver{
		plan:   plan,
		router: router,
		spec:   spec,
		shards: cfg.Shards,
		points: plan.CrashPoints(),
	}
	if spec.SlowShard > 0 {
		router.SlowShard(fmt.Sprintf("shard-%02d", spec.SlowShard-1), slowServe)
	}
	return fd, nil
}

// supervise attaches the shard supervisor; crash and restart events land
// in the tracer's anomaly log (first of each kind, with a flight-recorder
// snapshot). The caller closes the returned supervisor after the run.
func (fd *faultDriver) supervise(tracer *obs.Tracer) *cloud.Supervisor {
	fd.sup = fd.router.Supervise(func(e cloud.SupervisorEvent) {
		tracer.Anomaly(e.Kind, fmt.Sprintf("%s: %d queued frames to replay", e.Shard, e.Queued))
	})
	return fd.sup
}

// settle drains pending supervision work so shard stats are final before
// the run aggregates them (Close is idempotent; the deferred Close in
// Run is then a no-op).
func (fd *faultDriver) settle() {
	if fd.sup != nil {
		fd.sup.Close()
	}
}

// noteDone counts one completed device and fires any crash whose
// threshold was crossed — outside the driver lock, so a blocking Crash
// never stalls the counters. Crash targets rotate over the founding
// shards; a target that has left the ring (drained) is skipped.
func (fd *faultDriver) noteDone() {
	fd.mu.Lock()
	fd.completed++
	fire := 0
	for len(fd.points) > 0 && fd.completed >= fd.points[0] {
		fd.points = fd.points[1:]
		fire++
	}
	first := fd.nextShard
	fd.nextShard += fire
	fd.mu.Unlock()
	for k := 0; k < fire; k++ {
		name := fmt.Sprintf("shard-%02d", (first+k)%fd.shards)
		if queued, ok := fd.router.CrashShard(name); ok {
			fd.mu.Lock()
			fd.crashed++
			fd.queued += queued
			fd.mu.Unlock()
		}
	}
}

// noteTEE counts one transient TEE provisioning fault.
func (fd *faultDriver) noteTEE() {
	fd.mu.Lock()
	fd.teeFaults++
	fd.mu.Unlock()
}

// noteRetry folds one device's retry-layer counters into the run total.
func (fd *faultDriver) noteRetry(s core.RetryStats) {
	fd.mu.Lock()
	fd.retry.Deliveries += s.Deliveries
	fd.retry.Recovered += s.Recovered
	fd.retry.Retries += s.Retries
	fd.retry.Expired += s.Expired
	fd.retry.BackoffCycles += s.BackoffCycles
	fd.mu.Unlock()
}

// report assembles the FaultReport from the plan's injection counters,
// the driver's crash log, and the result's shard/device aggregates.
func (fd *faultDriver) report(res *Result) *FaultReport {
	st := fd.plan.Stats()
	fd.mu.Lock()
	rep := &FaultReport{
		Touched:        fd.plan.TouchedCount(),
		Injected:       st.Injected(),
		Drops:          st.Drops,
		Duplicates:     st.Duplicates,
		Delays:         st.Delays,
		Blackholes:     st.Blackholes,
		Crashes:        fd.crashed,
		QueuedAtCrash:  fd.queued,
		TEEFaults:      fd.teeFaults,
		Retries:        fd.retry.Retries,
		RetryRecovered: fd.retry.Recovered,
	}
	fd.mu.Unlock()
	for _, s := range res.ShardStats {
		rep.Restarts += s.Restarts
		rep.Recovered += s.Recovered
		rep.DuplicatesDropped += s.DuplicatesDropped
	}
	rep.Expired = res.ExpiredFrames()
	for i := 0; i < fd.plan.Config().Devices; i++ {
		if fd.plan.Touches(i) {
			rep.TouchedDevices = append(rep.TouchedDevices, i)
		}
	}
	return rep
}
