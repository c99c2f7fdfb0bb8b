// Command periguard-fleet runs a mixed-mode device population against a
// sharded provider ingest tier and prints per-mode throughput, the
// batched-inference latency distribution, per-shard counters and the
// aggregate privacy audit. With -json it also writes a machine-readable
// snapshot (schema in docs/OPERATIONS.md).
//
// Example:
//
//	periguard-fleet -devices 1000 -shards 8
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"repro/internal/cloud"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/tz"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "periguard-fleet:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("periguard-fleet", flag.ContinueOnError)
	devices := fs.Int("devices", 1000, "population size")
	shards := fs.Int("shards", 8, "ingest shards")
	shardWorkers := fs.Int("shard-workers", 4, "frames a shard serves at once")
	deviceWorkers := fs.Int("workers", 0, "executor pool size driving device tasks (0 = GOMAXPROCS)")
	batch := fs.Int("batch", 4, "TA utterance batch size for secure speakers")
	utterances := fs.Int("utterances", 4, "utterances per speaker")
	frames := fs.Int("frames", 6, "frames per doorbell")
	doorbells := fs.Float64("doorbells", 0.25, "doorbell fraction of the population (0 = none)")
	mixFlag := fs.String("mix", "", "speaker mode mix as mode=weight pairs, e.g. baseline=1,secure-filter=2,hybrid-he=1 (empty = 1:1:1 over baseline, secure-nofilter, secure-filter)")
	seed := fs.Uint64("seed", 1, "root seed (devices, workloads and model derive from it)")
	attestOn := fs.Bool("attest", false, "require attested handshakes before ingest")
	rollout := fs.Bool("rollout", false, "stage an online model rollout during the run (implies -attest)")
	canary := fs.Float64("canary", 0.1, "canary fraction of the secure population for -rollout")
	rogues := fs.Int("rogues", 0, "unattested adversarial clients to throw at the ingest tier")
	rotate := fs.Float64("rotate", 0, "fraction of the population whose attestation keys rotate mid-run (implies -attest)")
	revoke := fs.Float64("revoke", 0, "fraction of the population revoked after completing, with probe frames that must be rejected (implies -attest)")
	federate := fs.Bool("federate", false, "give every tenant its own attestation verifier, routed by the frame's tenant label (implies -attest)")
	churn := fs.Float64("churn", 0, "mid-run churn rate: fraction of the population that joins AND leaves (0 = static)")
	rebalance := fs.Bool("rebalance", false, "mid-run tier rebalance: drain shard-00 and add a weight-2 shard at 50% completion")
	policy := fs.String("policy", "fixed", "admission policy: fixed (blocking queue), shed (load-shedding), fair (per-tenant fair share)")
	tenants := fs.Int("tenants", 4, "tenant count device traffic is striped across (fair-share accounting)")
	faultsOn := fs.Bool("faults", false, "run a deterministic chaos plan: seeded uplink faults, shard crash/recovery, device-side retry")
	faultTouch := fs.Float64("fault-touch", 0.25, "with -faults, fraction of the population subject to uplink injection")
	faultDrop := fs.Float64("fault-drop", 0.1, "with -faults, per-delivery drop rate on touched devices (retried by the device)")
	faultDup := fs.Float64("fault-dup", 0.05, "with -faults, per-delivery duplicate rate (deduplicated at the shard)")
	faultDelay := fs.Float64("fault-delay", 0.05, "with -faults, per-delivery virtual-delay rate")
	faultExpire := fs.Float64("fault-expire", 0, "with -faults, per-delivery expiry-blackhole rate (frame exhausts its retry budget)")
	faultCrashes := fs.Int("fault-crashes", 0, "with -faults, shard crash/restart cycles fired at evenly spaced completion points")
	faultSlowShard := fs.Int("fault-slow-shard", 0, "with -faults, 1-based index of a founding shard to slow for the whole run (0 = none)")
	faultTEE := fs.Float64("fault-tee", 0, "with -faults, fraction of touched devices hitting a transient TEE error at provisioning")
	faultSeed := fs.Uint64("fault-seed", 0, "with -faults, chaos plan seed (0 = derived from -seed)")
	schedOn := fs.Bool("sched", false, "coalesce secure-speaker classification across devices through the shared TEE batch scheduler")
	schedAge := fs.Uint64("sched-age", 0, "with -sched, flush deadline in virtual cycles for a partially filled batch (0 = library default)")
	traceOn := fs.Bool("trace", false, "enable frame telemetry (virtual-time spans, flight recorders) and print the trace dump")
	traceSample := fs.Int("trace-sample", 64, "with -trace, trace 1 in N devices (1 = every device)")
	jsonPath := fs.String("json", "", "write a JSON snapshot to this path")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	doorbellFrac := *doorbells
	if doorbellFrac == 0 {
		doorbellFrac = -1 // flag 0 means "none", not "library default"
	}
	mix, err := fleet.ParseMix(*mixFlag)
	if err != nil {
		return err
	}
	cfg := fleet.Config{
		Mix:              mix,
		Devices:          *devices,
		Shards:           *shards,
		ShardWorkers:     *shardWorkers,
		DeviceWorkers:    *deviceWorkers,
		Batch:            *batch,
		Utterances:       *utterances,
		Frames:           *frames,
		DoorbellFraction: doorbellFrac,
		Seed:             *seed,
		Attest:           *attestOn,
		Rogues:           *rogues,
		Policy:           *policy,
		Tenants:          *tenants,
		Federate:         *federate,
	}
	if *rollout {
		cfg.Rollout = &fleet.RolloutSpec{CanaryFraction: *canary}
	}
	if *rotate > 0 || *revoke > 0 {
		cfg.Lifecycle = &fleet.LifecycleSpec{RotateFraction: *rotate, RevokeFraction: *revoke}
	}
	if *churn > 0 {
		cfg.Churn = &fleet.ChurnSpec{JoinFraction: *churn, LeaveFraction: *churn}
	}
	if *rebalance {
		cfg.Rebalance = &fleet.RebalanceSpec{AtFraction: 0.5, DrainShard: 0, AddShards: 1, AddWeight: 2}
	}
	if *schedOn {
		cfg.Sched = &fleet.SchedSpec{MaxAge: tz.Cycles(*schedAge)}
	}
	if *traceOn {
		cfg.Trace = &fleet.TraceSpec{SampleEvery: *traceSample}
	}
	if *faultsOn {
		cfg.Faults = &fleet.FaultSpec{
			TouchFraction: *faultTouch,
			DropRate:      *faultDrop,
			DuplicateRate: *faultDup,
			DelayRate:     *faultDelay,
			ExpireRate:    *faultExpire,
			Crashes:       *faultCrashes,
			SlowShard:     *faultSlowShard,
			TEEFraction:   *faultTEE,
			Seed:          *faultSeed,
		}
	}
	fmt.Printf("PeriGuard fleet: %d devices, %d shards, batch %d, seed %d (attest %v, rollout %v)\n",
		*devices, *shards, *batch, *seed, *attestOn || *rollout || *rogues > 0, *rollout)
	start := time.Now()
	res, err := fleet.Run(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("completed in %v (build %v, run %v)\n",
		time.Since(start).Round(time.Millisecond),
		res.BuildWall.Round(time.Millisecond),
		res.RunWall.Round(time.Millisecond))
	if res.RequestedBatch != res.EffectiveBatch {
		fmt.Printf("note: requested TA batch %d clamped to the enclave maximum %d\n",
			res.RequestedBatch, res.EffectiveBatch)
	}
	fmt.Println()

	// Latencies below are virtual milliseconds: cycles / 1e6 at 1 GHz.
	groups := metrics.NewTable("Per-mode results",
		"group", "devices", "items", "items/s(wall)", "p50(vms)", "p99(vms)",
		"cloud events", "sens tokens", "person frames")
	for _, k := range res.GroupKeys() {
		g := res.Groups[k]
		groups.AddRow(k.String(), g.Devices, g.Items,
			metrics.Throughput(g.Items, res.RunWall.Seconds()),
			g.Latency.Percentile(50)/1e6,
			g.Latency.Percentile(99)/1e6,
			g.CloudEvents, g.SensitiveTokens, g.PersonFrames)
	}
	fmt.Println(groups)

	shardsTbl := metrics.NewTable("Ingest shards",
		"shard", "w", "devices", "frames", "errors", "rejected", "rej why", "shed", "prio",
		"rebal", "queue peak", "drained", "model versions")
	for _, s := range res.ShardStats {
		shardsTbl.AddRow(s.Name, s.Weight, s.Devices, s.Frames, s.Errors, s.Rejected,
			rejectReasons(s), s.Shed, s.Prioritized, s.Rebalanced, s.QueuePeak, s.Drained,
			versionString(res.ShardModelVersions[s.Name]))
	}
	fmt.Println(shardsTbl)

	if res.Joined > 0 || res.Left > 0 {
		fmt.Printf("churn: %d joined mid-run, %d left cleanly\n", res.Joined, res.Left)
	}
	if rb := res.Rebalance; rb != nil && rb.Fired {
		fmt.Printf("rebalance: added %v, drained %q, %d frames redirected\n",
			rb.AddedShards, rb.DrainedShard, res.RebalancedFrames())
	}
	fmt.Printf("admission: policy %s, %d shed, %d priority-lane frames\n",
		res.PolicyName, res.ShedFrames(), res.PriorityFrames())
	ar := res.Async
	fmt.Printf("engine: %d executors drove %d steps (%d parked), peak %d live pipelines\n",
		ar.Executors, ar.Steps, ar.Parks, ar.PeakLive)
	if sr := res.Sched; sr != nil {
		fmt.Printf("scheduler: %d items in %d batches (occupancy mean %.2f, steady %.2f, max %d), "+
			"flushes %s, %d pressure-cut\n",
			sr.Items, sr.Batches, sr.MeanOccupancy, sr.MeanOccupancySteady, sr.MaxOccupancy,
			flushString(sr.Flushes), sr.PressureFlushes)
		fmt.Printf("scheduler queues: items per model version %s, %d mixed-version flushes\n",
			versionString(versionCounts(sr.ItemsByVersion)), sr.MixedVersionFlushes)
	}
	if f := res.Faults; f != nil {
		fmt.Printf("chaos: %d devices touched, %d faults injected "+
			"(%d drops, %d dups, %d delays, %d blackholes), %d TEE faults\n",
			f.Touched, f.Injected, f.Drops, f.Duplicates, f.Delays, f.Blackholes, f.TEEFaults)
		fmt.Printf("recovery: %d crashes -> %d restarts replaying %d stranded frames; "+
			"%d retries recovered %d frames, %d expired, %d duplicates deduplicated\n",
			f.Crashes, f.Restarts, f.Recovered, f.Retries, f.RetryRecovered,
			f.Expired, f.DuplicatesDropped)
	}

	if res.AttestedDevices > 0 {
		fmt.Printf("attestation: %d devices attested; fleet model versions %s; "+
			"rogue frames %d/%d rejected, %d unattested events ingested\n",
			res.AttestedDevices, versionString(res.ModelVersions),
			res.RogueRejected, res.RogueAttempts, res.UnattestedIngested)
	}
	if res.Rotated > 0 || res.Revoked > 0 {
		fmt.Printf("lifecycle: %d keys rotated (epochs %s), %d devices revoked, "+
			"%d/%d post-revocation probes rejected\n",
			res.Rotated, epochString(res.KeyEpochs),
			res.Revoked, res.RevokeRejected, res.RevokeProbes)
	}
	if len(res.TenantAttested) > 0 {
		tenants := make([]string, 0, len(res.TenantAttested))
		for tnt := range res.TenantAttested {
			tenants = append(tenants, tnt)
		}
		sort.Strings(tenants)
		parts := make([]string, len(tenants))
		for i, tnt := range tenants {
			parts[i] = fmt.Sprintf("%s:%d", tnt, res.TenantAttested[tnt])
		}
		fmt.Printf("federation: attested per tenant %s\n", strings.Join(parts, " "))
	}
	if r := res.Rollout; r != nil {
		fmt.Printf("rollout: v%d -> v%d, canary %d, converged %v, ingest minimum v%d\n",
			r.BaseVersion, r.ToVersion, r.Canary, r.Converged, r.MinVersion)
		if r.AbortReason != "" {
			fmt.Printf("rollout aborted (%s): %d devices held on v%d with rollback records\n",
				r.AbortReason, len(r.Rollbacks), r.BaseVersion)
		}
	}

	fmt.Printf("aggregate: %d items at %.0f items/s; ingested %d cloud events (%d lost); "+
		"provider observed %d tokens, %d sensitive, %d audio bytes\n",
		res.TotalItems, res.Throughput(), res.IngestedFrames(), res.LostFrames(),
		res.Audit.TokensSeen, res.Audit.SensitiveTokens, res.Audit.AudioBytes)
	fmt.Printf("batched inference latency: p50 %.2f vms, p99 %.2f vms (virtual ms at 1 GHz)\n",
		res.Latency.Percentile(50)/1e6, res.Latency.Percentile(99)/1e6)

	if *jsonPath != "" {
		if err := writeSnapshot(*jsonPath, res); err != nil {
			return err
		}
		fmt.Printf("snapshot written to %s\n", *jsonPath)
	}

	if tel := res.Telemetry; tel != nil {
		fmt.Printf("telemetry: 1-in-%d sampling, %d devices traced (%d skipped), %d spans, %d anomalies\n",
			tel.SampleEvery, tel.SampledDevices(), tel.UnsampledDevices,
			tel.SpanCount(), len(tel.Anomalies))
		for _, a := range tel.Anomalies {
			fmt.Printf("  anomaly %s: %s\n", a.Kind, a.Detail)
		}
		// The dump goes last so `periguard-fleet -trace | periguard-trace
		// -timeline` works: ParseDump skips everything before the header.
		if err := tel.WriteDump(os.Stdout); err != nil {
			return err
		}
	}
	return nil
}

// rejectReasons renders a shard's per-reason rejection split like
// "rev:4 pol:2" (zero reasons omitted, "-" when nothing was rejected).
func rejectReasons(s cloud.ShardStats) string {
	parts := make([]string, 0, 4)
	for _, r := range []struct {
		label string
		n     uint64
	}{
		{"rev", s.RejectedRevoked},
		{"stale", s.RejectedStale},
		{"forged", s.RejectedForged},
		{"pol", s.RejectedPolicy},
	} {
		if r.n > 0 {
			parts = append(parts, fmt.Sprintf("%s:%d", r.label, r.n))
		}
	}
	if len(parts) == 0 {
		return "-"
	}
	return strings.Join(parts, " ")
}

// snapshot is the stable JSON shape later PRs benchmark against; the
// schema is documented field-for-field in docs/OPERATIONS.md ("snapshot
// schema") and schema_test.go keeps the two from drifting.
type snapshot struct {
	Devices int `json:"devices"`
	Shards  int `json:"shards"`
	// Batch is the TA batch size the invocation asked for;
	// EffectiveBatch is what the enclave actually ran (clamped at
	// core.MaxBatch). Equal unless the request exceeded the cap.
	Batch          int    `json:"batch"`
	EffectiveBatch int    `json:"effective_batch"`
	Seed           uint64 `json:"seed"`
	// Mix is the effective speaker mode mix, keyed by mode name (the
	// defaults-filled spec, so a default run records the 1:1:1 split).
	Mix           map[string]int     `json:"mix"`
	BuildWallMs   float64            `json:"build_wall_ms"`
	RunWallMs     float64            `json:"run_wall_ms"`
	ItemsPerSec   float64            `json:"items_per_sec"`
	TotalItems    int                `json:"total_items"`
	CloudEvents   uint64             `json:"cloud_events"`
	LostFrames    int                `json:"lost_frames"`
	SensTokens    int                `json:"sensitive_tokens"`
	LatencyP50Vms float64            `json:"latency_p50_vms"`
	LatencyP99Vms float64            `json:"latency_p99_vms"`
	Groups        map[string]groupJS `json:"groups"`
	ShardStats    []shardJS          `json:"shard_stats"`

	// Admission/elasticity accounting (admission_policy always present;
	// the counters are omitted when zero, churn/rebalance when inactive).
	AdmissionPolicy  string   `json:"admission_policy"`
	ShedFrames       uint64   `json:"shed_frames,omitempty"`
	PriorityFrames   uint64   `json:"priority_frames,omitempty"`
	RebalancedFrames uint64   `json:"rebalanced_frames,omitempty"`
	Churn            *churnJS `json:"churn,omitempty"`
	Rebalance        *rebalJS `json:"rebalance,omitempty"`

	// Attested-run fields (omitted on plain runs).
	AttestedDevices    int            `json:"attested_devices,omitempty"`
	ModelVersions      map[uint64]int `json:"model_versions,omitempty"`
	Rollout            *rolloutJS     `json:"rollout,omitempty"`
	RogueAttempts      int            `json:"rogue_attempts,omitempty"`
	RogueRejected      int            `json:"rogue_rejected,omitempty"`
	UnattestedIngested int            `json:"unattested_ingested,omitempty"`

	// Lifecycle/federation fields (omitted outside -rotate/-revoke and
	// -federate runs respectively).
	Lifecycle      *lifecycleJS   `json:"lifecycle,omitempty"`
	TenantAttested map[string]int `json:"tenant_attested,omitempty"`

	// Chaos fields (omitted outside -faults runs).
	Faults *faultJS `json:"faults,omitempty"`

	// Scheduler fields (omitted outside -sched runs).
	Sched *schedJS `json:"sched,omitempty"`

	// Engine fields (every run).
	Async asyncJS `json:"async"`

	// Telemetry fields (omitted outside -trace runs).
	Telemetry *telemetryJS `json:"telemetry,omitempty"`
}

// telemetryJS is the schema-checked telemetry block of a traced run:
// sampling accounting, per-stage virtual-cycle latency quantiles, queue
// and batch occupancy, terminal verdicts, attestation verbs, and the
// flight-recorder anomaly log. Metadata only — no transcript tokens or
// sealed bytes ever appear here.
type telemetryJS struct {
	SampleEvery       int                `json:"sample_every"`
	SampledDevices    int                `json:"sampled_devices"`
	UnsampledDevices  int                `json:"unsampled_devices"`
	Spans             uint64             `json:"spans"`
	Stages            map[string]stageJS `json:"stages"`
	QueueDepthP99     float64            `json:"queue_depth_p99"`
	BatchOccupancyP99 float64            `json:"batch_occupancy_p99"`
	Verdicts          map[string]uint64  `json:"verdicts"`
	Verbs             map[string]uint64  `json:"verbs,omitempty"`
	Flushes           map[string]uint64  `json:"flushes,omitempty"`
	Anomalies         []anomalyJS        `json:"anomalies,omitempty"`
}

// stageJS is one pipeline stage's latency histogram summary (virtual
// cycles at 1 GHz).
type stageJS struct {
	Count     uint64  `json:"count"`
	P50Cycles float64 `json:"p50_cycles"`
	P99Cycles float64 `json:"p99_cycles"`
}

// anomalyJS is one flight-recorder dump trigger (the ring contents stay
// in the text dump; the snapshot records what fired and why).
type anomalyJS struct {
	Kind   string `json:"kind"`
	Detail string `json:"detail"`
}

// lifecycleJS summarizes mid-run key rotation and revocation: rotated
// devices re-attested per key epoch, revoked devices, and how many of
// the post-revocation probe frames the frontend rejected (a correct gate
// rejects all of them).
type lifecycleJS struct {
	Rotated       int            `json:"rotated"`
	KeyEpochs     map[uint64]int `json:"key_epochs"`
	Revoked       int            `json:"revoked"`
	ProbeAttempts int            `json:"probe_attempts"`
	ProbeRejected int            `json:"probe_rejected"`
}

type groupJS struct {
	Devices     int     `json:"devices"`
	Items       int     `json:"items"`
	ItemsPerSec float64 `json:"items_per_sec"`
	P50Vms      float64 `json:"p50_vms"`
	P99Vms      float64 `json:"p99_vms"`
	CloudEvents int     `json:"cloud_events"`
	SensTokens  int     `json:"sensitive_tokens"`
}

// shardJS carries per-shard counters, including the model version of
// every attested model-bearing device hosted on the shard — the field
// that makes rollout progress observable from the snapshot. Drained
// shards appear with drained=true and their final (retired) counters.
type shardJS struct {
	Name     string `json:"name"`
	Devices  int    `json:"devices"`
	Weight   int    `json:"weight"`
	Frames   uint64 `json:"frames"`
	Errors   uint64 `json:"errors"`
	Rejected uint64 `json:"rejected"`
	// Per-reason split of Rejected (the four sum to it exactly).
	RejectedRevoked uint64         `json:"rejected_revoked,omitempty"`
	RejectedStale   uint64         `json:"rejected_stale,omitempty"`
	RejectedForged  uint64         `json:"rejected_forged,omitempty"`
	RejectedPolicy  uint64         `json:"rejected_policy,omitempty"`
	Shed            uint64         `json:"shed"`
	Prioritized     uint64         `json:"prioritized"`
	Rebalanced      uint64         `json:"rebalanced"`
	QueuePeak       int            `json:"queue_peak"`
	Drained         bool           `json:"drained"`
	ModelVersions   map[uint64]int `json:"model_versions,omitempty"`
	// Chaos counters (omitted when the shard saw no crash or duplicate).
	Restarts          uint64 `json:"restarts,omitempty"`
	Recovered         uint64 `json:"recovered,omitempty"`
	DuplicatesDropped uint64 `json:"duplicates_dropped,omitempty"`
}

// faultJS summarizes a chaos run: what the plan injected and what the
// recovery machinery did about it. The conservation identity behind it:
// cloud_events + shed_frames + expired == the emitted total, so
// lost_frames stays 0 through crashes, drops and duplicates.
type faultJS struct {
	Injected          uint64 `json:"injected"`
	Recovered         uint64 `json:"recovered"`
	Expired           int    `json:"expired"`
	DuplicatesDropped uint64 `json:"duplicates_dropped"`
	Restarts          uint64 `json:"restarts"`
}

// schedJS summarizes a -sched run's cross-device TEE batch scheduler:
// the effective flush config, flush accounting by reason
// (full/age/idle/drain), occupancy of the shared forward passes, and the
// per-model-version item split. A correct scheduler never mixes model
// versions inside one flush, so mixed_version_flushes must read 0.
// mean_occupancy averages over every flush including the end-of-run
// drain tail (drain_batches flushes carrying drain_items items);
// mean_occupancy_steady excludes the tail and is the figure to compare
// across scheduling modes.
type schedJS struct {
	Batch               int               `json:"batch"`
	MaxAgeCycles        uint64            `json:"max_age_cycles"`
	Batches             uint64            `json:"batches"`
	Items               uint64            `json:"items"`
	MeanOccupancy       float64           `json:"mean_occupancy"`
	MeanOccupancySteady float64           `json:"mean_occupancy_steady"`
	DrainBatches        uint64            `json:"drain_batches"`
	DrainItems          uint64            `json:"drain_items"`
	MaxOccupancy        int               `json:"max_occupancy"`
	Flushes             map[string]uint64 `json:"flushes"`
	ItemsByVersion      map[uint64]uint64 `json:"items_by_version"`
	MixedVersionFlushes uint64            `json:"mixed_version_flushes"`
	PressureFlushes     uint64            `json:"pressure_flushes"`
}

// asyncJS summarizes the fleet engine: the executor pool size, executor
// dispatches, waits parked (classify groups on the shared scheduler and
// devices on the rollout verdict), and the peak count of concurrently
// live device pipelines — the honest memory figure for large
// populations.
type asyncJS struct {
	Executors int    `json:"executors"`
	Steps     uint64 `json:"steps"`
	Parks     uint64 `json:"parks"`
	PeakLive  int    `json:"peak_live"`
}

// churnJS summarizes mid-run population churn.
type churnJS struct {
	Joined int `json:"joined"`
	Left   int `json:"left"`
}

// rebalJS summarizes the scheduled mid-run tier rebalance.
type rebalJS struct {
	Fired        bool     `json:"fired"`
	AddedShards  []string `json:"added_shards"`
	DrainedShard string   `json:"drained_shard"`
}

type rolloutJS struct {
	BaseVersion uint64       `json:"base_version"`
	ToVersion   uint64       `json:"to_version"`
	Canary      int          `json:"canary"`
	Converged   bool         `json:"converged"`
	MinVersion  uint64       `json:"min_version"`
	AbortReason string       `json:"abort_reason"`
	Rollbacks   []rollbackJS `json:"rollbacks"`
}

// rollbackJS is one structured rollback record of an aborted rollout.
type rollbackJS struct {
	Device      string `json:"device"`
	FromVersion uint64 `json:"from_version"`
	ToVersion   uint64 `json:"to_version"`
	Reason      string `json:"reason"`
}

// versionCounts narrows a uint64-valued version tally for the int-based
// render helpers (item counts fit comfortably).
func versionCounts(in map[uint64]uint64) map[uint64]int {
	out := make(map[uint64]int, len(in))
	for v, n := range in {
		out[v] = int(n)
	}
	return out
}

// flushString renders the scheduler's flush-reason tally like
// "full:12 age:3" in fixed reason order.
func flushString(in map[string]uint64) string {
	parts := make([]string, 0, len(in))
	for _, reason := range []string{"full", "age", "idle", "drain"} {
		if n, ok := in[reason]; ok {
			parts = append(parts, fmt.Sprintf("%s:%d", reason, n))
		}
	}
	if len(parts) == 0 {
		return "-"
	}
	return strings.Join(parts, " ")
}

// versionString renders a tally like "v1:3 v2:61" in version order.
func versionString(in map[uint64]int) string { return tallyString(in, "v") }

// epochString renders a key-epoch tally like "e0:53 e1:11".
func epochString(in map[uint64]int) string { return tallyString(in, "e") }

func tallyString(in map[uint64]int, prefix string) string {
	if len(in) == 0 {
		return "-"
	}
	keys := make([]uint64, 0, len(in))
	for k := range in {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s%d:%d", prefix, k, in[k])
	}
	return strings.Join(parts, " ")
}

// telemetryBlock renders the aggregated obs.Telemetry into the snapshot
// schema: stage histograms collapse to count/p50/p99, verdict and verb
// maps re-key by name, anomalies keep kind+detail only.
func telemetryBlock(tel *obs.Telemetry) *telemetryJS {
	tj := &telemetryJS{
		SampleEvery:       tel.SampleEvery,
		SampledDevices:    tel.SampledDevices(),
		UnsampledDevices:  tel.UnsampledDevices,
		Spans:             tel.SpanCount(),
		Stages:            map[string]stageJS{},
		QueueDepthP99:     tel.Queue.Quantile(0.99),
		BatchOccupancyP99: tel.Batch.Quantile(0.99),
		Verdicts:          map[string]uint64{},
	}
	for _, s := range obs.Stages() {
		h := tel.Stages[s]
		if h == nil || h.Count() == 0 {
			continue
		}
		tj.Stages[s.String()] = stageJS{
			Count:     h.Count(),
			P50Cycles: h.Quantile(0.5),
			P99Cycles: h.Quantile(0.99),
		}
	}
	for _, v := range obs.Verdicts() {
		if n := tel.Verdicts[v]; n > 0 {
			tj.Verdicts[v.String()] = n
		}
	}
	if len(tel.Verbs) > 0 {
		tj.Verbs = make(map[string]uint64, len(tel.Verbs))
		for k, n := range tel.Verbs {
			tj.Verbs[k] = n
		}
	}
	if len(tel.Flushes) > 0 {
		tj.Flushes = make(map[string]uint64, len(tel.Flushes))
		for k, n := range tel.Flushes {
			tj.Flushes[k] = n
		}
	}
	for _, a := range tel.Anomalies {
		tj.Anomalies = append(tj.Anomalies, anomalyJS{Kind: a.Kind, Detail: a.Detail})
	}
	return tj
}

func writeSnapshot(path string, res *fleet.Result) error {
	snap := snapshot{
		Devices:            res.Config.Devices,
		Shards:             res.Config.Shards,
		Batch:              res.RequestedBatch,
		EffectiveBatch:     res.EffectiveBatch,
		Seed:               res.Config.Seed,
		Mix:                res.Config.Mix.Named(),
		BuildWallMs:        float64(res.BuildWall.Microseconds()) / 1e3,
		RunWallMs:          float64(res.RunWall.Microseconds()) / 1e3,
		ItemsPerSec:        res.Throughput(),
		TotalItems:         res.TotalItems,
		CloudEvents:        res.IngestedFrames(),
		LostFrames:         res.LostFrames(),
		SensTokens:         res.Audit.SensitiveTokens,
		LatencyP50Vms:      res.Latency.Percentile(50) / 1e6,
		LatencyP99Vms:      res.Latency.Percentile(99) / 1e6,
		Groups:             map[string]groupJS{},
		AdmissionPolicy:    res.PolicyName,
		ShedFrames:         res.ShedFrames(),
		PriorityFrames:     res.PriorityFrames(),
		RebalancedFrames:   res.RebalancedFrames(),
		AttestedDevices:    res.AttestedDevices,
		ModelVersions:      res.ModelVersions,
		RogueAttempts:      res.RogueAttempts,
		RogueRejected:      res.RogueRejected,
		UnattestedIngested: res.UnattestedIngested,
	}
	if res.Joined > 0 || res.Left > 0 {
		snap.Churn = &churnJS{Joined: res.Joined, Left: res.Left}
	}
	if res.Rotated > 0 || res.Revoked > 0 {
		snap.Lifecycle = &lifecycleJS{
			Rotated:       res.Rotated,
			Revoked:       res.Revoked,
			ProbeAttempts: res.RevokeProbes,
			ProbeRejected: res.RevokeRejected,
		}
		if len(res.KeyEpochs) > 0 {
			snap.Lifecycle.KeyEpochs = res.KeyEpochs // an empty tally reads null
		}
	}
	if len(res.TenantAttested) > 0 {
		snap.TenantAttested = res.TenantAttested
	}
	if sr := res.Sched; sr != nil {
		snap.Sched = &schedJS{
			Batch:               sr.Batch,
			MaxAgeCycles:        uint64(sr.MaxAge),
			Batches:             sr.Batches,
			Items:               sr.Items,
			MeanOccupancy:       sr.MeanOccupancy,
			MeanOccupancySteady: sr.MeanOccupancySteady,
			DrainBatches:        sr.DrainBatches,
			DrainItems:          sr.DrainItems,
			MaxOccupancy:        sr.MaxOccupancy,
			Flushes:             sr.Flushes,
			ItemsByVersion:      sr.ItemsByVersion,
			MixedVersionFlushes: sr.MixedVersionFlushes,
			PressureFlushes:     sr.PressureFlushes,
		}
	}
	snap.Async = asyncJS{
		Executors: res.Async.Executors,
		Steps:     res.Async.Steps,
		Parks:     res.Async.Parks,
		PeakLive:  res.Async.PeakLive,
	}
	if f := res.Faults; f != nil {
		snap.Faults = &faultJS{
			Injected:          f.Injected,
			Recovered:         f.Recovered,
			Expired:           f.Expired,
			DuplicatesDropped: f.DuplicatesDropped,
			Restarts:          f.Restarts,
		}
	}
	if rb := res.Rebalance; rb != nil {
		snap.Rebalance = &rebalJS{
			Fired:        rb.Fired,
			AddedShards:  append([]string{}, rb.AddedShards...),
			DrainedShard: rb.DrainedShard,
		}
	}
	for _, k := range res.GroupKeys() {
		g := res.Groups[k]
		snap.Groups[k.String()] = groupJS{
			Devices:     g.Devices,
			Items:       g.Items,
			ItemsPerSec: metrics.Throughput(g.Items, res.RunWall.Seconds()),
			P50Vms:      g.Latency.Percentile(50) / 1e6,
			P99Vms:      g.Latency.Percentile(99) / 1e6,
			CloudEvents: g.CloudEvents,
			SensTokens:  g.SensitiveTokens,
		}
	}
	for _, s := range res.ShardStats {
		snap.ShardStats = append(snap.ShardStats, shardJS{
			Name:              s.Name,
			Devices:           s.Devices,
			Weight:            s.Weight,
			Frames:            s.Frames,
			Errors:            s.Errors,
			Rejected:          s.Rejected,
			RejectedRevoked:   s.RejectedRevoked,
			RejectedStale:     s.RejectedStale,
			RejectedForged:    s.RejectedForged,
			RejectedPolicy:    s.RejectedPolicy,
			Shed:              s.Shed,
			Prioritized:       s.Prioritized,
			Rebalanced:        s.Rebalanced,
			QueuePeak:         s.QueuePeak,
			Drained:           s.Drained,
			ModelVersions:     res.ShardModelVersions[s.Name],
			Restarts:          s.Restarts,
			Recovered:         s.Recovered,
			DuplicatesDropped: s.DuplicatesDropped,
		})
	}
	if r := res.Rollout; r != nil {
		snap.Rollout = &rolloutJS{
			BaseVersion: r.BaseVersion,
			ToVersion:   r.ToVersion,
			Canary:      r.Canary,
			Converged:   r.Converged,
			MinVersion:  r.MinVersion,
			AbortReason: r.AbortReason,
			Rollbacks:   []rollbackJS{},
		}
		for _, rb := range r.Rollbacks {
			snap.Rollout.Rollbacks = append(snap.Rollout.Rollbacks, rollbackJS{
				Device:      rb.Device,
				FromVersion: rb.FromVersion,
				ToVersion:   rb.ToVersion,
				Reason:      rb.Reason,
			})
		}
	}
	if tel := res.Telemetry; tel != nil {
		snap.Telemetry = telemetryBlock(tel)
	}
	blob, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}
