package fleet

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
)

// TestFleetShardedIngest is the subsystem's load test: a mixed population
// across ≥4 shards with ≥64 devices, concurrent end to end (run it with
// -race). A correct ingest tier loses no frames and its aggregated audit
// equals the sum of per-device expectations.
func TestFleetShardedIngest(t *testing.T) {
	cfg := Config{
		Devices:    64,
		Shards:     4,
		Utterances: 2,
		Frames:     3,
		Seed:       7,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	if res.LostFrames() != 0 {
		t.Fatalf("lost %d frames (expected %d, ingested %d)",
			res.LostFrames(), res.ExpectedCloudEvents, res.IngestedFrames())
	}
	for _, s := range res.ShardStats {
		if s.Errors != 0 {
			t.Fatalf("shard %s rejected %d frames", s.Name, s.Errors)
		}
	}
	if res.Audit.Events != res.ExpectedCloudEvents {
		t.Fatalf("provider audit saw %d events, devices emitted %d",
			res.Audit.Events, res.ExpectedCloudEvents)
	}

	// Aggregated leakage must equal the sum of per-device expectations.
	wantSensitive := 0
	for _, g := range res.Groups {
		wantSensitive += g.SensitiveTokens
	}
	if res.Audit.SensitiveTokens != wantSensitive {
		t.Fatalf("aggregate sensitive tokens %d != per-device sum %d",
			res.Audit.SensitiveTokens, wantSensitive)
	}

	// Devices landed on more than one shard, and every uplinking device
	// is registered somewhere.
	usedShards, registered := 0, 0
	for _, s := range res.ShardStats {
		if s.Devices > 0 {
			usedShards++
		}
		registered += s.Devices
	}
	if usedShards < 2 {
		t.Fatalf("population of 64 landed on %d shard(s)", usedShards)
	}
	total := 0
	for _, g := range res.Groups {
		total += g.Devices
	}
	if total != cfg.Devices {
		t.Fatalf("grouped %d devices, want %d", total, cfg.Devices)
	}
	if registered == 0 || registered > cfg.Devices {
		t.Fatalf("implausible registration count %d", registered)
	}
	if res.TotalItems == 0 || res.Latency.Count() != res.TotalItems {
		t.Fatalf("latency samples %d != items %d", res.Latency.Count(), res.TotalItems)
	}
}

// TestFleetDeterminism: same root seed → identical leakage and outcome
// counts, regardless of scheduling.
func TestFleetDeterminism(t *testing.T) {
	cfg := Config{
		Devices:    12,
		Shards:     3,
		Utterances: 2,
		Frames:     2,
		Seed:       11,
	}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Audit.Events != b.Audit.Events ||
		a.Audit.TokensSeen != b.Audit.TokensSeen ||
		a.Audit.SensitiveTokens != b.Audit.SensitiveTokens ||
		a.Audit.AudioBytes != b.Audit.AudioBytes {
		t.Fatalf("audits differ across identical seeds:\n%+v\n%+v", a.Audit, b.Audit)
	}
	if a.TotalItems != b.TotalItems || a.ExpectedCloudEvents != b.ExpectedCloudEvents {
		t.Fatalf("counts differ: %d/%d vs %d/%d",
			a.TotalItems, a.ExpectedCloudEvents, b.TotalItems, b.ExpectedCloudEvents)
	}
	for _, k := range a.GroupKeys() {
		ga, gb := a.Groups[k], b.Groups[k]
		if gb == nil {
			t.Fatalf("group %v missing on rerun", k)
		}
		if ga.SensitiveTokens != gb.SensitiveTokens || ga.CloudEvents != gb.CloudEvents ||
			ga.Items != gb.Items || ga.PersonFrames != gb.PersonFrames {
			t.Fatalf("group %v differs: %+v vs %+v", k, ga, gb)
		}
		// Virtual latency is part of the deterministic surface.
		if ga.Latency.Percentile(50) != gb.Latency.Percentile(50) ||
			ga.Latency.Percentile(99) != gb.Latency.Percentile(99) {
			t.Fatalf("group %v latency percentiles differ", k)
		}
	}
}

// TestFleetFilterReducesLeakage: the fleet-level privacy claim — the
// secure-filter slice leaks less than the baseline slice under the same
// workload distribution.
func TestFleetFilterReducesLeakage(t *testing.T) {
	res, err := Run(Config{Devices: 24, Shards: 4, Utterances: 3, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	base := res.Groups[GroupKey{Kind: core.DeviceSpeaker, Mode: core.ModeBaseline}]
	filt := res.Groups[GroupKey{Kind: core.DeviceSpeaker, Mode: core.ModeSecureFilter}]
	if base == nil || filt == nil {
		t.Fatalf("mix missing modes: %v", res.GroupKeys())
	}
	perBase := float64(base.SensitiveTokens) / float64(base.Devices)
	perFilt := float64(filt.SensitiveTokens) / float64(filt.Devices)
	if perFilt >= perBase {
		t.Fatalf("filter did not reduce leakage: filtered %.2f vs baseline %.2f tokens/device",
			perFilt, perBase)
	}
}

func TestPlanMixesKindsAndModes(t *testing.T) {
	specs, err := Plan(Config{Devices: 32, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[core.DeviceKind]int{}
	modes := map[core.Mode]int{}
	seeds := map[uint64]bool{}
	for _, s := range specs {
		kinds[s.Kind]++
		modes[s.Mode]++
		if s.Seed == 0 {
			t.Fatal("derived zero device seed")
		}
		seeds[s.Seed] = true
		if s.ModelSeed != 5 {
			t.Fatalf("device ModelSeed %d, want shared root 5", s.ModelSeed)
		}
	}
	if kinds[core.DeviceSpeaker] == 0 || kinds[core.DeviceDoorbell] == 0 {
		t.Fatalf("population not mixed: %v", kinds)
	}
	for _, m := range []core.Mode{core.ModeBaseline, core.ModeSecureNoFilter, core.ModeSecureFilter} {
		if modes[m] == 0 {
			t.Fatalf("mode %v missing from plan: %v", m, modes)
		}
	}
	if len(seeds) != len(specs) {
		t.Fatalf("device seeds collide: %d unique of %d", len(seeds), len(specs))
	}

	// A negative fraction is the explicit speakers-only population.
	only, err := Plan(Config{Devices: 8, DoorbellFraction: -1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range only {
		if s.Kind != core.DeviceSpeaker {
			t.Fatalf("speakers-only plan produced a %v", s.Kind)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{Devices: 4, DoorbellFraction: 1.5}); err == nil {
		t.Fatal("accepted doorbell fraction > 1")
	}
	if _, err := Run(Config{Devices: 4, Mix: MixSpec{core.ModeBaseline: -1, core.ModeSecureNoFilter: 1, core.ModeSecureFilter: 1}}); err == nil {
		t.Fatal("accepted negative mix weight")
	}
}

// TestNaNFractionsRejected: NaN compares false against every bound, so
// each fraction must reject it explicitly, before any model trains
// (Plan trains nothing).
func TestNaNFractionsRejected(t *testing.T) {
	nan := math.NaN()
	for name, cfg := range map[string]Config{
		"doorbells": {DoorbellFraction: nan},
		"sensitive": {SensitiveFraction: nan},
		"canary":    {Rollout: &RolloutSpec{CanaryFraction: nan}},
		"join":      {Churn: &ChurnSpec{JoinFraction: nan}},
		"leave":     {Churn: &ChurnSpec{LeaveFraction: nan}},
		"rotate":    {Lifecycle: &LifecycleSpec{RotateFraction: nan}},
		"revoke":    {Lifecycle: &LifecycleSpec{RevokeFraction: nan}},
		"rebalance": {Rebalance: &RebalanceSpec{AtFraction: nan}},
		"touch":     {Faults: &FaultSpec{TouchFraction: nan}},
	} {
		cfg.Devices = 8
		if _, err := Plan(cfg); !errors.Is(err, ErrBadConfig) {
			t.Errorf("%s NaN: want ErrBadConfig, got %v", name, err)
		}
	}
}

// TestSpecReuseAcrossSeeds is the regression for defaults written
// through the caller's spec pointers: a ChurnSpec reused for a second
// seed used to keep the first run's seed-derived arrival plan. Each run
// now fills a private copy, so the reused spec plans exactly like a
// fresh one and the caller's spec is left as written.
func TestSpecReuseAcrossSeeds(t *testing.T) {
	shared := &ChurnSpec{JoinFraction: 0.25, LeaveFraction: 0.25}
	cfg := Config{Devices: 24, Shards: 2, Utterances: 2, Frames: 2, Churn: shared}
	run := func(seed uint64, churn *ChurnSpec) *Result {
		t.Helper()
		c := cfg
		c.Seed, c.Churn = seed, churn
		res, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	run(1, shared)
	reused := run(2, shared)
	fresh := run(2, &ChurnSpec{JoinFraction: 0.25, LeaveFraction: 0.25})
	if *shared != (ChurnSpec{JoinFraction: 0.25, LeaveFraction: 0.25}) {
		t.Fatalf("run filled defaults into the caller's spec: %+v", *shared)
	}
	if !reflect.DeepEqual(reused.Leavers, fresh.Leavers) {
		t.Fatalf("reused spec left %v, fresh spec %v", reused.Leavers, fresh.Leavers)
	}
	if reused.Audit.Events != fresh.Audit.Events {
		t.Fatalf("reused spec ingested %d events, fresh spec %d", reused.Audit.Events, fresh.Audit.Events)
	}
}
