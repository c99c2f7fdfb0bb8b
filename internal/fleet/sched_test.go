package fleet

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/tz"
)

// TestSchedBatchEquivalenceProperty is the tentpole's correctness pin:
// across 8 randomized configurations (population size, scheduler batch
// size, flush deadline, canary fraction, churn), a scheduled run's
// per-device audit fingerprints are bit-identical to the unbatched
// per-device run of the same seed. Cross-device batching may change
// when classification happens and how big the serving forward pass is —
// never what any device's transcripts, verdicts or audit counters say.
func TestSchedBatchEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 8; trial++ {
		schedBatch := 2 + rng.Intn(core.MaxBatch-1) // 2..MaxBatch
		cfg := Config{
			Devices:    12 + rng.Intn(17), // 12..28
			Shards:     2 + rng.Intn(3),
			Utterances: 2,
			Frames:     2,
			Seed:       uint64(1000 + trial),
			Batch:      1 + rng.Intn(schedBatch), // device queue must fit one flush
		}
		if rng.Intn(2) == 1 {
			cfg.Rollout = &RolloutSpec{CanaryFraction: 0.1 + 0.4*rng.Float64()}
		}
		if rng.Intn(2) == 1 {
			cfg.Churn = &ChurnSpec{JoinFraction: 0.25, LeaveFraction: 0.25}
		}
		maxAge := tz.Cycles(10_000 + rng.Intn(2_000_000))
		t.Logf("trial %d: devices=%d shards=%d batch=%d sched=%d maxAge=%d rollout=%v churn=%v",
			trial, cfg.Devices, cfg.Shards, cfg.Batch, schedBatch, maxAge,
			cfg.Rollout != nil, cfg.Churn != nil)

		plain, err := Run(cfg)
		if err != nil {
			t.Fatalf("trial %d unbatched: %v", trial, err)
		}
		scfg := cfg
		scfg.Sched = &SchedSpec{Batch: schedBatch, MaxAge: maxAge}
		scheduled, err := Run(scfg)
		if err != nil {
			t.Fatalf("trial %d scheduled: %v", trial, err)
		}

		if scheduled.LostFrames() != 0 {
			t.Fatalf("trial %d: scheduled run lost %d frames", trial, scheduled.LostFrames())
		}
		if len(scheduled.DeviceResults) != len(plain.DeviceResults) {
			t.Fatalf("trial %d: population diverged: %d vs %d devices",
				trial, len(scheduled.DeviceResults), len(plain.DeviceResults))
		}
		for i := range plain.DeviceResults {
			if got, want := fingerprint(scheduled.DeviceResults[i]), fingerprint(plain.DeviceResults[i]); got != want {
				t.Fatalf("trial %d device %d diverged under scheduling:\n sched: %s\n plain: %s",
					trial, i, got, want)
			}
		}
		rep := scheduled.Sched
		if rep == nil {
			t.Fatalf("trial %d: scheduled run has no scheduler report", trial)
		}
		if rep.Items == 0 || rep.Batches == 0 {
			t.Fatalf("trial %d: scheduler classified nothing: %+v", trial, rep)
		}
		if rep.MixedVersionFlushes != 0 {
			t.Fatalf("trial %d: %d flushes mixed model versions", trial, rep.MixedVersionFlushes)
		}
		if rep.MaxOccupancy > schedBatch {
			t.Fatalf("trial %d: flush of %d items exceeds scheduler batch %d",
				trial, rep.MaxOccupancy, schedBatch)
		}
		var flushed uint64
		for _, n := range rep.Flushes {
			flushed += n
		}
		if flushed != rep.Batches {
			t.Fatalf("trial %d: flush reasons account for %d batches, ran %d", trial, flushed, rep.Batches)
		}
		var byVersion uint64
		for _, n := range rep.ItemsByVersion {
			byVersion += n
		}
		if byVersion != rep.Items {
			t.Fatalf("trial %d: per-version items %d != total %d", trial, byVersion, rep.Items)
		}
	}
}

// TestSchedulerUnderChurnRace runs the scheduled fleet under join/leave
// churn while a staged rollout raises the fleet's minimum admitted model
// version mid-run — under -race this doubles as the scheduler's data-race
// suite. Joiners provisioned at the rollout target must land in the
// target version's queue (never batched with the stable cohort), and the
// audits still match the unbatched run exactly.
func TestSchedulerUnderChurnRace(t *testing.T) {
	cfg := Config{
		Devices:          24,
		DoorbellFraction: -1,
		Mix:              MixSpec{core.ModeSecureFilter: 1}, // all secure-filter speakers
		Shards:           3,
		Utterances:       2,
		Seed:             99,
		// More executors than canary slots: canaries, the stable cohort
		// and joiners all provision concurrently.
		DeviceWorkers: 16,
		Rollout:       &RolloutSpec{CanaryFraction: 0.25},
		Churn:         &ChurnSpec{JoinFraction: 0.5, LeaveFraction: 0.2},
	}
	plain, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	scfg := cfg
	scfg.Sched = &SchedSpec{Batch: 4, MaxAge: 200_000}
	scheduled, err := Run(scfg)
	if err != nil {
		t.Fatal(err)
	}
	if scheduled.Joined == 0 || scheduled.Left == 0 {
		t.Fatalf("churn did not churn: joined %d, left %d", scheduled.Joined, scheduled.Left)
	}
	if scheduled.Rollout == nil || !scheduled.Rollout.Converged {
		t.Fatalf("rollout did not converge under scheduling: %+v", scheduled.Rollout)
	}
	if scheduled.Rollout.MinVersion != scheduled.Rollout.ToVersion {
		t.Fatalf("ingest floor %d, want %d", scheduled.Rollout.MinVersion, scheduled.Rollout.ToVersion)
	}
	if scheduled.LostFrames() != 0 {
		t.Fatalf("lost %d frames", scheduled.LostFrames())
	}
	for i := range plain.DeviceResults {
		if got, want := fingerprint(scheduled.DeviceResults[i]), fingerprint(plain.DeviceResults[i]); got != want {
			t.Fatalf("device %d diverged under scheduling:\n sched: %s\n plain: %s", i, got, want)
		}
	}
	rep := scheduled.Sched
	if rep == nil {
		t.Fatal("no scheduler report")
	}
	if rep.MixedVersionFlushes != 0 {
		t.Fatalf("%d flushes mixed model versions", rep.MixedVersionFlushes)
	}
	// The cohorts are fixed by admission order, so both queues carry
	// traffic in every run: the stable cohort classifies at the base
	// version while the canaries, and every device admitted after the
	// verdict, classify at the target.
	base, to := scheduled.Rollout.BaseVersion, scheduled.Rollout.ToVersion
	for v := range rep.ItemsByVersion {
		if v != base && v != to {
			t.Fatalf("items classified at unprovisioned version %d: %v", v, rep.ItemsByVersion)
		}
	}
	if rep.ItemsByVersion[base] == 0 || rep.ItemsByVersion[to] == 0 {
		t.Fatalf("a per-version queue saw no traffic: %v", rep.ItemsByVersion)
	}
	t.Logf("items by version: %v, flushes: %v", rep.ItemsByVersion, rep.Flushes)
}

// TestSchedLoneDeviceCompletes: a single secure-filter speaker on an
// otherwise empty scheduler can never fill a batch — the run completing
// at all (rather than deadlocking) proves the deadline/idle machinery
// flushes a starved queue, and its audit still matches the unbatched run.
func TestSchedLoneDeviceCompletes(t *testing.T) {
	cfg := Config{
		Devices:          2,
		DoorbellFraction: -1,
		Mix:              MixSpec{core.ModeSecureFilter: 1},
		Utterances:       2,
		Seed:             7,
		DeviceWorkers:    8, // more executors than devices: idle executors must not stall the flush
	}
	plain, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	scfg := cfg
	scfg.Sched = &SchedSpec{Batch: core.MaxBatch, MaxAge: 50_000}
	scheduled, err := Run(scfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain.DeviceResults {
		if got, want := fingerprint(scheduled.DeviceResults[i]), fingerprint(plain.DeviceResults[i]); got != want {
			t.Fatalf("device %d diverged:\n sched: %s\n plain: %s", i, got, want)
		}
	}
	rep := scheduled.Sched
	if rep == nil || rep.Items == 0 {
		t.Fatalf("scheduler classified nothing: %+v", rep)
	}
	if rep.Flushes[sched.ReasonFull] == rep.Batches {
		t.Fatalf("every flush was batch-full — starvation path untested: %v", rep.Flushes)
	}
}

// TestBatchClampSurfaced is the PR's bugfix regression test: the fleet
// used to silently cap Config.Batch at core.MaxBatch. The clamp still
// applies (the TA cannot run a bigger forward pass) but is now surfaced
// in Result.RequestedBatch vs Result.EffectiveBatch — and a scheduler
// config that asks for more than the TA can serve fails fast instead.
func TestBatchClampSurfaced(t *testing.T) {
	res, err := Run(Config{
		Devices:          4,
		DoorbellFraction: -1,
		Mix:              MixSpec{core.ModeSecureFilter: 1},
		Utterances:       1,
		Seed:             3,
		Batch:            32,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.RequestedBatch != 32 {
		t.Fatalf("requested batch %d, want the 32 the config asked for", res.RequestedBatch)
	}
	if res.EffectiveBatch != core.MaxBatch {
		t.Fatalf("effective batch %d, want the core.MaxBatch clamp (%d)", res.EffectiveBatch, core.MaxBatch)
	}

	// A defaulted config surfaces request == effective.
	res, err = Run(Config{Devices: 4, Utterances: 1, Frames: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.RequestedBatch != res.EffectiveBatch {
		t.Fatalf("defaulted run surfaced a phantom clamp: requested %d effective %d",
			res.RequestedBatch, res.EffectiveBatch)
	}

	// The scheduler refuses up front: a shared flush larger than
	// core.MaxBatch can never run, so it is ErrBadConfig, not a clamp.
	_, err = Run(Config{
		Devices:    4,
		Utterances: 1,
		Seed:       3,
		Sched:      &SchedSpec{Batch: 32},
	})
	if !errors.Is(err, ErrBadConfig) {
		t.Fatalf("oversized scheduler batch: got %v, want ErrBadConfig", err)
	}

	// A device TA queue bigger than the shared flush could never drain
	// through it — also fail-fast.
	_, err = Run(Config{
		Devices:    4,
		Utterances: 1,
		Seed:       3,
		Batch:      8,
		Sched:      &SchedSpec{Batch: 4},
	})
	if !errors.Is(err, ErrBadConfig) {
		t.Fatalf("device batch > scheduler batch: got %v, want ErrBadConfig", err)
	}
}

// TestSchedSingleExecutorDeterminism: the scheduler owns no goroutines,
// so on one executor every flush runs on that executor in an order fixed
// by the run's config. Three runs under GOMAXPROCS 1 and three under 4
// must agree exactly on the flush tallies, the engine's steps, parks and
// peak live pipelines, and every device's virtual latencies.
func TestSchedSingleExecutorDeterminism(t *testing.T) {
	cfg := Config{
		Devices:          48,
		DoorbellFraction: -1,
		Mix:              MixSpec{core.ModeSecureFilter: 2, core.ModeBaseline: 1},
		Shards:           2,
		Utterances:       3,
		Batch:            2,
		Seed:             21,
		DeviceWorkers:    1,
		Sched:            &SchedSpec{Batch: 4, MaxAge: 200_000},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var first string
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for run := 0; run < 3; run++ {
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := scheduledRunDigest(res)
			if first == "" {
				first = got
				t.Logf("flushes %v, %d batches, peak live %d", res.Sched.Flushes, res.Sched.Batches, res.Async.PeakLive)
				continue
			}
			if got != first {
				t.Fatalf("GOMAXPROCS %d run %d diverged:\n got: %s\nwant: %s", procs, run, got, first)
			}
		}
	}
}

// scheduledRunDigest renders what a scheduled run decided: the
// scheduler's flushes, the engine's counters and each device's virtual
// cycles per utterance.
func scheduledRunDigest(res *Result) string {
	rep, eng := res.Sched, res.Async
	out := fmt.Sprintf("flushes=%v batches=%d items=%d max=%d pressure=%d steps=%d parks=%d peak_live=%d",
		rep.Flushes, rep.Batches, rep.Items, rep.MaxOccupancy, rep.PressureFlushes, eng.Steps, eng.Parks, eng.PeakLive)
	for i, r := range res.DeviceResults {
		cycles := make([]tz.Cycles, len(r.Session.Utterances))
		for j, u := range r.Session.Utterances {
			cycles[j] = u.Cycles
		}
		out += fmt.Sprintf(" d%d=%v/%d", i, cycles, r.Session.TotalCycles)
	}
	return out
}

// TestSchedPressureReadsLiveRing: the scheduler's backpressure gauge reads
// the router's live shards. A saturated shard that joins the ring through
// AddShard after the scheduler is built must halve the deadline of the
// next idle cut.
func TestSchedPressureReadsLiveRing(t *testing.T) {
	const maxAge = tz.Cycles(40_000)
	spec := &SchedSpec{Batch: 4, MaxAge: maxAge}
	router := testRouter(t)
	sc, err := newSchedControl(Config{Seed: 5, Sched: spec}, nil, router)
	if err != nil {
		t.Fatal(err)
	}
	// idleWait submits one item, makes the idle cut and returns the
	// item's charged wait less its share of the forward pass.
	idleWait := func() tz.Cycles {
		t.Helper()
		var resp sched.Response
		if err := sc.scheduler.SubmitAsync(sched.Request{DeviceID: "d", Items: [][]int{{1, 2, 3}}},
			func(r sched.Response, err error) {
				if err != nil {
					t.Error(err)
				}
				resp = r
			}); err != nil {
			t.Fatal(err)
		}
		if !sc.scheduler.NotifyIdle() {
			t.Fatal("NotifyIdle found nothing to cut")
		}
		_, pass, err := sc.execute(0, [][]int{{1, 2, 3}})
		if err != nil {
			t.Fatal(err)
		}
		return resp.Wait - pass
	}
	if got := idleWait(); got != maxAge {
		t.Fatalf("idle ring: wait %d, want the full deadline %d", got, maxAge)
	}

	// A shard with one worker and a one-frame queue: the worker blocks
	// serving the first frame, the second waits in the full queue.
	hot := cloud.NewShard("shard-hot", 1, 1)
	router.AddShard(hot, 1)
	unblock := make(chan struct{})
	hot.Register("sensor", blockingProvider{unblock})
	var wg sync.WaitGroup
	defer func() {
		close(unblock)
		wg.Wait()
	}()
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The frames only fill the queue; how they are served is
			// not under test.
			_, _ = hot.Ingest("sensor", []byte{1})
		}()
	}
	for deadline := time.Now().Add(5 * time.Second); hot.Utilization() < 1; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatal("the added shard never saturated")
		}
	}
	if got := idleWait(); got != maxAge/2 {
		t.Fatalf("saturated shard added to the ring: wait %d, want the halved deadline %d", got, maxAge/2)
	}
	if st := sc.scheduler.Stats(); st.PressureFlushes != 1 {
		t.Fatalf("pressure flushes %d, want 1: %+v", st.PressureFlushes, st)
	}
}

// testRouter is a one-shard ring with no admission policy, closed when
// the test ends.
func testRouter(t *testing.T) *cloud.Router {
	t.Helper()
	router, err := cloud.NewRouter([]*cloud.Shard{cloud.NewShard("shard-00", 1, 4)}, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(router.Close)
	return router
}

// blockingProvider serves a frame once its channel is closed.
type blockingProvider struct{ unblock chan struct{} }

func (p blockingProvider) Deliver([]byte) ([]byte, error) {
	<-p.unblock
	return nil, nil
}
func (blockingProvider) Audit() cloud.Audit { return cloud.Audit{} }
func (blockingProvider) Reset()             {}
