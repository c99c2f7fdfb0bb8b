package fleet

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/tz"
)

var updateFingerprints = flag.Bool("update", false, "rewrite testdata/fingerprints.json from the current run")

// runFingerprint is one run's committed fingerprint: what the fleet
// ingested and leaked, and (unscheduled runs) its virtual latency.
type runFingerprint struct {
	TotalItems      int     `json:"total_items"`
	CloudEvents     int     `json:"cloud_events"`
	SensitiveTokens int     `json:"sensitive_tokens"`
	LostFrames      int     `json:"lost_frames"`
	P50             float64 `json:"p50_cycles"`
	P99             float64 `json:"p99_cycles"`
}

// fingerprintConfig is the table's fleet for one seed: a mixed
// population, with churn and key rotation on even seeds.
func fingerprintConfig(seed uint64, workers int) Config {
	cfg := Config{Devices: 12, Shards: 2, Utterances: 2, Frames: 2, Seed: seed, DeviceWorkers: workers}
	if seed%2 == 0 {
		cfg.Churn = &ChurnSpec{JoinFraction: 0.25, LeaveFraction: 0.25}
		cfg.Lifecycle = &LifecycleSpec{RotateFraction: 0.25}
	}
	return cfg
}

// TestFleetFingerprints pins the engine against committed fingerprints:
// seeds 1–8 × pool sizes {1, 2, 8}, each with and without the shared
// scheduler, must reproduce testdata/fingerprints.json — total items,
// cloud events, sensitive tokens and zero lost frames on every run, and
// the virtual p50/p99 exactly on unscheduled runs (a scheduled run's
// latency follows flush composition). The pool size and the scheduler
// may move where waiting happens, never what any device computes.
// Regenerate with `go test ./internal/fleet -run TestFleetFingerprints -update`.
func TestFleetFingerprints(t *testing.T) {
	const path = "testdata/fingerprints.json"
	want := map[string]runFingerprint{}
	raw, err := os.ReadFile(path)
	if err != nil && !*updateFingerprints {
		t.Fatal(err)
	}
	if err == nil {
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatal(err)
		}
	}
	got := map[string]runFingerprint{}
	for seed := uint64(1); seed <= 8; seed++ {
		key := strconv.FormatUint(seed, 10)
		for _, workers := range []int{1, 2, 8} {
			for _, scheduled := range []bool{false, true} {
				cfg := fingerprintConfig(seed, workers)
				if scheduled {
					cfg.Sched = &SchedSpec{}
				}
				res, err := Run(cfg)
				if err != nil {
					t.Fatalf("seed %d workers %d sched %v: %v", seed, workers, scheduled, err)
				}
				fp := runFingerprint{
					TotalItems:      res.TotalItems,
					CloudEvents:     res.Audit.Events,
					SensitiveTokens: res.Audit.SensitiveTokens,
					LostFrames:      res.LostFrames(),
					P50:             res.Latency.Percentile(50),
					P99:             res.Latency.Percentile(99),
				}
				if res.Async == nil || res.Async.Executors != min(workers, len(res.DeviceResults)) {
					t.Fatalf("seed %d workers %d: engine report %+v", seed, workers, res.Async)
				}
				if scheduled != (res.Async.Parks > 0) {
					t.Fatalf("seed %d workers %d sched %v: %d parks", seed, workers, scheduled, res.Async.Parks)
				}
				if scheduled {
					w := want[key]
					fp.P50, fp.P99 = w.P50, w.P99
				} else if workers == 1 {
					got[key] = fp
				}
				if *updateFingerprints {
					continue
				}
				if fp != want[key] {
					t.Fatalf("seed %d workers %d sched %v: fingerprint %+v, committed %+v",
						seed, workers, scheduled, fp, want[key])
				}
			}
		}
	}
	if *updateFingerprints {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAsyncPipelineUnderChaosRace is the engine's -race suite: the
// parking pipeline under a chaos plan (uplink drops, duplicates,
// delays, expiry blackholes, a shard crash) with churn and a mid-run
// ingest-tier rebalance, all flowing through the shared scheduler. The
// conservation identity must hold exactly — every emitted frame is
// ingested, shed, or expired, never silently lost — and the fault and
// rebalance reports must stay internally consistent.
func TestAsyncPipelineUnderChaosRace(t *testing.T) {
	res, err := Run(Config{
		Devices:       48,
		Shards:        3,
		Utterances:    2,
		Frames:        2,
		Seed:          11,
		Churn:         &ChurnSpec{JoinFraction: 0.25, LeaveFraction: 0.25},
		Sched:         &SchedSpec{Batch: 4, MaxAge: 200_000},
		DeviceWorkers: 8,
		// Drain a shard the crash schedule does not target (crash targets
		// rotate from shard-00; a drained target would skip the crash).
		Rebalance: &RebalanceSpec{AtFraction: 0.5, AddShards: 1, DrainShard: 2},
		Faults: &FaultSpec{
			TouchFraction: 0.5,
			DropRate:      0.25,
			DuplicateRate: 0.15,
			DelayRate:     0.1,
			ExpireRate:    0.1,
			Crashes:       1,
			TEEFraction:   0.5,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.LostFrames(); got != 0 {
		t.Fatalf("lost %d frames under async+chaos+rebalance (expected == ingested + shed + expired broken)", got)
	}
	if res.Async == nil || res.Async.Steps == 0 {
		t.Fatalf("async engine report missing or inert: %+v", res.Async)
	}
	if res.Async.Parks == 0 {
		t.Fatal("no classify group ever parked on the shared scheduler")
	}
	rep := res.Faults
	if rep == nil {
		t.Fatal("chaos run returned no fault report")
	}
	if rep.Injected == 0 || rep.Touched == 0 {
		t.Fatalf("chaos plan was inert: %+v", rep)
	}
	if rep.Expired != res.ExpiredFrames() {
		t.Fatalf("report expired %d, device results say %d", rep.Expired, res.ExpiredFrames())
	}
	if rep.Crashes != 1 || rep.Restarts != 1 {
		t.Fatalf("crashes/restarts %d/%d, want 1/1", rep.Crashes, rep.Restarts)
	}
	if rep.Recovered != uint64(rep.QueuedAtCrash) {
		t.Fatalf("recovered %d, stranded at crash %d", rep.Recovered, rep.QueuedAtCrash)
	}
	if rep.TEEFaults == 0 {
		t.Fatalf("TEE fraction 0.5 hit no device: %+v", rep)
	}
	rb := res.Rebalance
	if rb == nil || !rb.Fired {
		t.Fatalf("mid-run rebalance did not fire: %+v", rb)
	}
	if rb.DrainedShard == "" || len(rb.AddedShards) != 1 {
		t.Fatalf("rebalance did not drain+add as configured: %+v", rb)
	}
	if res.Sched == nil || res.Sched.MixedVersionFlushes != 0 {
		t.Fatalf("scheduler report missing or version-mixed: %+v", res.Sched)
	}
	if res.Joined == 0 || res.Left == 0 {
		t.Fatalf("churn did not churn: joined %d, left %d", res.Joined, res.Left)
	}
}

// TestAsyncSchedOccupancy is the engine's perf acceptance pin: at 1000
// devices its true concurrent single-item enqueues must coalesce across
// devices into fuller shared flushes than the retired blocking-producer
// path managed (4.0 items/flush at this scale — see
// docs/PERFORMANCE.md), and the task table must stay far below one live
// pipeline per device.
func TestAsyncSchedOccupancy(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-device run")
	}
	// The blocking-producer baseline at 1000 devices: a producer blocked
	// in its classify call submitted its whole 4-item queue at once, so on
	// small hosts flushes mostly carried one device's queue.
	const syncBaseline = 4.0
	res, err := Run(Config{
		Devices: 1000,
		Shards:  8,
		Seed:    1,
		Sched:   &SchedSpec{}, // defaults: batch core.MaxBatch
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.LostFrames() != 0 {
		t.Fatalf("lost %d frames", res.LostFrames())
	}
	rep := res.Sched
	if rep == nil || rep.Items == 0 {
		t.Fatalf("scheduler classified nothing: %+v", rep)
	}
	t.Logf("occupancy: raw %.2f steady %.2f (max %d, %d flushes, %d drain), parks %d, peak live %d",
		rep.MeanOccupancy, rep.MeanOccupancySteady, rep.MaxOccupancy,
		rep.Batches, rep.DrainBatches, res.Async.Parks, res.Async.PeakLive)
	if rep.MeanOccupancy <= syncBaseline {
		t.Fatalf("mean occupancy %.2f items/flush does not beat the %.1f blocking-producer baseline",
			rep.MeanOccupancy, syncBaseline)
	}
	if rep.MeanOccupancySteady < rep.MeanOccupancy {
		t.Fatalf("steady occupancy %.2f below raw %.2f (drain tail can only drag the mean down)",
			rep.MeanOccupancySteady, rep.MeanOccupancy)
	}
	if res.Async.PeakLive > 500 {
		t.Fatalf("peak live pipelines %d at 1000 devices — the table is not bounding memory", res.Async.PeakLive)
	}
}

// TestAsyncEngineWakeOnPartialGroupFlush is the deterministic lost-wakeup
// regression at the engine level: devices A and B interleave single-item
// submissions, and the full flush cuts A0,B0,A1,B1 leaving A2,B2 queued.
// The flush runs on the executor whose submission filled the batch,
// while the other executor probes NotifyIdle (false — the flush is in
// flight) and goes to sleep. The flush's four callbacks drain neither
// task, so they wake no one: the A2,B2 leftovers sit below the batch
// size, and only the executor that ran the flush, back in nextTask,
// probes NotifyIdle again and cuts them. Both tasks must resume.
func TestAsyncEngineWakeOnPartialGroupFlush(t *testing.T) {
	started := make(chan struct{})
	gate := make(chan struct{})
	var flushes [][]int // each flush's item tokens, in order
	s, err := sched.New(sched.Config{Batch: 4, MaxAge: 1 << 40},
		func(version uint64, items [][]int) ([]bool, tz.Cycles, error) {
			var toks []int
			for _, it := range items {
				toks = append(toks, it[0])
			}
			flushes = append(flushes, toks)
			if len(flushes) == 1 { // pin the first flush in flight until the test releases it
				close(started)
				<-gate
			}
			return make([]bool, len(items)), tz.Cycles(100 * len(items)), nil
		})
	if err != nil {
		t.Fatal(err)
	}
	e := &asyncEngine{r: &runner{sched: &schedControl{scheduler: s}}, execs: 2, active: 2}
	e.cond = sync.NewCond(&e.mu)

	// Two parked tasks, each a group of three single-item submissions:
	// remaining = 3 callbacks + 1 submitter hold, as captureOrFinish sets.
	// Item j of device d carries token 10*d+j (A is 0, B is 1).
	mk := func() *devTask {
		return &devTask{flags: make([]bool, 3), occs: make([]int, 3),
			waits: make([]tz.Cycles, 3), remaining: 4}
	}
	A, B := mk(), mk()
	submit := func(d int, dt *devTask, j int) error {
		return s.SubmitAsync(sched.Request{DeviceID: string(rune('A' + d)), Items: [][]int{{10*d + j}}},
			func(resp sched.Response, err error) {
				e.mu.Lock()
				if err != nil {
					dt.failed = err
				} else {
					dt.flags[j] = resp.Flagged[0]
					dt.occs[j] = resp.Occupancy
					dt.waits[j] = resp.Wait
				}
				e.release(dt, 1)
				e.mu.Unlock()
			})
	}
	// executor runs the production scheduling loop, reporting each task
	// it resumes and retiring it.
	resumed := make(chan *devTask, 2)
	executor := func() {
		for {
			dt := e.nextTask()
			if dt == nil {
				return
			}
			resumed <- dt
			e.finish(dt, nil)
		}
	}
	for _, err := range []error{submit(0, A, 0), submit(1, B, 0), submit(0, A, 1)} {
		if err != nil {
			t.Fatal(err)
		}
	}
	// The mid-interleave cut: the fourth submission fills the batch, so
	// the first executor runs the flush of A0,B0,A1,B1, which blocks
	// inside the classifier, and then goes back to nextTask.
	filled := make(chan error, 1)
	go func() {
		filled <- submit(1, B, 1)
		executor()
	}()
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("full flush never started executing")
	}
	for _, err := range []error{submit(0, A, 2), submit(1, B, 2)} { // the stranded leftovers
		if err != nil {
			t.Fatal(err)
		}
	}
	e.mu.Lock()
	e.release(A, 1) // submitter holds, as captureOrFinish's tail drops them
	e.release(B, 1)
	e.mu.Unlock()

	// The second executor finds no ready task and no admission, probes
	// NotifyIdle (false — the flush is in flight) and parks in cond.Wait.
	go executor()
	time.Sleep(50 * time.Millisecond) // let it park behind the flush
	close(gate)                       // flush completes; its callbacks drain neither task

	for i := 0; i < 2; i++ {
		select {
		case dt := <-resumed:
			if dt != A && dt != B {
				t.Fatal("unknown task resumed")
			}
			if dt.failed != nil {
				t.Fatalf("task resumed with error: %v", dt.failed)
			}
			if dt.remaining != 0 {
				t.Fatalf("task resumed with %d holds outstanding", dt.remaining)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("executors slept through the partial-group flush: A2,B2 stranded (lost wakeup)")
		}
	}
	if err := <-filled; err != nil {
		t.Fatal(err)
	}
	s.Drain()
	if got := fmt.Sprint(flushes); got != "[[0 10 1 11] [2 12]]" {
		t.Fatalf("flushes %s, want the full cut of A0,B0,A1,B1 then the idle cut of A2,B2", got)
	}
	if st := s.Stats(); st.Items != 6 || st.Flushes[sched.ReasonFull] != 1 || st.Flushes[sched.ReasonIdle] != 1 {
		t.Fatalf("expected all 6 items classified, one full cut and one idle rescue cut: %+v", st)
	}
}

// TestAsyncPartialGroupCutLiveness is the lost-wakeup regression: with a
// scheduler batch (4) that does not divide the per-device group size (3),
// "full" flushes routinely cut mid-interleave — e.g. A0,B0,A1,B1 with
// A2,B2 left queued — delivering callbacks that drain no task. Under the
// old wake protocol (broadcast only when a group's count drained) every
// executor could probe NotifyIdle while that flush was still in flight,
// find nothing to cut, and sleep with no wakeup ever coming: the leftover
// entries sat below the batch size, the scheduler clock was frozen, and
// run() hung forever. The scheduled run must terminate, and every
// device's audit must match the unscheduled run.
func TestAsyncPartialGroupCutLiveness(t *testing.T) {
	for seed := uint64(0); seed < 24; seed++ {
		// An all-secure-filter population whose admissions exhaust
		// immediately, so the executors race to interleave their groups'
		// single-item submissions and then have nothing left but the
		// NotifyIdle probe; only the executor running a flush holds one
		// in flight for the other to sleep behind, and the effectively
		// infinite deadline means only an idle cut can ever rescue
		// stranded leftovers.
		cfg := Config{
			Devices:          4,
			DoorbellFraction: -1,                                // speakers only
			Mix:              MixSpec{core.ModeSecureFilter: 1}, // every device secure-filter
			Shards:           1,
			Utterances:       3, // one parked group of 3 per device
			Frames:           1,
			Batch:            3,
			DeviceWorkers:    2,
			Seed:             7000 + seed,
		}
		plain, err := Run(cfg)
		if err != nil {
			t.Fatalf("seed %d unscheduled: %v", cfg.Seed, err)
		}
		acfg := cfg
		acfg.Sched = &SchedSpec{Batch: 4, MaxAge: 1 << 40}
		type outcome struct {
			res *Result
			err error
		}
		ch := make(chan outcome, 1)
		go func() {
			res, err := Run(acfg)
			ch <- outcome{res, err}
		}()
		var async *Result
		select {
		case o := <-ch:
			if o.err != nil {
				t.Fatalf("seed %d scheduled: %v", cfg.Seed, o.err)
			}
			async = o.res
		case <-time.After(60 * time.Second):
			t.Fatalf("seed %d: scheduled run deadlocked — executors slept through a partial-group flush completion", cfg.Seed)
		}
		if async.LostFrames() != 0 {
			t.Fatalf("seed %d: scheduled run lost %d frames", cfg.Seed, async.LostFrames())
		}
		if len(async.DeviceResults) != len(plain.DeviceResults) {
			t.Fatalf("seed %d: population diverged: %d vs %d devices",
				cfg.Seed, len(async.DeviceResults), len(plain.DeviceResults))
		}
		for i := range plain.DeviceResults {
			if got, want := fingerprint(async.DeviceResults[i]), fingerprint(plain.DeviceResults[i]); got != want {
				t.Fatalf("seed %d device %d diverged:\n sched: %s\n plain: %s", cfg.Seed, i, got, want)
			}
		}
	}
}

// TestRolloutComposesWithSched runs a staged rollout on the shared
// scheduler with churn on a single executor — the composition a blocking
// wait for the canary verdict used to deadlock, since the non-canaries
// waiting for the verdict held the executors the canaries needed. The
// stable cohort now parks on the verdict, so the run must finish,
// converge with zero lost frames, and match an unscheduled run on eight
// executors device for device: the cohorts are fixed by admission order,
// so the two packs (trained from different seeds) split the fleet the
// same way whatever the pool size or interleaving.
func TestRolloutComposesWithSched(t *testing.T) {
	cfg := Config{
		Devices:          24,
		DoorbellFraction: -1,
		Mix:              MixSpec{core.ModeSecureFilter: 2, core.ModeBaseline: 1},
		Shards:           3,
		Utterances:       3,
		Seed:             11,
		DeviceWorkers:    8,
		Rollout:          &RolloutSpec{CanaryFraction: 0.25},
		Churn:            &ChurnSpec{JoinFraction: 0.25, LeaveFraction: 0.25},
	}
	plain, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.DeviceWorkers = 1
	cfg.Sched = &SchedSpec{Batch: 4, MaxAge: 200_000}
	type outcome struct {
		res *Result
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		res, err := Run(cfg)
		ch <- outcome{res, err}
	}()
	var o outcome
	select {
	case o = <-ch:
	case <-time.After(120 * time.Second):
		t.Fatal("rollout + scheduler on one executor deadlocked")
	}
	if o.err != nil {
		t.Fatal(o.err)
	}
	res := o.res
	if res.Rollout == nil || !res.Rollout.Converged || res.Rollout.MinVersion != res.Rollout.ToVersion {
		t.Fatalf("rollout did not converge: %+v", res.Rollout)
	}
	if res.LostFrames() != 0 {
		t.Fatalf("lost %d frames", res.LostFrames())
	}
	// Every scheduled speaker parks once per classify group; the rest of
	// the parks are the stable cohort waiting for the canary verdict.
	groups := uint64(0)
	for _, r := range res.DeviceResults {
		if r.Spec.Mode == core.ModeSecureFilter {
			groups += uint64((len(r.Session.Utterances) + res.EffectiveBatch - 1) / res.EffectiveBatch)
		}
	}
	if res.Async.Executors != 1 || res.Async.Parks <= groups {
		t.Fatalf("engine report %+v with %d classify groups: want one executor and rollout parks", res.Async, groups)
	}
	// Both cohorts classified, each on its own queue.
	if by := res.Sched.ItemsByVersion; by[res.Rollout.BaseVersion] == 0 || by[res.Rollout.ToVersion] == 0 {
		t.Fatalf("a per-version queue saw no traffic: %v", by)
	}
	// Peak live pipelines are bounded by the plan, not the population:
	// the executors' devices plus the stable cohort parked on the
	// verdict. Under the scheduler, add the devices parked on a classify
	// group. The peak is taken when a device is admitted, and the lone
	// executor admits only from nextTask with no ready task. A flush is
	// in flight only on an executor, inside its step or its NotifyIdle
	// probe, so at that moment none is: every parked device still has an
	// entry queued. Each submission is one item and a queue holding a
	// batch is cut at once, so each version queue (base and target)
	// holds at most Batch-1 entries, one device each.
	stable := min(res.Rollout.Canary, maxStableCohort)
	if bound := plain.Async.Executors + stable; plain.Async.PeakLive > bound {
		t.Fatalf("unscheduled peak live %d, want <= %d executors + stable cohort", plain.Async.PeakLive, bound)
	}
	if bound := res.Async.Executors + stable + 2*(cfg.Sched.Batch-1); res.Async.PeakLive > bound {
		t.Fatalf("scheduled peak live %d, want <= %d", res.Async.PeakLive, bound)
	}
	a, b := res.Audit, plain.Audit
	if a.Events != b.Events || a.TokensSeen != b.TokensSeen || a.SensitiveTokens != b.SensitiveTokens || a.AudioBytes != b.AudioBytes {
		t.Fatalf("audit %d/%d/%d/%d events/tokens/sensitive/audio, unscheduled run %d/%d/%d/%d",
			a.Events, a.TokensSeen, a.SensitiveTokens, a.AudioBytes, b.Events, b.TokensSeen, b.SensitiveTokens, b.AudioBytes)
	}
	for i := range plain.DeviceResults {
		if got, want := fingerprint(res.DeviceResults[i]), fingerprint(plain.DeviceResults[i]); got != want {
			t.Fatalf("device %d diverged:\n sched: %s\n plain: %s", i, got, want)
		}
	}
}

// TestSchedReportSteadyOccupancy is the fleet-side regression for the
// occupancy bugfix: SchedReport.MeanOccupancy averages over every flush
// including end-of-run drain flushes of size 0–1, which understates
// steady-state coalescing; MeanOccupancySteady excludes the drain tail.
// One full flush of 4 plus a drain flush of 1 must report raw 2.5 and
// steady 4.0 — and the raw figure alone would undersell the scheduler.
func TestSchedReportSteadyOccupancy(t *testing.T) {
	spec := &SchedSpec{Batch: 4, MaxAge: 1 << 40}
	router := testRouter(t)
	sc, err := newSchedControl(Config{Seed: 5, Sched: spec}, nil, router)
	if err != nil {
		t.Fatal(err)
	}
	fired := make(chan struct{}, 5)
	cb := func(r sched.Response, err error) {
		if err != nil {
			t.Error(err)
		}
		fired <- struct{}{}
	}
	for i := 0; i < 4; i++ {
		if err := sc.scheduler.SubmitAsync(sched.Request{
			DeviceID: "d", Version: 0, Items: [][]int{{1, 2, 3}},
		}, cb); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < 4; k++ {
		select {
		case <-fired:
		case <-time.After(5 * time.Second):
			t.Fatal("full flush callbacks missing")
		}
	}
	if err := sc.scheduler.SubmitAsync(sched.Request{
		DeviceID: "d", Version: 0, Items: [][]int{{4, 5}},
	}, cb); err != nil {
		t.Fatal(err)
	}
	sc.scheduler.Drain()
	rep := sc.report(spec)
	if rep.Batches != 2 || rep.Items != 5 {
		t.Fatalf("report: %+v, want 2 batches / 5 items", rep)
	}
	if rep.DrainBatches != 1 || rep.DrainItems != 1 {
		t.Fatalf("drain tally %d/%d, want 1 batch / 1 item", rep.DrainBatches, rep.DrainItems)
	}
	if rep.MeanOccupancy != 2.5 {
		t.Fatalf("raw mean occupancy %v, want 2.5 (drain tail included)", rep.MeanOccupancy)
	}
	if rep.MeanOccupancySteady != 4 {
		t.Fatalf("steady occupancy %v, want 4 (drain tail excluded)", rep.MeanOccupancySteady)
	}

	// All-drain degenerate run: the steady figure falls back to the raw
	// mean instead of dividing by zero.
	sc2, err := newSchedControl(Config{Seed: 5, Sched: spec}, nil, router)
	if err != nil {
		t.Fatal(err)
	}
	if err := sc2.scheduler.SubmitAsync(sched.Request{
		DeviceID: "d", Version: 0, Items: [][]int{{1}},
	}, cb); err != nil {
		t.Fatal(err)
	}
	sc2.scheduler.Drain()
	rep2 := sc2.report(spec)
	if rep2.MeanOccupancySteady != rep2.MeanOccupancy || rep2.MeanOccupancy != 1 {
		t.Fatalf("all-drain fallback broken: raw %v steady %v, want 1/1",
			rep2.MeanOccupancy, rep2.MeanOccupancySteady)
	}
}
