package repro

// Benchmarks regenerate every table and figure of the evaluation (DESIGN.md
// §5, EXPERIMENTS.md). Each benchmark wraps the corresponding experiment in
// internal/experiments and reports the *virtual* metric the table/figure
// plots via b.ReportMetric — wall-clock ns/op measures the simulator, the
// virtual cycles measure the modelled platform.
//
// Run all of them with:
//
//	go test -bench=. -benchmem
//
// or one experiment with e.g. -bench=BenchmarkE5Leakage.

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/ml/classify"
	"repro/internal/sensitive"
	"repro/internal/tz"
)

// --- E1 (Table-1): world-boundary crossing costs ---------------------------

func BenchmarkE1WorldSwitch(b *testing.B) {
	var last experiments.E1Result
	for i := 0; i < b.N; i++ {
		_, res, err := experiments.E1WorldSwitch(200, tz.DefaultCostModel())
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.SMCCycles, "smc-cycles/call")
	b.ReportMetric(last.SyscallCycles, "syscall-cycles/call")
	b.ReportMetric(last.SMCOverSyscall, "smc/syscall-ratio")
}

// BenchmarkE1WorldSwitchSweep ablates the SMC cost parameter (DESIGN.md §7).
func BenchmarkE1WorldSwitchSweep(b *testing.B) {
	for _, switchCycles := range []tz.Cycles{3000, 12000, 48000} {
		b.Run(tz.Cycles(switchCycles).Duration(experiments.FreqHz).String(), func(b *testing.B) {
			cost := tz.DefaultCostModel()
			cost.WorldSwitch = switchCycles
			var last experiments.E1Result
			for i := 0; i < b.N; i++ {
				_, res, err := experiments.E1WorldSwitch(100, cost)
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(last.SMCOverSyscall, "smc/syscall-ratio")
		})
	}
}

// --- E2 (Fig-A): capture cost vs chunk size --------------------------------

func BenchmarkE2CaptureSweep(b *testing.B) {
	var points []experiments.E2Point
	for i := 0; i < b.N; i++ {
		_, p, err := experiments.E2CaptureSweep()
		if err != nil {
			b.Fatal(err)
		}
		points = p
	}
	if len(points) > 0 {
		b.ReportMetric(points[0].OverheadFactor, "overhead-at-256B")
		b.ReportMetric(points[len(points)-1].OverheadFactor, "overhead-at-16KiB")
	}
}

// --- E3 (Table-2): classifier comparison ------------------------------------

func benchClassifier(b *testing.B, arch classify.Arch) {
	b.Helper()
	vocab := sensitive.NewVocabulary()
	clf, err := core.TrainClassifier(arch, vocab, experiments.DefaultSeed, 8)
	if err != nil {
		b.Fatal(err)
	}
	feats := clf.TokensToFeatures(vocab.Encode([]string{"my", "password", "is", "tango", "seven"}))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := clf.Predict(feats); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(clf.ParamCount()), "params")
	b.ReportMetric(float64(clf.EstimateMACs())/4, "tee-cycles/inference")
}

func BenchmarkE3ClassifierCNN(b *testing.B)         { benchClassifier(b, classify.ArchCNN) }
func BenchmarkE3ClassifierTransformer(b *testing.B) { benchClassifier(b, classify.ArchTransformer) }
func BenchmarkE3ClassifierHybrid(b *testing.B)      { benchClassifier(b, classify.ArchHybrid) }

// BenchmarkE3bNoiseRobustness regenerates the noisy-ASR recall figure.
func BenchmarkE3bNoiseRobustness(b *testing.B) {
	var points []experiments.E3bPoint
	for i := 0; i < b.N; i++ {
		_, p, err := experiments.E3bNoiseRobustness(experiments.DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
		points = p
	}
	if len(points) == 15 {
		b.ReportMetric(points[0].Recall, "clean-recall")
		b.ReportMetric(points[12].Recall, "noisy-recall")
	}
}

// --- E4 (Fig-B): pipeline latency decomposition ------------------------------

func benchPipeline(b *testing.B, mode core.Mode) {
	b.Helper()
	utts, err := experiments.Workload(4, experiments.DefaultSeed)
	if err != nil {
		b.Fatal(err)
	}
	var mean float64
	for i := 0; i < b.N; i++ {
		sys, err := core.NewSystem(core.Config{
			Mode: mode, Seed: experiments.DefaultSeed, FreqHz: experiments.FreqHz,
		})
		if err != nil {
			b.Fatal(err)
		}
		res, err := sys.RunSession(utts)
		if err != nil {
			b.Fatal(err)
		}
		mean = res.Latency.Mean()
	}
	b.ReportMetric(mean, "cycles/utterance")
	b.ReportMetric(mean/(experiments.FreqHz/1e3), "virtual-ms/utterance")
}

func BenchmarkE4PipelineBaseline(b *testing.B)       { benchPipeline(b, core.ModeBaseline) }
func BenchmarkE4PipelineSecureNoFilter(b *testing.B) { benchPipeline(b, core.ModeSecureNoFilter) }
func BenchmarkE4PipelineSecureFilter(b *testing.B)   { benchPipeline(b, core.ModeSecureFilter) }

// --- E5 (Table-3): privacy leakage -------------------------------------------

func BenchmarkE5Leakage(b *testing.B) {
	var rows []experiments.E5Row
	for i := 0; i < b.N; i++ {
		_, r, err := experiments.E5Leakage(experiments.DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
		rows = r
	}
	if len(rows) == 4 {
		b.ReportMetric(float64(rows[0].CloudSensTokens), "baseline-leaked-tokens")
		b.ReportMetric(float64(rows[2].CloudSensTokens), "filtered-leaked-tokens")
	}
}

// --- E6 (Table-4): TCB minimization -------------------------------------------

func BenchmarkE6TCB(b *testing.B) {
	var res experiments.E6Result
	for i := 0; i < b.N; i++ {
		_, _, r, err := experiments.E6TCB()
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	b.ReportMetric(res.ExactRed.LoCCutPct, "exact-loc-cut-%")
	b.ReportMetric(res.ClosureRed.LoCCutPct, "closure-loc-cut-%")
}

// --- E7 (Fig-C): energy ---------------------------------------------------------

func BenchmarkE7Energy(b *testing.B) {
	var rows []experiments.E7Row
	for i := 0; i < b.N; i++ {
		_, r, err := experiments.E7Energy(experiments.DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
		rows = r
	}
	if len(rows) == 3 {
		b.ReportMetric(rows[2].OverheadPct, "compute-overhead-%")
		b.ReportMetric(rows[2].TotalMJ, "secure-total-mJ")
	}
}

// --- E8 (Table-5): OS snooping ----------------------------------------------------

func BenchmarkE8Snoop(b *testing.B) {
	var rows []experiments.E8Row
	for i := 0; i < b.N; i++ {
		_, r, err := experiments.E8Snoop(experiments.DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
		rows = r
	}
	if len(rows) == 3 {
		b.ReportMetric(rows[0].SuccessRatePct, "baseline-snoop-success-%")
		b.ReportMetric(rows[2].SuccessRatePct, "secure-snoop-success-%")
	}
}

// --- E9 (Fig-D): scalability --------------------------------------------------------

func BenchmarkE9Scale(b *testing.B) {
	var points []experiments.E9Point
	for i := 0; i < b.N; i++ {
		_, p, err := experiments.E9Scale(experiments.DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
		points = p
	}
	if len(points) == 4 {
		b.ReportMetric(points[3].BaselineKBPerSec, "baseline-KiB/s-at-8dev")
		b.ReportMetric(points[3].SecureKBPerSec, "secure-KiB/s-at-8dev")
	}
}

// --- E10 (Fig-E): fleet throughput -----------------------------------------------

// BenchmarkFleetThroughput sweeps a devices × shards grid. The reported
// wall-clock items/s is the simulator's fleet throughput (the perf
// trajectory BENCH_fleet.json snapshots); virtual p99 tracks the modelled
// per-item latency under TA batching.
func BenchmarkFleetThroughput(b *testing.B) {
	for _, devices := range []int{16, 64} {
		for _, shards := range []int{2, 8} {
			b.Run(fmt.Sprintf("devices=%d/shards=%d", devices, shards), func(b *testing.B) {
				var last *fleet.Result
				for i := 0; i < b.N; i++ {
					res, err := fleet.Run(fleet.Config{
						Devices:    devices,
						Shards:     shards,
						Utterances: 2,
						Frames:     2,
						Seed:       experiments.DefaultSeed,
					})
					if err != nil {
						b.Fatal(err)
					}
					if res.LostFrames() != 0 {
						b.Fatalf("lost %d frames", res.LostFrames())
					}
					last = res
				}
				b.ReportMetric(last.Throughput(), "items/s")
				b.ReportMetric(last.Latency.Percentile(99)/1e3, "virtual-us-p99/item")
			})
		}
	}
}

// BenchmarkFleetThroughputAttested is the control-plane overhead probe:
// the same fleet as BenchmarkFleetThroughput's 64/8 point, but with the
// attested handshake and a staged 10%-canary model rollout live. The
// items/s it reports must stay within ~10% of the unattested figure —
// attestation and rollout are per-device one-offs, not per-item costs.
func BenchmarkFleetThroughputAttested(b *testing.B) {
	var last *fleet.Result
	for i := 0; i < b.N; i++ {
		res, err := fleet.Run(fleet.Config{
			Devices:    64,
			Shards:     8,
			Utterances: 2,
			Frames:     2,
			Seed:       experiments.DefaultSeed,
			Rollout:    &fleet.RolloutSpec{CanaryFraction: 0.1},
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.LostFrames() != 0 {
			b.Fatalf("lost %d frames", res.LostFrames())
		}
		if res.Rollout == nil || !res.Rollout.Converged {
			b.Fatalf("rollout did not converge: %v", res.ModelVersions)
		}
		last = res
	}
	b.ReportMetric(last.Throughput(), "items/s")
	b.ReportMetric(last.Latency.Percentile(99)/1e3, "virtual-us-p99/item")
}

// BenchmarkFleetThroughputTraced is the observability overhead probe:
// the same fleet as BenchmarkFleetThroughput's 64/8 point with frame
// telemetry at 1-in-1 sampling — every device traced, every span
// exported. The items/s it reports must stay within ~3% of the untraced
// figure (docs/PERFORMANCE.md); the benchgate regression family
// deliberately excludes it so tracing cost is visible but never gated.
func BenchmarkFleetThroughputTraced(b *testing.B) {
	var last *fleet.Result
	for i := 0; i < b.N; i++ {
		res, err := fleet.Run(fleet.Config{
			Devices:    64,
			Shards:     8,
			Utterances: 2,
			Frames:     2,
			Seed:       experiments.DefaultSeed,
			Trace:      &fleet.TraceSpec{SampleEvery: 1},
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.LostFrames() != 0 {
			b.Fatalf("lost %d frames", res.LostFrames())
		}
		if res.Telemetry == nil || res.Telemetry.SpanCount() == 0 {
			b.Fatal("traced run exported no spans")
		}
		last = res
	}
	b.ReportMetric(last.Throughput(), "items/s")
	b.ReportMetric(float64(last.Telemetry.SpanCount()), "spans")
	b.ReportMetric(last.Latency.Percentile(99)/1e3, "virtual-us-p99/item")
}

// BenchmarkFleetChurn measures elasticity overhead: the same 64-device
// attested fleet at 0%, 10% and 30% churn (joins + leaves at the same
// rate) with a mid-run shard drain and a weighted shard addition. The
// items/s deltas against churn=0% are the cost of elastic membership;
// the run fails if any frame is lost to the rebalance or a priority
// frame is shed.
func BenchmarkFleetChurn(b *testing.B) {
	for _, churn := range []float64{0, 0.1, 0.3} {
		b.Run(fmt.Sprintf("churn=%d%%", int(churn*100)), func(b *testing.B) {
			var last *fleet.Result
			for i := 0; i < b.N; i++ {
				cfg := fleet.Config{
					Devices:    64,
					Shards:     4,
					Utterances: 2,
					Frames:     2,
					Seed:       experiments.DefaultSeed,
					Attest:     true,
					Policy:     "shed",
				}
				if churn > 0 {
					cfg.Churn = &fleet.ChurnSpec{JoinFraction: churn, LeaveFraction: churn}
					cfg.Rebalance = &fleet.RebalanceSpec{
						AtFraction: 0.5, DrainShard: 0, AddShards: 1, AddWeight: 2,
					}
				}
				res, err := fleet.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if res.LostFrames() != 0 {
					b.Fatalf("lost %d frames", res.LostFrames())
				}
				if churn > 0 && (res.Joined == 0 || res.Left == 0) {
					b.Fatalf("churn inactive: joined %d left %d", res.Joined, res.Left)
				}
				last = res
			}
			b.ReportMetric(last.Throughput(), "items/s")
			b.ReportMetric(float64(last.RebalancedFrames()), "rebalanced-frames")
			b.ReportMetric(float64(last.PriorityFrames()), "priority-frames")
		})
	}
}

// BenchmarkFleetScheduled is the shared-scheduler throughput probe: the
// CLI-default 1000-device/8-shard fleet with and without the
// cross-device TEE batch scheduler, same seed, so the two sub-benchmarks'
// items/s ratio is the scheduler's end-to-end delta at fleet scale
// (docs/PERFORMANCE.md records the trajectory — on a single-CPU host the
// legs sit at parity within run noise; the coalescing win needs
// concurrent producers). The scheduled leg
// asserts the invariants that make the numbers legitimate — nothing lost,
// no flush mixing model versions; bit-identical audits are pinned by
// TestSchedBatchEquivalenceProperty and the CI sched smoke.
func BenchmarkFleetScheduled(b *testing.B) {
	for _, scheduled := range []bool{false, true} {
		name := "sched=off"
		if scheduled {
			name = "sched=on"
		}
		b.Run(name, func(b *testing.B) {
			var last *fleet.Result
			for i := 0; i < b.N; i++ {
				cfg := fleet.Config{
					Devices:    1000,
					Shards:     8,
					Utterances: 4,
					Frames:     6,
					Seed:       1,
				}
				if scheduled {
					cfg.Sched = &fleet.SchedSpec{}
				}
				res, err := fleet.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if res.LostFrames() != 0 {
					b.Fatalf("lost %d frames", res.LostFrames())
				}
				if scheduled {
					if res.Sched == nil || res.Sched.Items == 0 {
						b.Fatal("scheduler classified nothing")
					}
					if res.Sched.MixedVersionFlushes != 0 {
						b.Fatalf("%d flushes mixed model versions", res.Sched.MixedVersionFlushes)
					}
				}
				last = res
			}
			b.ReportMetric(last.Throughput(), "items/s")
			b.ReportMetric(last.Latency.Percentile(99)/1e3, "virtual-us-p99/item")
			if scheduled {
				b.ReportMetric(last.Sched.MeanOccupancy, "items/flush")
			}
		})
	}
}

// BenchmarkFleetAsync is the event-driven engine's scale probe: 10⁴ and
// 10⁵ devices through the parking pipeline with the shared scheduler, one
// utterance per speaker so every classified item reaches the scheduler as
// a true single-item enqueue and all occupancy is cross-device. The
// honest memory story is peak-live-pipelines (the most device pipelines
// ever constructed at once) and allocs/op: the population costs a task
// table, not a goroutine and pipeline per device. The 10⁵ leg is skipped
// under -short; run it explicitly for the scaling table in
// docs/PERFORMANCE.md.
func BenchmarkFleetAsync(b *testing.B) {
	for _, devices := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("devices=%d", devices), func(b *testing.B) {
			if devices == 100_000 && testing.Short() {
				b.Skip("100k-device leg (run without -short for the scaling table)")
			}
			b.ReportAllocs()
			var last *fleet.Result
			for i := 0; i < b.N; i++ {
				res, err := fleet.Run(fleet.Config{
					Devices:    devices,
					Shards:     8,
					Utterances: 1,
					Frames:     1,
					Seed:       1,
					Sched:      &fleet.SchedSpec{},
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.LostFrames() != 0 {
					b.Fatalf("lost %d frames", res.LostFrames())
				}
				if res.Async.PeakLive == 0 {
					b.Fatal("engine reported no live pipelines")
				}
				if res.Async.PeakLive > devices/10 {
					b.Fatalf("peak live pipelines %d at %d devices — goroutine-per-device economics",
						res.Async.PeakLive, devices)
				}
				last = res
			}
			b.ReportMetric(last.Throughput(), "items/s")
			b.ReportMetric(float64(last.Async.PeakLive), "peak-live-pipelines")
			b.ReportMetric(last.Sched.MeanOccupancySteady, "items/flush")
		})
	}
}

// BenchmarkFleetHybridHE prices the hybrid HE+TEE split at fleet scale:
// the 64-device fleet with every registered mode weighted equally, so a
// quarter of the speaker cycle (and the doorbell cycle's third slot)
// runs its first classifier layer homomorphically at the provider. The
// wall-clock items/s joins the benchgate regression families; the run
// fails if the handoff loses a frame.
func BenchmarkFleetHybridHE(b *testing.B) {
	mix := fleet.MixSpec{}
	for _, m := range core.Modes() {
		mix[m] = 1
	}
	b.Run("mix=all-modes", func(b *testing.B) {
		var last *fleet.Result
		for i := 0; i < b.N; i++ {
			res, err := fleet.Run(fleet.Config{
				Devices:    64,
				Shards:     8,
				Utterances: 2,
				Frames:     2,
				Seed:       experiments.DefaultSeed,
				Mix:        mix,
			})
			if err != nil {
				b.Fatal(err)
			}
			if res.LostFrames() != 0 {
				b.Fatalf("lost %d frames", res.LostFrames())
			}
			if g := res.Groups[fleet.GroupKey{Kind: core.DeviceSpeaker, Mode: core.ModeHybridHE}]; g == nil || g.Devices == 0 {
				b.Fatal("no hybrid-he speakers in the mixed fleet")
			}
			last = res
		}
		b.ReportMetric(last.Throughput(), "items/s")
		b.ReportMetric(last.Latency.Percentile(99)/1e3, "virtual-us-p99/item")
	})
}

// BenchmarkE12ElasticFleet wraps the full elastic-churn experiment
// (static-vs-churned invariant check included).
func BenchmarkE12ElasticFleet(b *testing.B) {
	var last experiments.E12Result
	for i := 0; i < b.N; i++ {
		_, res, err := experiments.E12ElasticFleet(experiments.DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.ItemsPerSec, "items/s")
	b.ReportMetric(float64(last.Compared), "devices-verified-identical")
}

// BenchmarkE13AttestationLifecycle wraps the attestation-lifecycle
// experiment (static-vs-rotated invariant, revocation probes, per-tenant
// federation) so the lifecycle control plane's overhead stays visible in
// the perf harness.
func BenchmarkE13AttestationLifecycle(b *testing.B) {
	var last experiments.E13Result
	for i := 0; i < b.N; i++ {
		_, res, err := experiments.E13AttestationLifecycle(experiments.DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.ItemsPerSec, "items/s")
	b.ReportMetric(float64(last.Rotated), "devices-rotated")
	b.ReportMetric(float64(last.ProbeRejected), "revocation-probes-rejected")
}

// --- substrate micro-benchmarks (wall-clock health of the simulator) ------------

func BenchmarkSubstrateSMC(b *testing.B) {
	mon := tz.NewMonitor(tz.NewClock(), tz.DefaultCostModel())
	mon.Register(1, func(args [4]uint64) ([4]uint64, error) { return args, nil })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mon.SMC(1, [4]uint64{1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSubstrateTCBMinimize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := MinimizeTCB(); err != nil {
			b.Fatal(err)
		}
	}
}
