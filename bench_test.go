package repro

// Benchmarks regenerate every table and figure of the evaluation
// (docs/ARCHITECTURE.md, "Experiments"). Each benchmark wraps the
// corresponding experiment in internal/experiments and reports the
// *virtual* metric the table/figure plots via b.ReportMetric — wall-clock
// ns/op measures the simulator, the virtual cycles measure the modelled
// platform.
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

// BenchmarkE1WorldSwitchSweep ablates the SMC cost parameter
// (tz.CostModel.WorldSwitch).
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
			Mode: mode, Seed: experiments.DefaultSeed,
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

// --- E10 (Fig-E): fleet overhead probes -------------------------------------

// BenchmarkFleetOverhead prices the control-plane and observability
// features that no bench/ workload runs. Every leg is the same 64-device,
// 8-shard fleet; the plain leg is the reference, and each other leg's
// items/s against it is that feature's wall cost:
//
//   - attested: attested handshakes and a staged 10%-canary model
//     rollout, which must converge (per-device one-offs, not per-item
//     costs);
//   - traced: frame telemetry at 1-in-1 sampling, every span exported;
//   - churn=N%: joins and leaves at N% with a mid-run shard drain and a
//     weighted shard addition under the shed policy, which must actually
//     churn.
//
// Every leg fails if it loses a frame. Fleet throughput itself is
// measured by bench/ (bash bench/run.sh), not here.
func BenchmarkFleetOverhead(b *testing.B) {
	churn := func(rate float64) func(*fleet.Config) {
		return func(cfg *fleet.Config) {
			cfg.Attest = true
			cfg.Policy = "shed"
			cfg.Churn = &fleet.ChurnSpec{JoinFraction: rate, LeaveFraction: rate}
			cfg.Rebalance = &fleet.RebalanceSpec{AtFraction: 0.5, DrainShard: 0, AddShards: 1, AddWeight: 2}
		}
	}
	churned := func(res *fleet.Result) error {
		if res.Joined == 0 || res.Left == 0 {
			return fmt.Errorf("churn inactive: joined %d left %d", res.Joined, res.Left)
		}
		return nil
	}
	legs := []struct {
		name  string
		set   func(*fleet.Config)
		check func(*fleet.Result) error
	}{
		{name: "plain"},
		{
			name: "attested",
			set:  func(cfg *fleet.Config) { cfg.Rollout = &fleet.RolloutSpec{CanaryFraction: 0.1} },
			check: func(res *fleet.Result) error {
				if res.Rollout == nil || !res.Rollout.Converged {
					return fmt.Errorf("rollout did not converge: %v", res.ModelVersions)
				}
				return nil
			},
		},
		{
			name: "traced",
			set:  func(cfg *fleet.Config) { cfg.Trace = &fleet.TraceSpec{SampleEvery: 1} },
			check: func(res *fleet.Result) error {
				if res.Telemetry == nil || res.Telemetry.SpanCount() == 0 {
					return fmt.Errorf("traced run exported no spans")
				}
				return nil
			},
		},
		{name: "churn=10%", set: churn(0.1), check: churned},
		{name: "churn=30%", set: churn(0.3), check: churned},
	}
	for _, leg := range legs {
		b.Run(leg.name, func(b *testing.B) {
			var last *fleet.Result
			for i := 0; i < b.N; i++ {
				cfg := fleet.Config{
					Devices:    64,
					Shards:     8,
					Utterances: 2,
					Frames:     2,
					Seed:       experiments.DefaultSeed,
				}
				if leg.set != nil {
					leg.set(&cfg)
				}
				res, err := fleet.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if res.LostFrames() != 0 {
					b.Fatalf("lost %d frames", res.LostFrames())
				}
				if leg.check != nil {
					if err := leg.check(res); err != nil {
						b.Fatal(err)
					}
				}
				last = res
			}
			b.ReportMetric(last.Throughput(), "items/s")
			b.ReportMetric(last.Latency.Percentile(99)/1e3, "virtual-us-p99/item")
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
