package experiments

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/tz"
)

func TestE1ShapesHold(t *testing.T) {
	tbl, res, err := E1WorldSwitch(200, tz.DefaultCostModel())
	if err != nil {
		t.Fatalf("E1: %v", err)
	}
	// The SMC round trip must dwarf a syscall (tens of microseconds vs
	// sub-microsecond), the paper's core overhead claim.
	if res.SMCOverSyscall < 5 {
		t.Errorf("SMC/syscall ratio = %v, want >= 5", res.SMCOverSyscall)
	}
	// TEEC invoke includes the SMC, so it costs at least as much.
	if res.TAInvokeCycles < res.SMCCycles {
		t.Errorf("TA invoke %v below raw SMC %v", res.TAInvokeCycles, res.SMCCycles)
	}
	// The TA->PTA call stays inside the secure world: far cheaper than an
	// SMC, comparable to a syscall.
	if res.PTAInvokeCycles >= res.SMCCycles/2 {
		t.Errorf("PTA call %v not well below SMC %v", res.PTAInvokeCycles, res.SMCCycles)
	}
	// The RPC pays two extra switches: costlier than the plain invoke.
	if res.RPCCycles <= 0 {
		t.Errorf("RPC delta = %v, want positive", res.RPCCycles)
	}
	if !strings.Contains(tbl.String(), "null SMC round trip") {
		t.Error("table missing SMC row")
	}
}

func TestE2ShapesHold(t *testing.T) {
	fig, points, err := E2CaptureSweep()
	if err != nil {
		t.Fatalf("E2: %v", err)
	}
	if len(points) < 5 {
		t.Fatalf("only %d points", len(points))
	}
	// Secure always costs more than normal at equal chunk size.
	for _, p := range points {
		if p.SecureCycles <= p.NormalCycles {
			t.Errorf("chunk %d: secure %v not above normal %v", p.ChunkBytes, p.SecureCycles, p.NormalCycles)
		}
	}
	// The overhead factor shrinks as chunks grow (amortization).
	first, last := points[0], points[len(points)-1]
	if last.OverheadFactor >= first.OverheadFactor {
		t.Errorf("overhead factor did not shrink: %v at %dB vs %v at %dB",
			first.OverheadFactor, first.ChunkBytes, last.OverheadFactor, last.ChunkBytes)
	}
	// Small chunks should show a large (multi-x) penalty.
	if first.OverheadFactor < 2 {
		t.Errorf("256B overhead factor = %v, want >= 2", first.OverheadFactor)
	}
	if !strings.Contains(fig.String(), "Fig-A") {
		t.Error("figure title missing")
	}
}

func TestE3ShapesHold(t *testing.T) {
	tbl, rows, err := E3Classifiers(DefaultSeed)
	if err != nil {
		t.Fatalf("E3: %v", err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Accuracy < 0.85 {
			t.Errorf("%v accuracy = %v, want >= 0.85", r.Arch, r.Accuracy)
		}
		if !r.FitsTEE {
			t.Errorf("%v does not fit the TEE model budget", r.Arch)
		}
		if r.Params <= 0 || r.InferenceCycles <= 0 {
			t.Errorf("%v degenerate accounting: %+v", r.Arch, r)
		}
	}
	// Hybrid is the largest model (CNN extractor + attention head).
	if rows[2].Params <= rows[0].Params {
		t.Errorf("hybrid (%d) not larger than cnn (%d)", rows[2].Params, rows[0].Params)
	}
	if !strings.Contains(tbl.String(), "transformer") {
		t.Error("table missing transformer row")
	}
}

func TestE3bShapesHold(t *testing.T) {
	fig, points, err := E3bNoiseRobustness(DefaultSeed)
	if err != nil {
		t.Fatalf("E3b: %v", err)
	}
	if len(points) != 15 { // 5 noise levels x 3 architectures
		t.Fatalf("%d points", len(points))
	}
	// Index: points are appended noise-major, arch-minor.
	atNoise := func(noise float64) []E3bPoint {
		var out []E3bPoint
		for _, p := range points {
			if p.Noise == noise {
				out = append(out, p)
			}
		}
		return out
	}
	clean := atNoise(0.005)
	noisy := atNoise(0.3)
	// Near-clean conditions: high ASR accuracy, high recall.
	for _, p := range clean {
		if p.ASRAccuracy < 0.8 {
			t.Errorf("clean ASR accuracy = %v", p.ASRAccuracy)
		}
		if p.Recall < 0.8 {
			t.Errorf("%v clean recall = %v, want >= 0.8", p.Arch, p.Recall)
		}
	}
	// Heavy noise: ASR accuracy erodes, dragging recall with it.
	if noisy[0].ASRAccuracy >= clean[0].ASRAccuracy {
		t.Errorf("ASR accuracy did not degrade: %v vs %v", noisy[0].ASRAccuracy, clean[0].ASRAccuracy)
	}
	for i := range noisy {
		if noisy[i].Recall > clean[i].Recall {
			t.Errorf("%v recall improved under noise: %v vs %v", noisy[i].Arch, noisy[i].Recall, clean[i].Recall)
		}
	}
	if !strings.Contains(fig.String(), "recall") {
		t.Error("figure missing recall series")
	}
}

func TestE4ShapesHold(t *testing.T) {
	_, rows, err := E4PipelineBreakdown(DefaultSeed)
	if err != nil {
		t.Fatalf("E4: %v", err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	base, nofilter, filter := rows[0], rows[1], rows[2]
	// Secure modes pay for on-device transcription.
	if nofilter.Total <= base.Total || filter.Total <= base.Total {
		t.Errorf("secure totals (%v, %v) not above baseline %v", nofilter.Total, filter.Total, base.Total)
	}
	// Only the filter mode spends classify cycles.
	if base.Classify != 0 || nofilter.Classify != 0 {
		t.Errorf("classify cycles in non-filter modes: %v, %v", base.Classify, nofilter.Classify)
	}
	if filter.Classify <= 0 {
		t.Error("filter mode spent no classify cycles")
	}
	// Transcription dominates the secure pipeline (small models, long audio).
	if filter.Transcribe < filter.Classify {
		t.Errorf("transcribe %v below classify %v", filter.Transcribe, filter.Classify)
	}
}

func TestE5ShapesHold(t *testing.T) {
	_, rows, err := E5Leakage(DefaultSeed)
	if err != nil {
		t.Fatalf("E5: %v", err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	base, nofilter, block, redact := rows[0], rows[1], rows[2], rows[3]
	// The baseline ships raw audio and the provider transcribes it.
	if base.CloudAudioBytes == 0 || base.CloudSensTokens == 0 {
		t.Errorf("baseline leak missing: %+v", base)
	}
	// Without filtering, transcripts still leak private tokens.
	if nofilter.CloudSensTokens == 0 {
		t.Errorf("no-filter leak missing: %+v", nofilter)
	}
	// Filtering collapses the leak.
	if block.CloudSensTokens >= nofilter.CloudSensTokens {
		t.Errorf("block policy leaked %d vs %d unfiltered", block.CloudSensTokens, nofilter.CloudSensTokens)
	}
	if redact.CloudSensTokens >= nofilter.CloudSensTokens {
		t.Errorf("redact policy leaked %d vs %d unfiltered", redact.CloudSensTokens, nofilter.CloudSensTokens)
	}
	// Only the baseline exposes bytes to the snooping OS.
	if base.SnoopRecovered == 0 {
		t.Error("baseline snoop recovered nothing")
	}
	if nofilter.SnoopRecovered != 0 || block.SnoopRecovered != 0 {
		t.Error("secure modes leaked bytes to the OS")
	}
	// The sealed relay never shows the supplicant plaintext.
	for _, r := range rows[1:] {
		if r.SupplicantLeaks != 0 {
			t.Errorf("%s: supplicant saw %d plaintext tokens", r.Label, r.SupplicantLeaks)
		}
	}
}

func TestE6ShapesHold(t *testing.T) {
	tbl, byModule, res, err := E6TCB()
	if err != nil {
		t.Fatalf("E6: %v", err)
	}
	// A clean capture never runs the xrun error path, so the trace-only
	// build must fail the static link check — the ablation's point.
	if res.ExactErr == nil {
		t.Error("exact build linked; expected missing error-path callee")
	} else if !strings.Contains(res.ExactErr.Error(), "xrun_recover") {
		t.Errorf("exact build failed for the wrong reason: %v", res.ExactErr)
	}
	if res.ClosureRed.LoCCutPct < 30 {
		t.Errorf("closure LoC cut = %v%%, want >= 30%%", res.ClosureRed.LoCCutPct)
	}
	// The closure image must contain the error path the trace missed.
	if !res.StaticClosure.Contains("xrun_recover") {
		t.Error("closure image missing xrun_recover")
	}
	if res.Directives == 0 {
		t.Error("no exclude directives generated")
	}
	if !strings.Contains(tbl.String(), "FAILS TO LINK") {
		t.Errorf("table missing link-failure row:\n%s", tbl)
	}
	if !strings.Contains(byModule.String(), "usb-audio") {
		t.Error("per-module table incomplete")
	}
}

func TestE7ShapesHold(t *testing.T) {
	_, rows, err := E7Energy(DefaultSeed)
	if err != nil {
		t.Fatalf("E7: %v", err)
	}
	base, nofilter, filter := rows[0], rows[1], rows[2]
	// The paper's prediction: secure modes burn more compute energy.
	if nofilter.ComputeMJ <= base.ComputeMJ || filter.ComputeMJ <= base.ComputeMJ {
		t.Errorf("secure compute energy (%v, %v) not above baseline %v",
			nofilter.ComputeMJ, filter.ComputeMJ, base.ComputeMJ)
	}
	// The counterweight: radio energy collapses without raw audio.
	if filter.RadioMJ >= base.RadioMJ {
		t.Errorf("filter radio %v not below baseline %v", filter.RadioMJ, base.RadioMJ)
	}
	if filter.OverheadPct <= 0 {
		t.Errorf("filter compute overhead = %v%%, want positive", filter.OverheadPct)
	}
}

func TestE8ShapesHold(t *testing.T) {
	_, rows, err := E8Snoop(DefaultSeed)
	if err != nil {
		t.Fatalf("E8: %v", err)
	}
	if rows[0].SuccessRatePct != 100 {
		t.Errorf("baseline snoop success = %v%%, want 100%%", rows[0].SuccessRatePct)
	}
	for _, r := range rows[1:] {
		if r.SuccessRatePct != 0 {
			t.Errorf("%v snoop success = %v%%, want 0%%", r.Mode, r.SuccessRatePct)
		}
		if r.Blocked != r.Attempts {
			t.Errorf("%v blocked %d/%d", r.Mode, r.Blocked, r.Attempts)
		}
	}
}

func TestE9ShapesHold(t *testing.T) {
	fig, points, err := E9Scale(DefaultSeed)
	if err != nil {
		t.Fatalf("E9: %v", err)
	}
	if len(points) != 4 {
		t.Fatalf("%d points", len(points))
	}
	for _, p := range points {
		// Baseline devices finish sessions in less virtual time, so
		// aggregate throughput stays above the secure stack's.
		if p.SecureKBPerSec >= p.BaselineKBPerSec {
			t.Errorf("k=%d: secure %v not below baseline %v",
				p.Devices, p.SecureKBPerSec, p.BaselineKBPerSec)
		}
	}
	// Independent devices: aggregate throughput grows with device count.
	if points[3].BaselineKBPerSec <= points[0].BaselineKBPerSec {
		t.Errorf("baseline aggregate did not scale: %v -> %v",
			points[0].BaselineKBPerSec, points[3].BaselineKBPerSec)
	}
	if points[3].SecureKBPerSec <= points[0].SecureKBPerSec {
		t.Errorf("secure aggregate did not scale: %v -> %v",
			points[0].SecureKBPerSec, points[3].SecureKBPerSec)
	}
	if !strings.Contains(fig.String(), "Fig-D") {
		t.Error("figure title missing")
	}
}

// TestE11ShapesHold asserts the attested-rollout claims: a staged
// rollout completes with zero unattested events ingested, the model
// version converges fleet-wide, and no frames are lost.
func TestE11ShapesHold(t *testing.T) {
	tbl, res, err := E11AttestedRollout(DefaultSeed)
	if err != nil {
		t.Fatalf("E11: %v", err)
	}
	if tbl == nil {
		t.Fatal("nil table")
	}
	if !res.Converged || res.ToVersion != 2 {
		t.Fatalf("rollout did not converge to v2: %+v", res)
	}
	if len(res.VersionCounts) != 1 || res.VersionCounts[2] == 0 {
		t.Fatalf("fleet versions not converged: %v", res.VersionCounts)
	}
	if res.LostFrames != 0 {
		t.Fatalf("lost %d frames", res.LostFrames)
	}
	if res.UnattestedIngested != 0 {
		t.Fatalf("%d unattested events ingested", res.UnattestedIngested)
	}
	if res.RogueAttempts == 0 || res.RogueRejected != res.RogueAttempts {
		t.Fatalf("rogues not fully rejected: %d/%d", res.RogueRejected, res.RogueAttempts)
	}
	if res.AttestedDevices == 0 || res.ItemsPerSec <= 0 {
		t.Fatalf("degenerate result: %+v", res)
	}
}

// TestE12ShapesHold asserts the elastic-fleet acceptance claims: 30%
// churn with a mid-run shard drain loses zero frames to rebalancing,
// never sheds a priority frame, keeps the non-churned sub-population's
// audit counters bit-identical to a static run, and still converges a
// staged rollout (raising the ingest floor) when joiners arrive mid-way.
func TestE12ShapesHold(t *testing.T) {
	tbl, res, err := E12ElasticFleet(DefaultSeed)
	if err != nil {
		t.Fatalf("E12: %v", err)
	}
	if tbl == nil {
		t.Fatal("nil table")
	}
	if res.Joined == 0 || res.Left == 0 {
		t.Fatalf("churn inactive: %+v", res)
	}
	if !res.AuditIdentical || res.Compared == 0 {
		t.Fatalf("non-churned sub-population diverged: %+v", res)
	}
	if res.LostFrames != 0 {
		t.Fatalf("lost %d frames to rebalancing", res.LostFrames)
	}
	if res.DrainedShard == "" || res.AddedShards == 0 {
		t.Fatalf("rebalance did not run: %+v", res)
	}
	if res.PriorityFrames == 0 {
		t.Fatal("no frames rode the priority lane")
	}
	if !res.RolloutConverged || res.MinVersion != 2 {
		t.Fatalf("elastic rollout leg failed: %+v", res)
	}
}

// TestE14ShapesHold asserts the frame-telemetry acceptance claims: at
// 1-in-1 sampling every client is traced, the per-verdict span tallies
// equal the audit counters bit-exactly (E14FrameTelemetry errors out on
// any divergence), the revocation drill leaves an anomaly with its
// flight-recorder dump, and the exported trace survives the strict
// metadata-only grammar round trip.
func TestE14ShapesHold(t *testing.T) {
	tbl, res, err := E14FrameTelemetry(DefaultSeed)
	if err != nil {
		t.Fatalf("E14: %v", err)
	}
	if tbl == nil {
		t.Fatal("nil table")
	}
	if res.Spans == 0 || res.Delivered == 0 {
		t.Fatalf("telemetry empty: %+v", res)
	}
	if res.Rejected == 0 {
		t.Fatal("lifecycle probes and rogues produced no rejection spans")
	}
	if res.Anomalies == 0 {
		t.Fatal("no anomaly recorded despite revocations")
	}
	if !res.RoundTrip {
		t.Fatal("dump round trip diverged")
	}
	if res.DumpBytes == 0 {
		t.Fatal("empty trace dump")
	}
}

// TestE15ShapesHold asserts the deterministic-chaos acceptance claims:
// the crash-free chaos plan bit-replays, the conservation identity
// expected == ingested + shed + expired holds on every leg, crashes are
// healed by supervised restarts that replay the stranded queues, and
// zero-expiry devices are bit-identical to the fault-free run
// (E15ChaosFleet errors out on any violation).
func TestE15ShapesHold(t *testing.T) {
	tbl, res, err := E15ChaosFleet(DefaultSeed)
	if err != nil {
		t.Fatalf("E15: %v", err)
	}
	if tbl == nil {
		t.Fatal("nil table")
	}
	if res.Injected == 0 {
		t.Fatalf("chaos plan injected nothing: %+v", res)
	}
	if res.Retries == 0 || res.RetryRecovered == 0 {
		t.Fatalf("injected drops provoked no retry recoveries: %+v", res)
	}
	if res.DuplicatesDropped == 0 {
		t.Fatalf("injected duplicates were never deduplicated: %+v", res)
	}
	if res.Compared == 0 {
		t.Fatal("identity leg compared no devices")
	}
}

func TestDriverRigCaptureBytes(t *testing.T) {
	rig, err := newDriverRig(tz.WorldNormal, 4096)
	if err != nil {
		t.Fatalf("newDriverRig: %v", err)
	}
	cycles, err := rig.captureBytes(16 << 10)
	if err != nil {
		t.Fatalf("captureBytes: %v", err)
	}
	if cycles == 0 {
		t.Error("capture consumed no cycles")
	}
}

func TestWorkloadAndHelpers(t *testing.T) {
	utts, err := Workload(10, 1)
	if err != nil || len(utts) != 10 {
		t.Fatalf("Workload = %d, %v", len(utts), err)
	}
	if EnergyModelInUse().PicoJoulePerCycle <= 0 {
		t.Error("energy model degenerate")
	}
	if _, err := E5Baseline(DefaultSeed); err != nil {
		t.Errorf("E5Baseline: %v", err)
	}
	if _, err := modeSession(core.Mode(0), sessionOpts{}, 1, 1); err == nil {
		t.Error("bad mode accepted")
	}
}

// TestE16ShapesHold asserts the batch-scheduler acceptance claims: the
// scheduled elastic fleet's per-device audits are bit-identical to the
// per-device classify run, no flush mixes model versions, the scheduler
// coalesces above occupancy 1, no frames are lost, and the rollout
// converges (E16BatchScheduler errors out on any violation).
func TestE16ShapesHold(t *testing.T) {
	tbl, res, err := E16BatchScheduler(DefaultSeed)
	if err != nil {
		t.Fatalf("E16: %v", err)
	}
	if tbl == nil {
		t.Fatal("nil table")
	}
	if res.Compared != res.Devices+res.Joined {
		t.Fatalf("compared %d devices, want the whole population (%d)",
			res.Compared, res.Devices+res.Joined)
	}
	if res.MeanOccupancy < 1 {
		t.Fatalf("mean occupancy %.2f < 1", res.MeanOccupancy)
	}
}

// TestE17ShapesHold asserts the event-driven pipeline acceptance claims:
// the scheduled fleet's per-device audits are bit-identical to the
// unscheduled run, no frames are lost, groups actually park on the
// executor pool, the live-pipeline high-water mark stays below the
// population, and steady scheduler occupancy exceeds the per-device
// batch (E17AsyncPipeline errors out on any violation).
func TestE17ShapesHold(t *testing.T) {
	tbl, res, err := E17AsyncPipeline(DefaultSeed)
	if err != nil {
		t.Fatalf("E17: %v", err)
	}
	if tbl == nil {
		t.Fatal("nil table")
	}
	if res.Compared != res.Devices+res.Joined {
		t.Fatalf("compared %d devices, want the whole population (%d)",
			res.Compared, res.Devices+res.Joined)
	}
	if res.Occupancy <= float64(res.DeviceBatch) {
		t.Fatalf("steady occupancy %.2f does not exceed the per-device batch %d", res.Occupancy, res.DeviceBatch)
	}
}

func TestE18ShapesHold(t *testing.T) {
	tbl, res, err := E18HybridHE(DefaultSeed)
	if err != nil {
		t.Fatalf("E18: %v", err)
	}
	if tbl == nil {
		t.Fatal("nil table")
	}
	if len(res.Rows) != len(core.Modes()) {
		t.Fatalf("%d rows, want one per registered mode", len(res.Rows))
	}
	if res.LostFrames != 0 {
		t.Fatalf("mixed fleet lost %d frames", res.LostFrames)
	}
	if res.ExpectedEvents != int(res.Ingested)+int(res.Shed)+res.Expired {
		t.Fatalf("conservation: %d != %d + %d + %d",
			res.ExpectedEvents, res.Ingested, res.Shed, res.Expired)
	}
}
