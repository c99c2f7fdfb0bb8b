package main

// Snapshot-schema drift guard. docs/OPERATIONS.md documents the -json
// snapshot field-for-field inside a ```snapshot-schema fenced block;
// this test derives the schema from the snapshot struct by reflection
// and requires the two lists to match byte-for-byte, then runs a real
// (small, fully-featured) fleet through run() and round-trips its output
// with DisallowUnknownFields. Documentation drift and struct drift both
// fail CI.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// schemaPaths walks a snapshot type and emits one path per leaf field,
// using "." for struct/map nesting ("*" for map keys) and "[]" for
// slices.
func schemaPaths(t reflect.Type, prefix string, out *[]string) {
	switch t.Kind() {
	case reflect.Pointer:
		schemaPaths(t.Elem(), prefix, out)
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			tag := strings.Split(f.Tag.Get("json"), ",")[0]
			if tag == "" || tag == "-" {
				continue
			}
			path := tag
			if prefix != "" {
				path = prefix + "." + tag
			}
			schemaPaths(f.Type, path, out)
		}
	case reflect.Map:
		schemaPaths(t.Elem(), prefix+".*", out)
	case reflect.Slice:
		schemaPaths(t.Elem(), prefix+"[]", out)
	default:
		*out = append(*out, prefix)
	}
}

// documentedSchema extracts the ```snapshot-schema block from the
// operator's handbook.
func documentedSchema(t *testing.T) []string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "docs", "OPERATIONS.md"))
	if err != nil {
		t.Fatalf("operator handbook missing: %v", err)
	}
	lines := strings.Split(string(raw), "\n")
	var fields []string
	in := false
	for _, line := range lines {
		switch {
		case strings.HasPrefix(line, "```snapshot-schema"):
			in = true
		case in && strings.HasPrefix(line, "```"):
			return fields
		case in:
			if f := strings.TrimSpace(line); f != "" {
				fields = append(fields, f)
			}
		}
	}
	t.Fatal("docs/OPERATIONS.md has no ```snapshot-schema block")
	return nil
}

// TestSnapshotSchemaMatchesHandbook: the documented field list equals
// the struct-derived one, byte for byte.
func TestSnapshotSchemaMatchesHandbook(t *testing.T) {
	var derived []string
	schemaPaths(reflect.TypeOf(snapshot{}), "", &derived)
	documented := documentedSchema(t)
	sort.Strings(derived)
	sorted := append([]string(nil), documented...)
	sort.Strings(sorted)
	if !reflect.DeepEqual(sorted, documented) {
		t.Fatalf("snapshot-schema block must be sorted:\n%s", strings.Join(documented, "\n"))
	}
	if !reflect.DeepEqual(derived, sorted) {
		t.Fatalf("docs/OPERATIONS.md snapshot schema drifted from the snapshot struct.\nderived:\n%s\n\ndocumented:\n%s",
			strings.Join(derived, "\n"), strings.Join(sorted, "\n"))
	}
}

// TestSnapshotSmoke runs a small fully-featured fleet through the CLI
// entry point and round-trips the written snapshot against the struct
// with unknown fields disallowed — the output and the documented schema
// cannot drift apart silently.
func TestSnapshotSmoke(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.json")
	err := run([]string{
		"-devices", "12", "-shards", "2", "-utterances", "2", "-frames", "2",
		"-rollout", "-rogues", "2", "-churn", "0.3", "-rebalance", "-sched",
		"-rotate", "0.25", "-revoke", "0.15", "-federate", "-tenants", "2",
		"-policy", "shed", "-trace", "-trace-sample", "1",
		"-faults", "-fault-touch", "0.5", "-fault-drop", "0.2", "-fault-dup", "0.15",
		"-fault-expire", "0.1", "-fault-crashes", "1", "-fault-slow-shard", "2",
		"-fault-tee", "0.5", "-json", path,
	})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var snap snapshot
	if err := dec.Decode(&snap); err != nil {
		t.Fatalf("snapshot does not match its schema: %v", err)
	}
	if snap.AdmissionPolicy != "shed" {
		t.Fatalf("admission_policy %q", snap.AdmissionPolicy)
	}
	if snap.Churn == nil || snap.Churn.Joined == 0 || snap.Churn.Left == 0 {
		t.Fatalf("churn block missing or empty: %+v", snap.Churn)
	}
	if snap.Rebalance == nil || !snap.Rebalance.Fired ||
		snap.Rebalance.DrainedShard == "" || len(snap.Rebalance.AddedShards) == 0 {
		t.Fatalf("rebalance block missing or empty: %+v", snap.Rebalance)
	}
	drained := false
	for _, s := range snap.ShardStats {
		drained = drained || s.Drained
	}
	if !drained {
		t.Fatal("no drained shard in shard_stats")
	}
	if snap.LostFrames != 0 {
		t.Fatalf("lost %d frames", snap.LostFrames)
	}
	if snap.Faults == nil || snap.Faults.Injected == 0 {
		t.Fatalf("faults block missing or inert: %+v", snap.Faults)
	}
	if snap.Rollout == nil || snap.Rollout.Rollbacks == nil {
		t.Fatalf("rollout block incomplete: %+v", snap.Rollout)
	}
	if snap.Lifecycle == nil || snap.Lifecycle.Rotated == 0 || snap.Lifecycle.Revoked == 0 {
		t.Fatalf("lifecycle block missing or empty: %+v", snap.Lifecycle)
	}
	if snap.Lifecycle.ProbeRejected != snap.Lifecycle.ProbeAttempts {
		t.Fatalf("revocation probes: %d/%d rejected",
			snap.Lifecycle.ProbeRejected, snap.Lifecycle.ProbeAttempts)
	}
	if len(snap.TenantAttested) != 2 {
		t.Fatalf("tenant_attested: %v", snap.TenantAttested)
	}
	tel := snap.Telemetry
	if tel == nil || tel.SampleEvery != 1 {
		t.Fatalf("telemetry block missing or wrong rate: %+v", tel)
	}
	if tel.Spans == 0 || len(tel.Stages) == 0 {
		t.Fatalf("traced run exported no spans: %+v", tel)
	}
	if tel.SampledDevices+tel.UnsampledDevices == 0 || tel.UnsampledDevices != 0 {
		t.Fatalf("1-in-1 sampling skipped devices: %+v", tel)
	}
	var rejected uint64
	for name, n := range tel.Verdicts {
		if strings.HasPrefix(name, "rejected-") {
			rejected += n
		}
	}
	var shardRejected, byReason uint64
	for _, s := range snap.ShardStats {
		shardRejected += s.Rejected
		byReason += s.RejectedRevoked + s.RejectedStale + s.RejectedForged + s.RejectedPolicy
	}
	if byReason != shardRejected {
		t.Fatalf("per-reason rejects %d != total rejects %d", byReason, shardRejected)
	}
	if rejected != shardRejected {
		t.Fatalf("rejected spans %d != shard rejects %d", rejected, shardRejected)
	}
	if snap.EffectiveBatch == 0 || snap.EffectiveBatch != snap.Batch {
		t.Fatalf("unclamped run surfaced batch %d effective %d", snap.Batch, snap.EffectiveBatch)
	}
	sc := snap.Sched
	if sc == nil || sc.Items == 0 || sc.Batches == 0 {
		t.Fatalf("sched block missing or inert: %+v", sc)
	}
	if sc.MixedVersionFlushes != 0 {
		t.Fatalf("%d flushes mixed model versions", sc.MixedVersionFlushes)
	}
	var flushed, telFlushed uint64
	for _, n := range sc.Flushes {
		flushed += n
	}
	if flushed != sc.Batches {
		t.Fatalf("flush reasons account for %d of %d batches", flushed, sc.Batches)
	}
	for _, n := range tel.Flushes {
		telFlushed += n
	}
	if telFlushed != flushed {
		t.Fatalf("telemetry flushes %d != scheduler flushes %d", telFlushed, flushed)
	}
}

// TestSnapshotSmokeMix drives a named -mix run that weights every
// registered mode — including hybrid-he — through the CLI, and checks
// the snapshot's mode-name-keyed mix block records the effective spec.
func TestSnapshotSmokeMix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.json")
	err := run([]string{
		"-devices", "12", "-shards", "2", "-utterances", "2", "-frames", "2",
		"-mix", "baseline=1,secure-nofilter=1,secure-filter=2,hybrid-he=1",
		"-json", path,
	})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var snap snapshot
	if err := dec.Decode(&snap); err != nil {
		t.Fatalf("snapshot does not match its schema: %v", err)
	}
	want := map[string]int{"baseline": 1, "secure-nofilter": 1, "secure-filter": 2, "hybrid-he": 1}
	if !reflect.DeepEqual(snap.Mix, want) {
		t.Fatalf("mix block %v, want %v", snap.Mix, want)
	}
	if snap.LostFrames != 0 {
		t.Fatalf("lost %d frames", snap.LostFrames)
	}
	if snap.CloudEvents == 0 {
		t.Fatal("hybrid-weighted fleet ingested nothing")
	}
}

// TestMixFlagUnknownMode: a bad -mix surfaces the registered-mode
// listing instead of a bare parse failure.
func TestMixFlagUnknownMode(t *testing.T) {
	err := run([]string{"-devices", "4", "-mix", "baseline=1,he-only=2"})
	if err == nil {
		t.Fatal("unknown mix mode was accepted")
	}
	if !strings.Contains(err.Error(), "hybrid-he") || !strings.Contains(err.Error(), "secure-filter") {
		t.Fatalf("error does not list registered modes: %v", err)
	}
}

// TestNaNFlagsRejected: a NaN fraction on the command line is a bad
// config, not a run.
func TestNaNFlagsRejected(t *testing.T) {
	for _, args := range [][]string{
		{"-devices", "8", "-doorbells", "NaN"},
		{"-devices", "16", "-rollout", "-canary", "NaN"},
	} {
		if err := run(args); err == nil {
			t.Errorf("run(%q) accepted a NaN fraction", args)
		}
	}
}

// TestSnapshotSmokeAsync drives the engine through the CLI on a single
// executor with the shared scheduler, a staged rollout, churn and key
// rotation — the rollout composing with the scheduler on the one engine
// — and round-trips the snapshot's async block.
func TestSnapshotSmokeAsync(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.json")
	err := run([]string{
		"-devices", "12", "-shards", "2", "-utterances", "2", "-frames", "2", "-workers", "1",
		"-sched", "-rollout", "-canary", "0.25", "-churn", "0.3", "-rotate", "0.25", "-json", path,
	})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var snap snapshot
	if err := dec.Decode(&snap); err != nil {
		t.Fatalf("snapshot does not match its schema: %v", err)
	}
	if snap.LostFrames != 0 {
		t.Fatalf("lost %d frames", snap.LostFrames)
	}
	a := snap.Async
	if a.Executors != 1 || a.Steps == 0 || a.PeakLive == 0 {
		t.Fatalf("async block missing or inert: %+v", a)
	}
	if a.Parks == 0 {
		t.Fatal("scheduled run parked no classify groups")
	}
	sc := snap.Sched
	if sc == nil || sc.Items == 0 {
		t.Fatalf("sched block missing or inert: %+v", sc)
	}
	if sc.MeanOccupancySteady < sc.MeanOccupancy {
		t.Fatalf("steady occupancy %v below raw %v", sc.MeanOccupancySteady, sc.MeanOccupancy)
	}
	if snap.Rollout == nil || !snap.Rollout.Converged {
		t.Fatalf("rollout block missing or not converged under -sched: %+v", snap.Rollout)
	}
	if snap.Lifecycle == nil || snap.Lifecycle.Rotated == 0 {
		t.Fatalf("lifecycle block missing or empty: %+v", snap.Lifecycle)
	}
	if snap.Churn == nil || snap.Churn.Joined == 0 {
		t.Fatalf("churn block missing or empty: %+v", snap.Churn)
	}
}

// TestHeadlineFingerprint pins the audit fingerprint of the full-scale
// traced run, `periguard-fleet -devices 1000 -shards 8 -trace`: the cloud
// events ingested, the sensitive tokens the provider saw, the lost frames,
// the telemetry span count and the virtual latency percentiles. Every
// count and latency is a function of the seed, so any change to them is a
// behaviour change, never noise.
func TestHeadlineFingerprint(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale 1000-device run")
	}
	path := filepath.Join(t.TempDir(), "snap.json")
	if err := run([]string{"-devices", "1000", "-shards", "8", "-trace", "-json", path}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Telemetry == nil {
		t.Fatal("traced run wrote no telemetry block")
	}
	got := fmt.Sprintf("cloud_events=%d sensitive_tokens=%d lost_frames=%d spans=%d p50=%.6f p99=%.6f",
		snap.CloudEvents, snap.SensTokens, snap.LostFrames, snap.Telemetry.Spans,
		snap.LatencyP50Vms, snap.LatencyP99Vms)
	const want = "cloud_events=3088 sensitive_tokens=1205 lost_frames=0 spans=165 p50=0.292222 p99=2.366489"
	if got != want {
		t.Fatalf("headline fingerprint drifted:\n got %s\nwant %s", got, want)
	}
}
