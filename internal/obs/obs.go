// Package obs is the frame-telemetry layer: virtual-time tracing spans
// that follow a frame from device capture through the TEE pipeline to
// shard admission, per-shard flight recorders, and a histogram registry
// that summarizes a fleet run for the -json snapshot.
//
// Design constraints, in order:
//
//   - Zero allocation on the hot path for untraced devices. Every entry
//     point is a nil-safe method on a pointer receiver, so a sampled-out
//     device threads a nil *TraceContext through its whole pipeline and
//     each stage pays exactly one nil check.
//   - Deterministic. Spans are stamped in virtual tz.Cycles (per-device
//     virtual clocks are bit-reproducible per root seed) and sampling is
//     a pure function of a per-device seed derived from the root seed,
//     so the exported trace dump is byte-identical across runs. Flight
//     recorder ring contents depend on goroutine arrival order and are
//     therefore diagnostic only — they are never part of the dump.
//   - Metadata only. A span carries identity labels, stage, verdict,
//     sizes and virtual timestamps; there is no field that could hold
//     transcript tokens or sealed payload bytes, and the dump grammar
//     (ParseDump) rejects any line that does not parse back into exactly
//     those fields.
package obs

import (
	"sync"

	"repro/internal/tz"
)

// Stage names one pipeline stage a span measures.
type Stage uint8

// Pipeline stages, in frame order.
const (
	// StageCapture covers peripheral capture + i2s/DMA into the pipeline
	// (mic ring reads for speakers, sensor DMA + copy-out for cameras).
	StageCapture Stage = iota + 1
	// StageTranscribe covers in-TEE ASR decode (speakers only).
	StageTranscribe
	// StageClassify covers in-TEE classifier inference (batched or not).
	StageClassify
	// StageRelay covers seal + uplink RPC + directive open.
	StageRelay
	// StageAdmit marks frontend admission outcomes observed off-device
	// (post-revocation probes, rogue traffic); its duration is 0 because
	// no device virtual clock runs there.
	StageAdmit
)

var stageNames = [...]string{"", "capture", "transcribe", "classify", "relay", "admit"}

// String returns the stage's dump token.
func (s Stage) String() string {
	if int(s) < len(stageNames) && s > 0 {
		return stageNames[s]
	}
	return "unknown"
}

// Stages lists every stage in pipeline order (registry iteration order).
func Stages() []Stage {
	return []Stage{StageCapture, StageTranscribe, StageClassify, StageRelay, StageAdmit}
}

// Verdict is the terminal outcome a frame's last span carries. Exactly
// one span per traced item bears a verdict other than VerdictNone, so
// summing spans per verdict counts items — the property E14 checks
// against the audit counters.
type Verdict uint8

// Frame verdicts.
const (
	// VerdictNone marks a non-terminal span (an intermediate stage).
	VerdictNone Verdict = iota
	// VerdictBlocked: the in-TEE filter withheld the frame on-device.
	VerdictBlocked
	// VerdictDelivered: the frame was admitted to be served by its shard.
	VerdictDelivered
	// VerdictShed: the admission policy dropped the frame under pressure.
	VerdictShed
	// VerdictRejectedRevoked: admission rejected a revoked identity.
	VerdictRejectedRevoked
	// VerdictRejectedStale: admission rejected a stale model version or
	// key epoch (the minimum-version / epoch-floor policies).
	VerdictRejectedStale
	// VerdictRejectedForged: admission rejected forged or replayed
	// evidence.
	VerdictRejectedForged
	// VerdictRejectedPolicy: admission rejected for any other policy
	// reason (unattested, bad measurement, unknown device).
	VerdictRejectedPolicy
	// VerdictExpired: the uplink retry budget ran out before the frame
	// was admitted (deterministic give-up under a fault plan). Appended
	// after the rejection block so Rejected()'s range stays contiguous.
	VerdictExpired
)

var verdictNames = [...]string{
	"-", "blocked", "delivered", "shed",
	"rejected-revoked", "rejected-stale", "rejected-forged", "rejected-policy",
	"expired",
}

// String returns the verdict's dump token.
func (v Verdict) String() string {
	if int(v) < len(verdictNames) {
		return verdictNames[v]
	}
	return "unknown"
}

// Rejected reports whether the verdict is an admission rejection.
func (v Verdict) Rejected() bool {
	return v >= VerdictRejectedRevoked && v <= VerdictRejectedPolicy
}

// Verdicts lists every verdict in dump order.
func Verdicts() []Verdict {
	return []Verdict{
		VerdictBlocked, VerdictDelivered, VerdictShed,
		VerdictRejectedRevoked, VerdictRejectedStale, VerdictRejectedForged, VerdictRejectedPolicy,
		VerdictExpired,
	}
}

// Span is one traced pipeline stage of one frame. Every field is
// metadata: labels, indices, sizes and virtual timestamps. There is
// deliberately no payload field.
type Span struct {
	Device  string
	Tenant  string
	Seq     int // item index within the device's run
	Stage   Stage
	Verdict Verdict
	Batch   int // TA batch occupancy the item was processed in (0 = unbatched)
	Bytes   int // payload size in bytes (0 where no payload crosses)
	Start   tz.Cycles
	Dur     tz.Cycles
}

// TraceContext collects the spans of one sampled device. A nil
// *TraceContext is the sampled-out case: every method no-ops without
// allocating, so the pipeline threads it unconditionally.
type TraceContext struct {
	device string
	tenant string

	mu    sync.Mutex
	seq   int
	spans []Span
}

// newTraceContext starts a context with seq parked before item 0.
func newTraceContext(device, tenant string) *TraceContext {
	return &TraceContext{device: device, tenant: tenant, seq: -1, spans: make([]Span, 0, 16)}
}

// Enabled reports whether spans are being collected.
func (tc *TraceContext) Enabled() bool { return tc != nil }

// NextItem advances the item sequence number; call it once per
// utterance/frame before the item's first span.
func (tc *TraceContext) NextItem() {
	if tc == nil {
		return
	}
	tc.mu.Lock()
	tc.seq++
	tc.mu.Unlock()
}

// Emit records one span for the current item.
func (tc *TraceContext) Emit(stage Stage, verdict Verdict, start, dur tz.Cycles, bytes, batch int) {
	if tc == nil {
		return
	}
	tc.mu.Lock()
	tc.spans = append(tc.spans, Span{
		Device: tc.device, Tenant: tc.tenant, Seq: tc.seq,
		Stage: stage, Verdict: verdict, Batch: batch, Bytes: bytes,
		Start: start, Dur: dur,
	})
	tc.mu.Unlock()
}

// Spans snapshots the collected spans (emission order).
func (tc *TraceContext) Spans() []Span {
	if tc == nil {
		return nil
	}
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return append([]Span(nil), tc.spans...)
}

// mix64 is the splitmix64 finalizer. Sampling seeds come from
// core.DeriveSeed, whose outputs are always odd (the low bit is forced),
// so a bare modulo would alias; the finalizer avalanches all 64 bits
// first.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Sampled decides, purely from the device's trace seed, whether the
// device is traced at a 1-in-every rate. every <= 1 samples everything.
func Sampled(seed uint64, every int) bool {
	if every <= 1 {
		return true
	}
	return mix64(seed)%uint64(every) == 0
}
