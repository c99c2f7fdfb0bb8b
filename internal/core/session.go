package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"repro/internal/attest"
	"repro/internal/audio"
	"repro/internal/cloud"
	"repro/internal/i2s"
	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/optee"
	"repro/internal/power"
	"repro/internal/sensitive"
	"repro/internal/teec"
	"repro/internal/tz"
)

// ErrNoTEE is returned for TEE-only operations on baseline systems.
var ErrNoTEE = errors.New("core: operation requires a secure-mode system")

// withTA runs fn over a short-lived management session to the voice TA.
// The TA instance refcounts sessions, so a management session opened
// while a processing session is live shares the running instance (and
// the capture stream keeps going).
func (s *System) withTA(fn func(sess *teec.Session) error) error {
	if s.cfg.Mode == ModeBaseline {
		return ErrNoTEE
	}
	ctx := teec.InitializeContext(s.TEE)
	sess, err := ctx.OpenSession(UUIDVoiceTA)
	if err != nil {
		return fmt.Errorf("core management session: %w", err)
	}
	defer func() { _ = ctx.FinalizeContext() }()
	return fn(sess)
}

// Attest asks the TA for attestation evidence over the verifier's
// challenge nonce (fleet handshake, Fig. 1 extended: the provider admits
// the device's traffic only after this report verifies).
func (s *System) Attest(nonce attest.Nonce) (attest.Report, error) {
	var rep attest.Report
	err := s.withTA(func(sess *teec.Session) error {
		buf := make([]byte, 512)
		p := &optee.Params{
			{Type: optee.MemrefIn, Buf: nonce[:]},
			{Type: optee.MemrefOut, Buf: buf},
			{},
		}
		if err := sess.InvokeCommand(CmdAttest, p); err != nil {
			return err
		}
		got, err := attest.UnmarshalReport(buf[:p[2].A])
		if err != nil {
			return err
		}
		rep = got
		return nil
	})
	return rep, err
}

// UpdateModel delivers a published model pack and its per-device
// manifest token to the TA, which authenticates, seals and hot-swaps it.
func (s *System) UpdateModel(pack attest.Pack, tok attest.ManifestToken) error {
	return s.withTA(func(sess *teec.Session) error {
		p := &optee.Params{
			{Type: optee.MemrefIn, Buf: pack.Encode()},
			{Type: optee.MemrefIn, Buf: tok.Marshal()},
			{},
		}
		return sess.InvokeCommand(CmdUpdateModel, p)
	})
}

// ModelVersion returns the model-pack version the device holds (0 for
// baseline systems, which hold no on-device model).
func (s *System) ModelVersion() uint64 {
	if s.cfg.Mode == ModeBaseline {
		return 0
	}
	return s.VoiceTA.ModelVersion()
}

// RotateKey redeems a verifier-issued key-rotation token in the TA,
// which verifies it under the current attestation key, seals the new
// epoch and swaps the evidence signer. Returns the new key epoch.
func (s *System) RotateKey(tok attest.RotationToken) (uint64, error) {
	var epoch uint64
	err := s.withTA(func(sess *teec.Session) error {
		p := &optee.Params{{Type: optee.MemrefIn, Buf: tok.Marshal()}, {}}
		if err := sess.InvokeCommand(CmdRotateKey, p); err != nil {
			return err
		}
		epoch = p[1].A
		return nil
	})
	return epoch, err
}

// KeyEpoch returns the attestation key epoch the device signs evidence
// under (0 for baseline systems).
func (s *System) KeyEpoch() uint64 {
	if s.cfg.Mode == ModeBaseline {
		return 0
	}
	return s.VoiceTA.KeyEpoch()
}

// SnoopSummary aggregates the compromised-OS adversary's results.
type SnoopSummary struct {
	Attempts       int
	Blocked        int
	BytesRecovered int
}

// add records one snoop attempt.
func (ss *SnoopSummary) add(got kernel.SnoopResult) {
	ss.Attempts++
	if got.Blocked {
		ss.Blocked++
	} else {
		ss.BytesRecovered += len(got.Got)
	}
}

// UtteranceOutcome pairs ground truth with what happened to one utterance.
type UtteranceOutcome struct {
	Truth      sensitive.Utterance
	Transcript []string // device transcript (secure modes)
	Flagged    bool
	Forwarded  bool
	// Shed marks an emitted event the ingest frontend dropped under
	// queue pressure (cloud.ErrShed): the device treats it as a
	// retriable network drop, not a session fault.
	Shed bool
	// Expired marks an emitted event whose uplink retry budget ran out
	// (cloud.ErrExpired): retried deterministically, given up explicitly.
	Expired  bool
	Redacted int
	Cycles   tz.Cycles
	Stages   StageCycles
}

// SessionResult aggregates one RunSession.
type SessionResult struct {
	Mode       Mode
	Utterances []UtteranceOutcome
	// ShedEvents counts emitted events the ingest frontend dropped by
	// admission policy (per-utterance detail in Utterances[i].Shed).
	ShedEvents int
	// ExpiredEvents counts emitted events whose delivery retry budget ran
	// out (per-utterance detail in Utterances[i].Expired).
	ExpiredEvents int

	// Privacy outcomes.
	CloudAudit cloud.Audit
	Snoop      SnoopSummary
	// SupplicantPlaintextTokens counts private tokens visible to the
	// (untrusted) supplicant in the payloads it forwarded — zero when the
	// relay seals correctly.
	SupplicantPlaintextTokens int

	// Performance outcomes.
	Latency      *metrics.Recorder // cycles per utterance
	MonitorStats tz.MonitorStats
	Energy       power.Report
	RadioBytes   uint64
	TotalCycles  tz.Cycles
}

// LeakageRate returns sensitive tokens seen by the cloud per utterance
// carrying sensitive content.
func (r *SessionResult) LeakageRate() float64 {
	sensCount := 0
	for _, u := range r.Utterances {
		if u.Truth.Sensitive {
			sensCount++
		}
	}
	if sensCount == 0 {
		return 0
	}
	return float64(r.CloudAudit.SensitiveTokens) / float64(sensCount)
}

// FalseBlockRate returns the fraction of benign utterances that were not
// forwarded (usability cost of the filter).
func (r *SessionResult) FalseBlockRate() float64 {
	benign, blocked := 0, 0
	for _, u := range r.Utterances {
		if !u.Truth.Sensitive {
			benign++
			if !u.Forwarded {
				blocked++
			}
		}
	}
	if benign == 0 {
		return 0
	}
	return float64(blocked) / float64(benign)
}

// sessionScratch is one session's normal-world capture scratch: the
// synthesized utterance and the baseline app's read, capture, decode and
// payload buffers. A session leases a set from sessionScratchPool and
// returns it on every exit, so a fleet that builds, runs and drops one
// System per device reuses a handful of sets instead of growing one per
// device. Each buffer is rewritten before it is read within an
// utterance, and the microphone and the uplink copy what they consume.
type sessionScratch struct {
	synth    []float64
	read     []byte
	captured []byte
	samples  []int32
	payload  []byte
}

var sessionScratchPool = sync.Pool{New: func() any { return new(sessionScratch) }}

// RunSession synthesizes and processes each utterance end to end and
// returns the aggregated result.
func (s *System) RunSession(utterances []sensitive.Utterance) (*SessionResult, error) {
	if s.cfg.Mode != ModeBaseline {
		return s.runSecure(utterances, 1, true)
	}
	sc := sessionScratchPool.Get().(*sessionScratch)
	defer sessionScratchPool.Put(sc)
	res := &SessionResult{Mode: s.cfg.Mode, Latency: metrics.NewRecorder()}
	startCycles := s.Clock.Now()
	s.Monitor.ResetStats()

	// Hold the capture stream open across the session so the DMA buffer
	// stays live (and snoopable), mirroring a continuously listening
	// assistant.
	fd, err := s.Kernel.Open("/dev/i2s0")
	if err != nil {
		return nil, fmt.Errorf("core baseline open: %w", err)
	}
	defer func() {
		_ = s.Kernel.Close(fd)
	}()
	for i, u := range utterances {
		outcome, err := s.runBaselineUtterance(sc, fd, i, u)
		if err != nil {
			return nil, fmt.Errorf("utterance %d (%q): %w", i, u.Text(), err)
		}
		res.add(outcome)
		// The compromised OS sweeps the driver's capture buffer after
		// every utterance.
		s.sweepSnoop(res)
	}

	s.finalizeSession(res, startCycles)
	return res, nil
}

// add records one utterance outcome and its latency.
func (r *SessionResult) add(out UtteranceOutcome) {
	r.Utterances = append(r.Utterances, out)
	if out.Shed {
		r.ShedEvents++
	}
	if out.Expired {
		r.ExpiredEvents++
	}
	r.Latency.Observe(float64(out.Cycles))
}

// sweepSnoop models the compromised OS reading the driver's live capture
// buffer (blocked by the TZASC in secure modes).
func (s *System) sweepSnoop(res *SessionResult) {
	addr := s.Driver.BufferAddr()
	if addr == 0 {
		return
	}
	res.Snoop.add(s.Snooper.Capture(addr, min(64, s.cfg.BufBytes)))
}

// finalizeSession fills the cross-cutting tail of a session result:
// virtual time, monitor stats, radio bytes, cloud/supplicant audits and
// the energy model.
func (s *System) finalizeSession(res *SessionResult, startCycles tz.Cycles) {
	res.TotalCycles = s.Clock.Now() - startCycles
	res.MonitorStats = s.Monitor.Stats()
	s.mu.Lock()
	res.RadioBytes = s.radioBytes
	s.mu.Unlock()

	switch s.cfg.Mode {
	case ModeBaseline:
		res.CloudAudit = s.CloudPlain.Audit()
	default:
		res.CloudAudit = s.CloudSealed.Audit()
		res.SupplicantPlaintextTokens = s.auditSupplicant()
	}

	res.Energy = power.DefaultModel().Measure(power.Usage{
		TotalCycles:  uint64(res.TotalCycles),
		SecureCycles: uint64(res.MonitorStats.SecureCycles),
		Switches:     res.MonitorStats.Switches,
		DMABytes:     s.DMA.Stats().Bytes,
		RadioBytes:   res.RadioBytes,
		FreqHz:       s.cfg.FreqHz,
	})
}

// emitUtteranceSpans exports one processed utterance's stage timeline to
// the device's trace context. Stage starts are laid out back to back from
// start, so the timeline is a pure function of the virtual clock. The
// terminal span carries the admission verdict: a withheld utterance ends
// at classify (blocked), a forwarded one at relay (delivered or shed).
// Only sizes, timings and verdicts are exported — never transcripts. The
// classify span reports the occupancy of the forward pass that actually
// served the utterance: with a shared classify service this is the
// cross-device flush size, not the device's own queue length.
func (s *System) emitUtteranceSpans(start tz.Cycles, rec ProcessedUtterance) {
	tc := s.trace
	if !tc.Enabled() {
		return
	}
	tc.NextItem()
	t := start
	tc.Emit(obs.StageCapture, obs.VerdictNone, t, rec.Stages.Capture, 0, 0)
	t += rec.Stages.Capture
	tc.Emit(obs.StageTranscribe, obs.VerdictNone, t, rec.Stages.Transcribe, 0, 0)
	t += rec.Stages.Transcribe
	if s.cfg.Mode == ModeSecureFilter || s.cfg.Mode == ModeHybridHE {
		v := obs.VerdictNone
		if !rec.Forwarded {
			v = obs.VerdictBlocked
		}
		tc.Emit(obs.StageClassify, v, t, rec.Stages.Classify, 0, rec.ClassifyBatch)
	}
	t += rec.Stages.Classify
	if rec.Forwarded {
		tc.Emit(obs.StageRelay, relayVerdict(rec.Shed, rec.Expired), t, rec.Stages.Relay, rec.SealedSize, 0)
	}
}

// relayVerdict is the terminal span verdict of a forwarded item.
func relayVerdict(shed, expired bool) obs.Verdict {
	switch {
	case expired:
		return obs.VerdictExpired
	case shed:
		return obs.VerdictShed
	}
	return obs.VerdictDelivered
}

// runBaselineUtterance: mic -> untrusted driver -> user app -> raw audio
// to the cloud, which transcribes server-side.
func (s *System) runBaselineUtterance(sc *sessionScratch, fd int, i int, u sensitive.Utterance) (UtteranceOutcome, error) {
	out := UtteranceOutcome{Truth: u}
	start := s.Clock.Now()

	pcm := s.utteranceAudio(sc, i, u)
	wantBytes := len(pcm.Samples) * 2
	if err := s.Mic.Load(pcm); err != nil {
		return out, fmt.Errorf("core mic: %w", err)
	}

	if cap(sc.captured) < wantBytes {
		sc.captured = make([]byte, 0, wantBytes)
	}
	captured := sc.captured[:0]
	if cap(sc.read) < s.cfg.BufBytes {
		sc.read = make([]byte, s.cfg.BufBytes)
	}
	buf := sc.read[:s.cfg.BufBytes]
	idle := 0
	for len(captured) < wantBytes {
		if _, err := s.Mic.PumpBytes(min(wantBytes-len(captured)+4096, 8192)); err != nil {
			// Signal exhausted; keep draining the FIFO.
			idle++
		}
		n, err := s.Kernel.Read(fd, buf[:min(len(buf), wantBytes-len(captured))])
		if err != nil {
			return out, err
		}
		if n == 0 {
			idle++
			if idle > 2000 {
				return out, fmt.Errorf("baseline capture stalled at %d/%d", len(captured), wantBytes)
			}
			continue
		}
		idle = 0
		captured = append(captured, buf[:n]...)
	}

	// The app decodes the I2S wire frames to PCM16 and ships the raw
	// audio; charge radio bytes and per-byte CPU cost. The historical
	// path decoded to float64 and re-quantized through EncodePCM16; the
	// round trip is exact for 16-bit samples, so the payload is built
	// from the decoded samples directly, into reusable scratch.
	sc.captured = captured
	samples, err := i2s.DecodeFramesInto(sc.samples, captured, i2s.DefaultFormat())
	if err != nil {
		return out, fmt.Errorf("baseline decode: %w", err)
	}
	sc.samples = samples
	if cap(sc.payload) < len(samples)*2 {
		sc.payload = make([]byte, len(samples)*2)
	}
	payload := sc.payload[:len(samples)*2]
	for j, v := range samples {
		u := uint16(int16(v))
		payload[2*j] = byte(u)
		payload[2*j+1] = byte(u >> 8)
	}
	s.Clock.Advance(tz.Cycles(len(payload)) * s.Cost.CopyPerByte)
	relayStart := s.Clock.Now()
	s.mu.Lock()
	s.radioBytes += uint64(len(payload))
	sink := s.uplink
	s.mu.Unlock()
	if _, err := sink.Deliver(payload); err != nil {
		// A shed or expired frame was emitted and paid for; the frontend
		// dropped it under pressure (shed) or the retry budget ran out
		// (expired). Both are accounting outcomes, not faults.
		switch {
		case errors.Is(err, cloud.ErrShed):
			out.Shed = true
		case errors.Is(err, cloud.ErrExpired):
			out.Expired = true
		default:
			return out, fmt.Errorf("baseline deliver: %w", err)
		}
	}
	out.Forwarded = true
	out.Cycles = s.Clock.Now() - start
	out.Stages.Capture = out.Cycles // single-stage path
	if tc := s.trace; tc.Enabled() {
		tc.NextItem()
		tc.Emit(obs.StageCapture, obs.VerdictNone, start, relayStart-start, len(payload), 0)
		tc.Emit(obs.StageRelay, relayVerdict(out.Shed, out.Expired), relayStart, s.Clock.Now()-relayStart, len(payload), 0)
	}
	return out, nil
}

// heClassify is the normal-world half of the hybrid HE+TEE split for
// one staged group: it runs the embedding head over the TA's staged
// tokens, encrypts the features under the provider's HE public key, and
// has the provider evaluate the classifier's first conv layer blind. It
// returns the provider's results in CmdResumeBatchHE's wire form. The
// provider observes ciphertext bytes only — never a cleartext feature.
func (s *System) heClassify(tokens [][]int) ([]byte, error) {
	blobs := make([][]byte, len(tokens))
	feats := make([]float32, s.heSplit.SeqLen)
	for i, ids := range tokens {
		for j := range feats {
			feats[j] = 0
		}
		for j := 0; j < len(ids) && j < len(feats); j++ {
			feats[j] = float32(ids[j])
		}
		data, shape, err := s.heSplit.EmbedFeatures(feats)
		if err != nil {
			return nil, fmt.Errorf("hybrid embed %d: %w", i, err)
		}
		ct, err := s.HEEval.Encrypt(s.HEPub, data, shape)
		if err != nil {
			return nil, fmt.Errorf("hybrid encrypt %d: %w", i, err)
		}
		wire := ct.Marshal(s.HEEval.Params)
		res, err := s.HE.EvalText(wire)
		if err != nil {
			return nil, fmt.Errorf("hybrid eval %d: %w", i, err)
		}
		// Ciphertext traffic rides the radio in both directions.
		s.mu.Lock()
		s.radioBytes += uint64(len(wire) + len(res))
		s.mu.Unlock()
		blobs[i] = res
	}
	return packLengthPrefixed(blobs), nil
}

// RunSessionBatched is RunSession for the secure modes with TA-side
// batching: utterances are queued onto the bus in groups of `batch` and
// each group is processed by ONE CmdProcessBatch invocation (two for the
// hybrid split), so the session pays one world-switch round trip per
// group instead of per utterance, and the classifier runs one batched
// forward pass per group. Baseline mode has no TA to batch into and falls
// back to RunSession.
func (s *System) RunSessionBatched(utterances []sensitive.Utterance, batch int) (*SessionResult, error) {
	if s.cfg.Mode == ModeBaseline || batch <= 1 {
		return s.RunSession(utterances)
	}
	return s.runSecure(utterances, batch, false)
}

// queueGroup synthesizes the utterances of a group (the first is
// utterance lo of the session), loads them into the microphone and
// streams them onto the bus back to back (the big controller FIFO stands
// in for real-time pacing; see NewSystem). It returns the TA's length
// table: each utterance's wire byte count, little-endian uint32.
func (s *System) queueGroup(sc *sessionScratch, lo int, group []sensitive.Utterance) ([]byte, error) {
	lens := make([]byte, 0, 4*len(group))
	for i, u := range group {
		pcm := s.utteranceAudio(sc, lo+i, u)
		if err := s.Mic.Load(pcm); err != nil {
			return nil, fmt.Errorf("core mic: %w", err)
		}
		lens = binary.LittleEndian.AppendUint32(lens, uint32(len(pcm.Samples)*2))
	}
	for {
		if _, err := s.Mic.PumpBytes(8192); err != nil {
			break
		}
	}
	return lens, nil
}

// utteranceAudio renders utterance i with a per-utterance voice seed so
// renditions vary across the session. The returned PCM aliases sc's
// synthesis buffer: it is valid until the next utteranceAudio call (the
// microphone copies on Load).
func (s *System) utteranceAudio(sc *sessionScratch, i int, u sensitive.Utterance) audio.PCM {
	v := s.Voice
	v.Seed = s.cfg.Seed*1_000_003 + uint64(i)*97 + 13
	pcm := v.SynthesizeInto(sc.synth, u.Words)
	sc.synth = pcm.Samples[:0]
	return pcm
}

// auditSupplicant counts private plaintext tokens in the payloads the
// untrusted daemon forwarded. Sealed frames contain none; this is the
// test that the supplicant learned nothing.
func (s *System) auditSupplicant() int {
	count := 0
	for _, payload := range s.Supplicant.Observed() {
		// A hostile supplicant would scan forwarded bytes for words it
		// knows. Count lexicon words appearing verbatim.
		for _, w := range s.Vocab.Words() {
			if sensitive.IsSensitiveWord(w) && containsWord(payload, w) {
				count++
			}
		}
	}
	return count
}

func containsWord(payload []byte, word string) bool {
	if len(word) == 0 || len(payload) < len(word) {
		return false
	}
	for i := 0; i+len(word) <= len(payload); i++ {
		if string(payload[i:i+len(word)]) == word {
			return true
		}
	}
	return false
}
