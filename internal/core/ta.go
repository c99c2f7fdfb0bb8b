package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"repro/internal/asr"
	"repro/internal/attest"
	"repro/internal/audio"
	"repro/internal/cloud"
	"repro/internal/driver"
	"repro/internal/he"
	"repro/internal/i2s"
	"repro/internal/ml/classify"
	"repro/internal/ml/layers"
	"repro/internal/optee"
	"repro/internal/relay"
	"repro/internal/sensitive"
	"repro/internal/tz"
)

// weightsObjectID is the secure-storage id of the sealed classifier.
const weightsObjectID = "voice-ta/classifier-weights"

// heSecretKeyID is the secure-storage id of the sealed HE secret key
// (ModeHybridHE): provisioned like the model pack, unsealed only
// inside the TA for the HE→TEE handoff decrypt.
const heSecretKeyID = "voice-ta/he-secret-key"

// packObjectID is the secure-storage id of a provisioned model pack.
func packObjectID(version uint64) string {
	return fmt.Sprintf("voice-ta/model-pack-v%d", version)
}

// keyEpochObjectID is the secure-storage id of the sealed key-epoch
// record, kept next to the current-weights object so a TA restart
// resumes signing at the rotated epoch.
const keyEpochObjectID = "voice-ta/key-epoch"

// VoiceTADigest is the measured code identity of the voice TA — what a
// loader hashing the TA image would report, and what the fleet verifier
// expects from secure speakers.
var VoiceTADigest = attest.MeasureCode("periguard", UUIDVoiceTA)

// DriverPTA is the pseudo trusted application bridging the TA and the
// in-TEE sound driver (paper §II: a PTA "with OS-level privileges that
// could serve as an intermediary between a TA and low-level code like
// device driver software").
type DriverPTA struct {
	drv *driver.SoundDriver

	mu      sync.Mutex
	started bool
}

// PTA commands.
const (
	// CmdPTAStart probes and starts the capture stream.
	CmdPTAStart uint32 = 0x10
	// CmdPTARead drains captured bytes into params[0] (MemrefOut); the
	// number of valid bytes returns in params[1].A (ValueOut).
	CmdPTARead uint32 = 0x11
	// CmdPTAStop stops and closes the stream.
	CmdPTAStop uint32 = 0x12
)

// NewDriverPTA wraps the secure driver instance.
func NewDriverPTA(drv *driver.SoundDriver) *DriverPTA {
	return &DriverPTA{drv: drv}
}

// UUID implements optee.TA.
func (p *DriverPTA) UUID() string { return UUIDDriverPTA }

// Open implements optee.TA.
func (p *DriverPTA) Open(sessionID uint32) error { return nil }

// Close implements optee.TA.
func (p *DriverPTA) Close(sessionID uint32) {}

// Invoke implements optee.TA.
func (p *DriverPTA) Invoke(sessionID uint32, cmd uint32, params *optee.Params) error {
	switch cmd {
	case CmdPTAStart:
		return p.start()
	case CmdPTARead:
		if params[0].Type != optee.MemrefOut || params[0].Buf == nil {
			return fmt.Errorf("%w: CmdPTARead needs MemrefOut", optee.ErrBadParam)
		}
		n, err := p.drv.ReadPCM(params[0].Buf)
		if err != nil {
			return err
		}
		params[1].Type = optee.ValueOut
		params[1].A = uint64(n)
		return nil
	case CmdPTAStop:
		return p.stop()
	default:
		return fmt.Errorf("%w: pta cmd %#x", optee.ErrBadParam, cmd)
	}
}

func (p *DriverPTA) start() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.started {
		return nil
	}
	if err := p.drv.Probe(); err != nil {
		return err
	}
	if err := p.drv.Open(); err != nil && !errors.Is(err, driver.ErrAlreadyOpen) {
		return err
	}
	if err := p.drv.HwParams(i2s.DefaultFormat()); err != nil {
		return err
	}
	if err := p.drv.Prepare(); err != nil {
		return err
	}
	if err := p.drv.TriggerStart(); err != nil {
		return err
	}
	p.started = true
	return nil
}

func (p *DriverPTA) stop() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.started {
		return nil
	}
	p.started = false
	if err := p.drv.TriggerStop(); err != nil {
		return err
	}
	return p.drv.Close()
}

// VoiceTA commands.
const (
	// CmdProcessUtterance captures params[0].A bytes of audio through the
	// PTA, transcribes, (optionally) classifies and filters, and relays
	// the result. Outputs: params[1] ValueOut A=forwarded(0/1) B=redacted.
	CmdProcessUtterance uint32 = 0x20
	// CmdProcessBatch processes several queued utterances in ONE TA
	// invocation, amortizing the world-switch round trip and batching the
	// classifier forward pass across the queue. params[0] is a MemrefIn of
	// little-endian uint32 utterance byte lengths; outputs: params[1]
	// ValueOut A=forwarded count, B=total redacted tokens.
	CmdProcessBatch uint32 = 0x21
	// CmdAttest produces attestation evidence: params[0] is a MemrefIn
	// challenge nonce, params[1] a MemrefOut the marshalled report is
	// written into, params[2].A (ValueOut) the report length.
	CmdAttest uint32 = 0x22
	// CmdUpdateModel installs a newer model pack: params[0] is a MemrefIn
	// encoded attest.Pack, params[1] a MemrefIn marshalled manifest token.
	// The TA verifies the manifest against its device key, seals the pack
	// into secure storage and hot-swaps the classifier without disturbing
	// in-flight batches; params[2].A (ValueOut) returns the new version.
	CmdUpdateModel uint32 = 0x23
	// CmdRotateKey redeems a verifier-issued key-rotation token:
	// params[0] is a MemrefIn marshalled attest.RotationToken. The TA
	// verifies the token under its current attestation key, derives the
	// next epoch key, seals the epoch record to secure storage (next to
	// current-weights) and swaps the signer without disturbing in-flight
	// work; params[1].A (ValueOut) returns the new key epoch.
	CmdRotateKey uint32 = 0x24
	// CmdTranscribeBatch runs the front half of CmdProcessBatch — capture
	// and in-TEE transcription for one queued group — then parks: the
	// encoded token sequences are staged for an external shared-scheduler
	// classification instead of classifying inline, so the calling thread
	// can yield while the cross-device flush forms. params[0] is a
	// MemrefIn of little-endian uint32 utterance byte lengths; params[1].A
	// (ValueOut) returns the pending count.
	CmdTranscribeBatch uint32 = 0x25
	// CmdResumeBatch completes a staged batch with verdicts from the
	// shared classifier: params[0] is a MemrefIn of 5 bytes per item
	// (flag byte + little-endian uint32 flush occupancy), params[1].A
	// (ValueIn) the virtual cycles the classification waited. The TA
	// charges the wait, applies the relay policy and forwards survivors.
	// Outputs: params[2] ValueOut A=forwarded count, B=redacted tokens.
	CmdResumeBatch uint32 = 0x26
	// CmdResumeBatchHE completes a staged batch via the HE→TEE handoff
	// (ModeHybridHE): params[0] is a MemrefIn of concatenated
	// length-prefixed ciphertext blobs (little-endian uint32 byte length
	// followed by the provider-evaluated HE layer output), one per
	// staged utterance. The TA unseals the HE secret key from secure
	// storage, decrypts each blob, runs the classifier's non-linear tail
	// inside the TEE, applies the relay policy and forwards survivors.
	// Outputs: params[1] ValueOut A=forwarded count, B=redacted tokens.
	CmdResumeBatchHE uint32 = 0x27
)

// MaxBatch bounds one CmdProcessBatch invocation; it keeps the batch's
// wire bytes comfortably inside the controller FIFO.
const MaxBatch = 8

// StageCycles decomposes one utterance's TEE processing time.
type StageCycles struct {
	Capture    tz.Cycles
	Transcribe tz.Cycles
	Classify   tz.Cycles
	Relay      tz.Cycles
}

// Total sums the stages.
func (s StageCycles) Total() tz.Cycles {
	return s.Capture + s.Transcribe + s.Classify + s.Relay
}

// ProcessedUtterance is the TA-side record of one handled utterance.
// It never leaves the secure world; experiments read it as trusted
// instrumentation.
type ProcessedUtterance struct {
	Transcript []string
	Flagged    bool
	Forwarded  bool
	// Shed marks a forwarded event the ingest frontend dropped under
	// queue pressure (the relay saw cloud.ErrShed instead of a sealed
	// directive). The event was emitted and cost-accounted; it simply
	// never reached the provider.
	Shed bool
	// Expired marks a forwarded event whose delivery retry budget ran out
	// (the relay saw cloud.ErrExpired): the uplink retried deterministically
	// and gave up explicitly. Like Shed, the event was emitted and
	// cost-accounted — it is an accounting outcome, never a silent loss.
	Expired    bool
	Redacted   int
	Stages     StageCycles
	SealedSize int
	// ClassifyBatch is the occupancy of the forward pass that classified
	// this utterance: the device's own queue length on the local path, or
	// the cross-device flush size when a shared classify service is
	// wired (0 when the filter did not run).
	ClassifyBatch int
}

// VoiceTAConfig wires the TA's dependencies.
type VoiceTAConfig struct {
	TEE        *optee.OS
	Storage    *optee.Storage
	Recognizer *asr.Session
	Arch       classify.Arch
	VocabSize  int
	Vocab      *sensitive.Vocabulary
	Policy     relay.Policy
	Filter     bool // false = secure-nofilter mode
	Identity   *relay.Identity
	CloudPub   []byte
	Clock      *tz.Clock
	Cost       tz.CostModel
	Seed       uint64
	// Attestor signs measurement reports with the device's attestation
	// key (nil outside attested fleets); ModelVersion is the provisioned
	// model-pack version the TA boots with.
	Attestor     *attest.Attestor
	ModelVersion uint64
	// Hybrid marks the HE+TEE split-inference deployment: the TA
	// accepts CmdResumeBatchHE handoffs, decrypting under the sealed
	// secret key and running the classifier tail in the TEE. HEParams
	// is the leveled-HE parameter set the fleet's key pair uses.
	Hybrid   bool
	HEParams he.Params
}

// VoiceTA is the trusted application of Fig. 1: it pulls audio from the
// PTA, transcribes it, applies the ML filter, and relays sanitized events
// through the supplicant to the cloud.
type VoiceTA struct {
	cfg     VoiceTAConfig
	channel *relay.Channel

	mu           sync.Mutex
	classifier   *classify.Classifier // nil until first classify (unsealed from storage) or updateModel
	remote       ClassifyService      // non-nil: classify via the shared cross-device scheduler
	remoteDevice string               // device id submitted with shared-classify requests
	opens        int                  // open-session refcount; capture runs while > 0
	modelVersion uint64
	modelSeed    uint64
	processed    []ProcessedUtterance
	messageID    uint64
	// Staged-batch state (CmdTranscribeBatch → CmdResumeBatch): records
	// carrying the capture/transcribe halves and the encoded tokens
	// awaiting the shared classifier. At most one staged batch is pending
	// per TA.
	pendingRecs   []ProcessedUtterance
	pendingTokens [][]int
}

var _ optee.TA = (*VoiceTA)(nil)

// NewVoiceTA constructs the TA (registered but not yet opened). A
// sealed key-epoch record left by an earlier instance's CmdRotateKey is
// restored here, so a TA restart resumes signing at the rotated epoch
// instead of falling back to the provisioning key.
func NewVoiceTA(cfg VoiceTAConfig) (*VoiceTA, error) {
	ch, err := relay.NewChannel(cfg.Identity, cfg.CloudPub, true)
	if err != nil {
		return nil, fmt.Errorf("voice ta channel: %w", err)
	}
	cfg.Attestor = restoreKeyEpoch(cfg.Storage, keyEpochObjectID, cfg.Attestor)
	return &VoiceTA{
		cfg:          cfg,
		channel:      ch,
		modelVersion: cfg.ModelVersion,
		modelSeed:    cfg.Seed,
	}, nil
}

// restoreKeyEpoch advances an attestor to the key epoch sealed in
// secure storage (no record, or no attestor, leaves it untouched).
func restoreKeyEpoch(storage *optee.Storage, objectID string, a *attest.Attestor) *attest.Attestor {
	if a == nil || storage == nil {
		return a
	}
	blob, err := storage.Get(objectID)
	if err != nil || len(blob) < 8 {
		return a
	}
	return a.AtEpoch(binary.LittleEndian.Uint64(blob))
}

// UUID implements optee.TA.
func (t *VoiceTA) UUID() string { return UUIDVoiceTA }

// ModelVersion returns the version of the model pack the TA holds.
func (t *VoiceTA) ModelVersion() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.modelVersion
}

// Open implements optee.TA. The TA is a single multi-session instance:
// the first session starts the capture stream through the PTA; further
// sessions (a management session attesting or updating the model while
// a processing session is live) share the running instance, and capture
// stops only when the last session closes. The refcount slot is
// reserved before the side effects, so an interleaved Close of another
// session can never observe a zero count while this one is opening.
// Classifier unsealing is deferred to first classify
// (loadedClassifier), keeping management sessions lightweight.
func (t *VoiceTA) Open(sessionID uint32) error {
	t.mu.Lock()
	t.opens++
	first := t.opens == 1
	t.mu.Unlock()
	if first {
		if err := t.cfg.TEE.InvokeSecure(UUIDDriverPTA, CmdPTAStart, nil); err != nil {
			t.mu.Lock()
			t.opens--
			t.mu.Unlock()
			return fmt.Errorf("voice ta pta start: %w", err)
		}
	}
	return nil
}

// buildClassifier reconstructs the classifier skeleton for a model seed
// and restores the given serialized weights into it.
func (t *VoiceTA) buildClassifier(seed uint64, blob []byte) (*classify.Classifier, error) {
	rng := NewRNG(seed, seed^SaltClassifier)
	clf, err := classify.NewText(t.cfg.Arch, rng, t.cfg.VocabSize, 12)
	if err != nil {
		return nil, err
	}
	if err := clf.LoadWeights(blob); err != nil {
		return nil, fmt.Errorf("voice ta weights: %w", err)
	}
	return clf, nil
}

// Close implements optee.TA: the last session stops the capture stream.
func (t *VoiceTA) Close(sessionID uint32) {
	t.mu.Lock()
	if t.opens > 0 {
		t.opens--
	}
	last := t.opens == 0
	t.mu.Unlock()
	if last {
		_ = t.cfg.TEE.InvokeSecure(UUIDDriverPTA, CmdPTAStop, nil)
	}
}

// Invoke implements optee.TA.
func (t *VoiceTA) Invoke(sessionID uint32, cmd uint32, params *optee.Params) error {
	switch cmd {
	case CmdProcessUtterance:
		if params[0].Type != optee.ValueIn {
			return fmt.Errorf("%w: CmdProcessUtterance needs ValueIn bytes", optee.ErrBadParam)
		}
		if err := checkGroupBytes(params[0].A); err != nil {
			return err
		}
		recs, err := t.processBatch([]int{int(params[0].A)})
		if err != nil {
			return err
		}
		tally(recs, &params[1])
		return nil
	case CmdProcessBatch:
		lengths, err := decodeLengths(params[0])
		if err != nil {
			return fmt.Errorf("CmdProcessBatch: %w", err)
		}
		recs, err := t.processBatch(lengths)
		if err != nil {
			return err
		}
		tally(recs, &params[1])
		return nil
	case CmdAttest:
		if params[0].Type != optee.MemrefIn || len(params[0].Buf) != len(attest.Nonce{}) {
			return fmt.Errorf("%w: CmdAttest needs a %d-byte MemrefIn nonce", optee.ErrBadParam, len(attest.Nonce{}))
		}
		if params[1].Type != optee.MemrefOut || params[1].Buf == nil {
			return fmt.Errorf("%w: CmdAttest needs a MemrefOut report buffer", optee.ErrBadParam)
		}
		var nonce attest.Nonce
		copy(nonce[:], params[0].Buf)
		rep, err := t.attestReport(nonce)
		if err != nil {
			return err
		}
		blob := rep.Marshal()
		if len(params[1].Buf) < len(blob) {
			return fmt.Errorf("%w: report buffer %d < %d", optee.ErrBadParam, len(params[1].Buf), len(blob))
		}
		copy(params[1].Buf, blob)
		params[2].Type = optee.ValueOut
		params[2].A = uint64(len(blob))
		return nil
	case CmdUpdateModel:
		if params[0].Type != optee.MemrefIn || len(params[0].Buf) == 0 {
			return fmt.Errorf("%w: CmdUpdateModel needs a MemrefIn pack", optee.ErrBadParam)
		}
		if params[1].Type != optee.MemrefIn || len(params[1].Buf) == 0 {
			return fmt.Errorf("%w: CmdUpdateModel needs a MemrefIn manifest", optee.ErrBadParam)
		}
		version, err := t.updateModel(params[0].Buf, params[1].Buf)
		if err != nil {
			return err
		}
		params[2].Type = optee.ValueOut
		params[2].A = version
		return nil
	case CmdTranscribeBatch:
		lengths, err := decodeLengths(params[0])
		if err != nil {
			return fmt.Errorf("CmdTranscribeBatch: %w", err)
		}
		if err := t.transcribeBatch(lengths); err != nil {
			return err
		}
		params[1].Type = optee.ValueOut
		params[1].A = uint64(len(lengths))
		return nil
	case CmdResumeBatch:
		if params[0].Type != optee.MemrefIn || len(params[0].Buf) == 0 || len(params[0].Buf)%5 != 0 {
			return fmt.Errorf("%w: CmdResumeBatch needs MemrefIn of 5-byte verdicts", optee.ErrBadParam)
		}
		if params[1].Type != optee.ValueIn {
			return fmt.Errorf("%w: CmdResumeBatch needs ValueIn wait cycles", optee.ErrBadParam)
		}
		recs, err := t.resumeBatch(params[0].Buf, tz.Cycles(params[1].A))
		if err != nil {
			return err
		}
		tally(recs, &params[2])
		return nil
	case CmdResumeBatchHE:
		if params[0].Type != optee.MemrefIn || len(params[0].Buf) == 0 {
			return fmt.Errorf("%w: CmdResumeBatchHE needs MemrefIn ciphertext blobs", optee.ErrBadParam)
		}
		blobs, err := splitLengthPrefixed(params[0].Buf)
		if err != nil {
			return fmt.Errorf("%w: CmdResumeBatchHE: %v", optee.ErrBadParam, err)
		}
		recs, err := t.resumeBatchHE(blobs)
		if err != nil {
			return err
		}
		tally(recs, &params[1])
		return nil
	case CmdRotateKey:
		if params[0].Type != optee.MemrefIn || len(params[0].Buf) == 0 {
			return fmt.Errorf("%w: CmdRotateKey needs a MemrefIn token", optee.ErrBadParam)
		}
		epoch, err := t.rotateKey(params[0].Buf)
		if err != nil {
			return err
		}
		params[1].Type = optee.ValueOut
		params[1].A = epoch
		return nil
	default:
		return fmt.Errorf("%w: ta cmd %#x", optee.ErrBadParam, cmd)
	}
}

// checkGroupBytes bounds one group's total wire bytes by the controller
// FIFO. The normal world pumps a whole group into the FIFO before the TA
// drains it, so a larger group cannot be captured; it is rejected before
// capture reserves a buffer for it.
func checkGroupBytes(total uint64) error {
	if total > ControllerFIFOBytes {
		return fmt.Errorf("%w: group of %d wire bytes exceeds the %d-byte controller FIFO",
			optee.ErrBadParam, total, ControllerFIFOBytes)
	}
	return nil
}

// decodeLengths parses a group's MemrefIn table of little-endian uint32
// utterance byte lengths.
func decodeLengths(p optee.Param) ([]int, error) {
	if p.Type != optee.MemrefIn || len(p.Buf) == 0 || len(p.Buf)%4 != 0 {
		return nil, fmt.Errorf("%w: needs MemrefIn of uint32 lengths", optee.ErrBadParam)
	}
	if n := len(p.Buf) / 4; n > MaxBatch {
		return nil, fmt.Errorf("%w: batch of %d exceeds MaxBatch %d", optee.ErrBadParam, n, MaxBatch)
	}
	lengths := make([]int, len(p.Buf)/4)
	var total uint64
	for i := range lengths {
		lengths[i] = int(binary.LittleEndian.Uint32(p.Buf[4*i:]))
		total += uint64(lengths[i])
	}
	if err := checkGroupBytes(total); err != nil {
		return nil, err
	}
	return lengths, nil
}

// tally writes a processed group's outcome to the caller's ValueOut
// slot: A = forwarded count, B = total redacted tokens.
func tally(recs []ProcessedUtterance, out *optee.Param) {
	*out = optee.Param{Type: optee.ValueOut}
	for _, rec := range recs {
		if rec.Forwarded {
			out.A++
		}
		out.B += uint64(rec.Redacted)
	}
}

// attestReport signs the TA's current measurement — its code digest and
// the model-pack version it holds — over the verifier's challenge. The
// attestor pointer is read under the TA lock: a concurrent CmdRotateKey
// swaps it, and a report must be signed entirely under one epoch key.
func (t *VoiceTA) attestReport(nonce attest.Nonce) (attest.Report, error) {
	t.mu.Lock()
	attestor := t.cfg.Attestor
	m := attest.Measurement{Code: VoiceTADigest, ModelVersion: t.modelVersion}
	t.mu.Unlock()
	if attestor == nil {
		return attest.Report{}, errors.New("voice ta: attestation not provisioned")
	}
	// HMAC evidence over the measurement (~1k cycles of SHA-256 on a
	// NEON-class core, rounded up for the report assembly).
	t.cfg.Clock.Advance(2000)
	return attestor.Attest(nonce, m), nil
}

// KeyEpoch returns the key epoch the TA currently signs evidence under.
func (t *VoiceTA) KeyEpoch() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.cfg.Attestor == nil {
		return 0
	}
	return t.cfg.Attestor.Epoch()
}

// rotateKey redeems a key-rotation token: the token must verify under
// the TA's current attestation key and advance the epoch by exactly one.
// The epoch record is sealed to secure storage next to current-weights —
// a TA restart resumes signing at the rotated epoch — and the signer is
// swapped under the TA lock, so a concurrent attestReport signs either
// wholly under the old epoch (honored by the verifier's grace window) or
// wholly under the new one; in-flight work is never disturbed.
func (t *VoiceTA) rotateKey(tokenBytes []byte) (uint64, error) {
	tok, err := attest.UnmarshalRotationToken(tokenBytes)
	if err != nil {
		return 0, fmt.Errorf("voice ta rotate: %w", err)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.cfg.Attestor == nil {
		return 0, errors.New("voice ta: attestation not provisioned")
	}
	next, err := t.cfg.Attestor.Rotated(tok)
	if err != nil {
		return 0, fmt.Errorf("voice ta rotate: %w", err)
	}
	var rec [8]byte
	binary.LittleEndian.PutUint64(rec[:], next.Epoch())
	t.cfg.Storage.Put(keyEpochObjectID, rec[:])
	// MAC verification plus one HMAC key derivation; see attestReport.
	t.cfg.Clock.Advance(4000)
	t.cfg.Attestor = next
	return next.Epoch(), nil
}

// updateModel is the online-rollout sink: it authenticates a published
// model pack against the per-device manifest, persists it through sealed
// storage, and hot-swaps the live classifier. Swapping happens under the
// TA lock while in-flight batches keep the classifier pointer they read
// at classify time, so no batch is dropped or torn mid-run.
func (t *VoiceTA) updateModel(packBytes, tokenBytes []byte) (uint64, error) {
	if t.cfg.Attestor == nil {
		return 0, errors.New("voice ta: attestation not provisioned")
	}
	pack, err := attest.DecodePack(packBytes)
	if err != nil {
		return 0, fmt.Errorf("voice ta update: %w", err)
	}
	tok, err := attest.UnmarshalManifestToken(tokenBytes)
	if err != nil {
		return 0, fmt.Errorf("voice ta update: %w", err)
	}
	if err := t.cfg.Attestor.VerifyManifest(tok, pack); err != nil {
		return 0, fmt.Errorf("voice ta update: %w", err)
	}
	// With a shared classify service wired, the device never runs the
	// pack's weights itself — the scheduler's per-version classifier
	// does — so the per-device rebuild is skipped. The pack is still
	// verified, sealed, and version-advanced below.
	t.mu.Lock()
	shared := t.remote != nil
	t.mu.Unlock()
	var clf *classify.Classifier
	if t.cfg.Filter && !shared {
		if clf, err = t.buildClassifier(pack.ModelSeed, pack.Text); err != nil {
			return 0, fmt.Errorf("voice ta update: %w", err)
		}
	}
	// Version check and install form one critical section, so two
	// concurrent updates cannot interleave into a downgrade: the loser
	// of the race re-checks against the winner's installed version.
	t.mu.Lock()
	defer t.mu.Unlock()
	if pack.Version == t.modelVersion {
		return t.modelVersion, nil // idempotent re-delivery
	}
	if pack.Version < t.modelVersion {
		return 0, fmt.Errorf("voice ta update: %w: pack v%d older than installed v%d",
			attest.ErrBadPack, pack.Version, t.modelVersion)
	}
	// Persist through sealed storage: the versioned pack for provenance,
	// and the current-weights object the next unseal picks up.
	t.cfg.Storage.Put(packObjectID(pack.Version), packBytes)
	if t.cfg.Filter {
		t.cfg.Storage.Put(weightsObjectID, pack.Text)
		if clf != nil {
			t.classifier = clf
		}
	}
	// Charge the copy+seal of the pack through the TEE.
	t.cfg.Clock.Advance(tz.Cycles(len(packBytes)) * t.cfg.Cost.CopyPerByte)
	t.modelVersion = pack.Version
	t.modelSeed = pack.ModelSeed
	return pack.Version, nil
}

// taScratch is the reusable buffer set for one in-flight TA invocation:
// capture accumulation, the PTA read chunk, and the decode pipeline's
// sample buffers. Pooled so the batched path (CmdProcessBatch) processes
// every queued utterance without per-item heap allocation, whichever TA
// instance (device) is running — the pool is package-level because fleet
// devices process in bounded worker pools, so a handful of scratch sets
// serves thousands of devices.
type taScratch struct {
	pcmBytes []byte
	chunk    []byte
	samples  []int32
	floats   []float64
}

var taScratchPool = sync.Pool{
	New: func() any { return &taScratch{chunk: make([]byte, 4096)} },
}

// captureStage pulls wantBytes of wire audio through the PTA into
// TA-private buffers (Fig. 1 step 4). The returned slice belongs to the
// scratch set and is valid until the scratch is released.
func (t *VoiceTA) captureStage(sc *taScratch, wantBytes int) ([]byte, error) {
	if cap(sc.pcmBytes) < wantBytes {
		sc.pcmBytes = make([]byte, 0, wantBytes)
	}
	pcmBytes := sc.pcmBytes[:0]
	idle := 0
	for len(pcmBytes) < wantBytes {
		p := &optee.Params{
			{Type: optee.MemrefOut, Buf: sc.chunk[:min(len(sc.chunk), wantBytes-len(pcmBytes))]},
			{},
		}
		if err := t.cfg.TEE.InvokeSecure(UUIDDriverPTA, CmdPTARead, p); err != nil {
			return nil, fmt.Errorf("voice ta pta read: %w", err)
		}
		n := int(p[1].A)
		if n == 0 {
			idle++
			if idle > 1000 {
				return nil, fmt.Errorf("voice ta: capture stalled at %d/%d bytes", len(pcmBytes), wantBytes)
			}
			continue
		}
		idle = 0
		pcmBytes = append(pcmBytes, p[0].Buf[:n]...)
	}
	sc.pcmBytes = pcmBytes
	return pcmBytes, nil
}

// transcribeStage decodes the wire bytes and runs the in-TEE recognizer
// (Fig. 1 step 5). The recognizer's arithmetic is charged as the MFCC
// front end (FFT + filterbank + DCT per 10 ms hop, ~6k cycles/frame on a
// NEON-class core) plus template matching.
func (t *VoiceTA) transcribeStage(sc *taScratch, pcmBytes []byte) ([]string, error) {
	samples, err := i2s.DecodeFramesInto(sc.samples, pcmBytes, i2s.DefaultFormat())
	if err != nil {
		return nil, fmt.Errorf("voice ta decode: %w", err)
	}
	sc.samples = samples
	if cap(sc.floats) < len(samples) {
		sc.floats = make([]float64, len(samples))
	}
	floats := sc.floats[:len(samples)]
	for i, s := range samples {
		// int16 truncation then the FromInt16 scaling of the historical
		// decode path, fused into one pass over pooled scratch.
		floats[i] = float64(int16(s)) / 32768
	}
	pcm := audio.PCM{Rate: 16000, Samples: floats}
	words, err := t.cfg.Recognizer.TranscribeWords(pcm)
	if err != nil {
		return nil, fmt.Errorf("voice ta asr: %w", err)
	}
	frames := len(pcm.Samples) / 160
	t.cfg.Clock.Advance(tz.Cycles(frames)*6000 + tz.Cycles(t.cfg.Recognizer.MemoryBytes()/8))
	return words, nil
}

// loadedClassifier returns the live classifier, unsealing it from
// secure storage on first use (an installed rollout pack takes
// precedence: updateModel swaps the pointer directly).
func (t *VoiceTA) loadedClassifier() (*classify.Classifier, error) {
	t.mu.Lock()
	clf := t.classifier
	seed := t.modelSeed
	t.mu.Unlock()
	if clf != nil {
		return clf, nil
	}
	if !t.cfg.Filter {
		return nil, errors.New("voice ta: classifier disabled (no-filter mode)")
	}
	blob, err := t.cfg.Storage.Get(weightsObjectID)
	if err != nil {
		return nil, fmt.Errorf("voice ta weights: %w", err)
	}
	built, err := t.buildClassifier(seed, blob)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	if t.classifier == nil {
		t.classifier = built
	}
	clf = t.classifier
	t.mu.Unlock()
	return clf, nil
}

// classifyStage is the inline classify step: one forward pass over the
// group's transcripts, its cost attributed evenly across the records. On
// the local path the pass runs over the device's own queue, charged at 4
// MACs/cycle (NEON-class SIMD) per sample; with a shared classify
// service wired, the encoded tokens ride a cross-device batch and the
// device is charged the scheduler's queue wait plus its share of the
// shared pass instead.
func (t *VoiceTA) classifyStage(recs []ProcessedUtterance) error {
	clock := t.cfg.Clock
	start := clock.Now()
	t.mu.Lock()
	remote, device, version := t.remote, t.remoteDevice, t.modelVersion
	t.mu.Unlock()
	if remote != nil {
		tokens := make([][]int, len(recs))
		for i := range recs {
			tokens[i] = t.cfg.Vocab.Encode(recs[i].Transcript)
		}
		resp, err := remote.ClassifyBatch(ClassifyRequest{
			DeviceID:     device,
			ModelVersion: version,
			Tokens:       tokens,
			Now:          clock.Now(),
		})
		if err != nil {
			return fmt.Errorf("voice ta classify (shared): %w", err)
		}
		if len(resp.Flagged) != len(recs) {
			return fmt.Errorf("voice ta classify (shared): %d flags for %d transcripts",
				len(resp.Flagged), len(recs))
		}
		clock.Advance(resp.Wait)
		for i := range recs {
			recs[i].Flagged = resp.Flagged[i]
			recs[i].ClassifyBatch = resp.Occupancy
		}
	} else {
		clf, err := t.loadedClassifier()
		if err != nil {
			return err
		}
		batch := make([][]float32, len(recs))
		for i := range recs {
			batch[i] = clf.TokensToFeatures(t.cfg.Vocab.Encode(recs[i].Transcript))
		}
		classes, err := clf.PredictBatch(batch)
		if err != nil {
			return fmt.Errorf("voice ta classify: %w", err)
		}
		clock.Advance(tz.Cycles(clf.EstimateMACs() * len(batch) / 4))
		for i, cls := range classes {
			recs[i].Flagged = cls == 1
			recs[i].ClassifyBatch = len(batch)
		}
	}
	spent := clock.Now() - start
	for i := range recs {
		recs[i].Stages.Classify = spent / tz.Cycles(len(recs))
	}
	return nil
}

// relayStage applies the filter policy and, when forwarding, seals the
// event and relays it through the supplicant, verifying the cloud's
// sealed directive (Fig. 1 steps 6–7).
func (t *VoiceTA) relayStage(rec *ProcessedUtterance) error {
	policy := t.cfg.Policy
	if !t.cfg.Filter {
		policy = relay.PolicyPassThrough
	}
	result, err := relay.ApplyPolicy(policy, rec.Flagged, rec.Transcript)
	if err != nil {
		return err
	}
	rec.Forwarded = result.Forward
	rec.Redacted = result.Redacted
	if !result.Forward {
		return nil
	}
	t.mu.Lock()
	t.messageID++
	mid := t.messageID
	t.mu.Unlock()
	payload, err := relay.EncodeEvent(relay.Event{
		Namespace:  relay.NamespaceSpeech,
		Name:       relay.NameTranscript,
		MessageID:  mid,
		Transcript: result.Tokens,
		Redacted:   result.Redacted,
	})
	if err != nil {
		return err
	}
	sealed := t.channel.Seal(payload)
	rec.SealedSize = len(sealed)
	resp, err := t.cfg.TEE.RPC(optee.RPCRequest{
		Kind:    optee.RPCNetSend,
		Target:  CloudTarget,
		Payload: sealed,
	})
	if err != nil {
		// The frontend shed the frame under queue pressure: a retriable
		// network drop, not a session fault. There is no directive to
		// verify; the TA records the shed and moves on.
		if errors.Is(err, cloud.ErrShed) {
			rec.Shed = true
			return nil
		}
		// The retry layer exhausted its budget: the frame expired. Same
		// contract as a shed — emitted, paid for, explicitly not delivered.
		if errors.Is(err, cloud.ErrExpired) {
			rec.Expired = true
			return nil
		}
		return fmt.Errorf("voice ta relay: %w", err)
	}
	if _, err := t.channel.Open(resp.Payload); err != nil {
		return fmt.Errorf("voice ta directive: %w", err)
	}
	return nil
}

// captureGroup is the pipeline's first step (Fig. 1 steps 4–5): capture
// and transcribe each utterance of a group over one pooled scratch set,
// so a group does not allocate capture or decode buffers per item.
func (t *VoiceTA) captureGroup(lengths []int) ([]ProcessedUtterance, error) {
	clock := t.cfg.Clock
	recs := make([]ProcessedUtterance, len(lengths))
	sc := taScratchPool.Get().(*taScratch)
	defer taScratchPool.Put(sc)
	for i, wantBytes := range lengths {
		start := clock.Now()
		pcmBytes, err := t.captureStage(sc, wantBytes)
		if err != nil {
			return nil, fmt.Errorf("utterance %d: %w", i, err)
		}
		recs[i].Stages.Capture = clock.Now() - start

		start = clock.Now()
		words, err := t.transcribeStage(sc, pcmBytes)
		if err != nil {
			return nil, fmt.Errorf("utterance %d: %w", i, err)
		}
		recs[i].Transcript = words
		recs[i].Stages.Transcribe = clock.Now() - start
	}
	return recs, nil
}

// relayGroup is the pipeline's last step (Fig. 1 steps 6–7): apply the
// policy to each classified record, seal and relay survivors, and record
// the group as processed.
func (t *VoiceTA) relayGroup(recs []ProcessedUtterance) error {
	clock := t.cfg.Clock
	for i := range recs {
		start := clock.Now()
		if err := t.relayStage(&recs[i]); err != nil {
			return fmt.Errorf("utterance %d: %w", i, err)
		}
		recs[i].Stages.Relay = clock.Now() - start
	}
	t.mu.Lock()
	t.processed = append(t.processed, recs...)
	t.mu.Unlock()
	return nil
}

// processBatch runs a queue of utterances through the whole pipeline in
// one invocation: capture and transcribe each, classify them all in one
// batched forward pass, then relay the survivors. The caller paid one
// world-switch round trip for the whole group instead of one per
// utterance.
func (t *VoiceTA) processBatch(lengths []int) ([]ProcessedUtterance, error) {
	recs, err := t.captureGroup(lengths)
	if err != nil {
		return nil, err
	}
	if t.cfg.Filter {
		if err := t.classifyStage(recs); err != nil {
			return nil, err
		}
	}
	return recs, t.relayGroup(recs)
}

// transcribeBatch captures and transcribes a group and stages it with
// its encoded tokens for an external classification, leaving the
// invocation parked instead of running the filter inline. The split is
// what lets an event-driven caller release its executor while a
// cross-device flush forms.
func (t *VoiceTA) transcribeBatch(lengths []int) error {
	if !t.cfg.Filter {
		return errors.New("voice ta: staged transcribe requires the filter")
	}
	t.mu.Lock()
	busy := len(t.pendingRecs) > 0
	t.mu.Unlock()
	if busy {
		return errors.New("voice ta: staged batch already pending")
	}
	recs, err := t.captureGroup(lengths)
	if err != nil {
		return err
	}
	tokens := make([][]int, len(recs))
	for i := range recs {
		tokens[i] = t.cfg.Vocab.Encode(recs[i].Transcript)
	}
	t.mu.Lock()
	t.pendingRecs, t.pendingTokens = recs, tokens
	t.mu.Unlock()
	return nil
}

// takePending completes the staged group with n verdicts: classify fills
// in the records' verdicts, and only once it succeeds is the group
// released. A resume with the wrong verdict count, or one classify
// rejects, leaves the group staged for a well-formed retry.
func (t *VoiceTA) takePending(n int, classify func([]ProcessedUtterance) error) ([]ProcessedUtterance, error) {
	t.mu.Lock()
	recs := t.pendingRecs
	t.mu.Unlock()
	if len(recs) == 0 {
		return nil, errors.New("voice ta: no staged batch pending")
	}
	if n != len(recs) {
		return nil, fmt.Errorf("%w: resume carries %d verdicts for %d staged utterances",
			optee.ErrBadParam, n, len(recs))
	}
	if err := classify(recs); err != nil {
		return nil, err
	}
	t.mu.Lock()
	t.pendingRecs, t.pendingTokens = nil, nil
	t.mu.Unlock()
	return recs, nil
}

// resumeBatch completes a staged group with the shared classifier's
// verdicts, 5 bytes per item (flag byte + little-endian uint32 flush
// occupancy), and the virtual cycles the classification waited (the
// shared passes overlapped — the wait is when the last one returned).
// The wait is batch-level work, attributed evenly like the inline
// batched pass.
func (t *VoiceTA) resumeBatch(verdicts []byte, wait tz.Cycles) ([]ProcessedUtterance, error) {
	recs, err := t.takePending(len(verdicts)/5, func(recs []ProcessedUtterance) error {
		t.cfg.Clock.Advance(wait)
		for i := range recs {
			v := verdicts[5*i:]
			recs[i].Flagged = v[0] != 0
			recs[i].ClassifyBatch = int(binary.LittleEndian.Uint32(v[1:]))
			recs[i].Stages.Classify = wait / tz.Cycles(len(recs))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return recs, t.relayGroup(recs)
}

// packLengthPrefixed concatenates blobs as little-endian uint32 byte
// lengths followed by the bytes — the MemrefIn wire form of the HE
// handoff commands.
func packLengthPrefixed(blobs [][]byte) []byte {
	size := 0
	for _, b := range blobs {
		size += 4 + len(b)
	}
	out := make([]byte, 0, size)
	var hdr [4]byte
	for _, b := range blobs {
		binary.LittleEndian.PutUint32(hdr[:], uint32(len(b)))
		out = append(out, hdr[:]...)
		out = append(out, b...)
	}
	return out
}

// splitLengthPrefixed is the inverse of packLengthPrefixed.
func splitLengthPrefixed(buf []byte) ([][]byte, error) {
	var out [][]byte
	for len(buf) > 0 {
		if len(buf) < 4 {
			return nil, fmt.Errorf("truncated length prefix (%d bytes)", len(buf))
		}
		n := int(binary.LittleEndian.Uint32(buf))
		buf = buf[4:]
		if n <= 0 || n > len(buf) {
			return nil, fmt.Errorf("blob length %d of %d remaining", n, len(buf))
		}
		out = append(out, buf[:n])
		buf = buf[n:]
	}
	if len(out) == 0 {
		return nil, errors.New("no blobs")
	}
	return out, nil
}

// heDecryptState unseals the HE secret key and builds the in-TA
// evaluator. Both are cheap value types; the seal read is the
// expensive part and happens per handoff, mirroring how the weights
// object is the unit of sealed-storage traffic.
func (t *VoiceTA) heDecryptState() (he.SecretKey, *he.Evaluator, error) {
	if !t.cfg.Hybrid {
		return he.SecretKey{}, nil, errors.New("voice ta: HE handoff outside hybrid mode")
	}
	blob, err := t.cfg.Storage.Get(heSecretKeyID)
	if err != nil {
		return he.SecretKey{}, nil, fmt.Errorf("voice ta he key: %w", err)
	}
	sk, err := he.ParseSecretKey(blob)
	if err != nil {
		return he.SecretKey{}, nil, fmt.Errorf("voice ta he key: %w", err)
	}
	eval, err := he.NewEvaluator(t.cfg.HEParams, t.cfg.Clock, t.cfg.Cost)
	if err != nil {
		return he.SecretKey{}, nil, fmt.Errorf("voice ta he eval: %w", err)
	}
	return sk, eval, nil
}

// resumeBatchHE is the HE→TEE handoff: the back half of a staged batch
// where the classifier's first linear layer already ran homomorphically
// at the provider. The TA decrypts each provider-evaluated ciphertext
// under the sealed secret key, runs the non-linear tail (ReLU → pool →
// dense → argmax) inside the TEE, then relays survivors through the
// same policy/seal path as every other mode.
func (t *VoiceTA) resumeBatchHE(blobs [][]byte) ([]ProcessedUtterance, error) {
	recs, err := t.takePending(len(blobs), func(recs []ProcessedUtterance) error {
		return t.classifyHE(recs, blobs)
	})
	if err != nil {
		return nil, err
	}
	return recs, t.relayGroup(recs)
}

// classifyHE is the HE classify step: decrypt and tail-classify each
// record's ciphertext, attributing each item its own decrypt and tail.
func (t *VoiceTA) classifyHE(recs []ProcessedUtterance, blobs [][]byte) error {
	sk, eval, err := t.heDecryptState()
	if err != nil {
		return err
	}
	clf, err := t.loadedClassifier()
	if err != nil {
		return err
	}
	split, err := classify.SplitText(clf)
	if err != nil {
		return fmt.Errorf("voice ta he split: %w", err)
	}
	clock := t.cfg.Clock
	tailMACs := 2 * layers.ParamCount([]layers.Layer{split.Tail})
	for i := range recs {
		start := clock.Now()
		ct, err := eval.Unmarshal(blobs[i])
		if err != nil {
			return fmt.Errorf("staged utterance %d: %w", i, err)
		}
		data, shape, err := eval.Decrypt(sk, ct)
		if err != nil {
			return fmt.Errorf("staged utterance %d: %w", i, err)
		}
		cls, err := split.TailPredict(data, shape)
		if err != nil {
			return fmt.Errorf("staged utterance %d: %w", i, err)
		}
		// The tail forward runs at the same 4 MACs/cycle as the inline
		// classify path; the decrypt was charged by the evaluator.
		clock.Advance(tz.Cycles(tailMACs / 4))
		recs[i].Flagged = cls == 1
		recs[i].ClassifyBatch = len(recs)
		recs[i].Stages.Classify = clock.Now() - start
	}
	return nil
}

// PendingTokens returns copies of the encoded token sequences staged by
// CmdTranscribeBatch and awaiting classification (empty when nothing is
// pending). Token IDs are exactly what classifyStage submits to a shared
// classify service — vocabulary-clamped in the TA, never transcript
// words — so handing them to the scheduler keeps the trust boundary.
func (t *VoiceTA) PendingTokens() [][]int {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([][]int, len(t.pendingTokens))
	for i, seq := range t.pendingTokens {
		out[i] = append([]int(nil), seq...)
	}
	return out
}

// Processed returns the TA's per-utterance records (trusted-side
// instrumentation for the experiments).
func (t *VoiceTA) Processed() []ProcessedUtterance {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]ProcessedUtterance(nil), t.processed...)
}

// ResetProcessed clears the records between runs.
func (t *VoiceTA) ResetProcessed() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.processed = nil
}
