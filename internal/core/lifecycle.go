package core

// One TA lifecycle and one group pipeline for the one device TA.
// Attestation, key rotation, model update, sealed-weights unsealing and
// the HE tail step are one component (taLifecycle); the classify and
// relay steps, the sealed channel to the cloud and the record log another
// (taPipeline); DeviceTA embeds both, and one normal-world management
// client (taClient) lives in the device shell. A speaker's TA and a
// doorbell's differ only in their taProfile: identity, sealed storage,
// key derivation and the peripheral's stages.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/asr"
	"repro/internal/attest"
	"repro/internal/cloud"
	"repro/internal/he"
	"repro/internal/ml/classify"
	"repro/internal/ml/layers"
	"repro/internal/obs"
	"repro/internal/optee"
	"repro/internal/relay"
	"repro/internal/sensitive"
	"repro/internal/teec"
	"repro/internal/tz"
)

// taProfile is what tells a speaker's device TA from a doorbell's.
type taProfile struct {
	name string // error prefix
	uuid string
	code attest.Digest // measured code identity
	// Sealed-storage objects: the current classifier weights, the
	// key-epoch record, the HE secret key (ModeHybridHE), and the prefix
	// of a provisioned model pack's versioned object.
	weightsID, keyEpochID, heKeyID, packPrefix string
	// image marks a TA whose pack weights are Pack.Image (else Pack.Text).
	image bool
	// Key derivation: huk formats the device's hardware-unique key from
	// its seed, and the cloud and TA relay identities are drawn from the
	// stream NewSeedReader(seed^keySalt, seed+keyStream).
	huk                string
	keySalt, keyStream uint64
	// streamPTA is the PTA whose capture stream runs while any session
	// to the TA is open, started with CmdPTAStart by the first session
	// and stopped with CmdPTAStop by the last ("" for a peripheral that
	// captures on demand, whose session opens cost nothing).
	streamPTA string
	stages    *taStages
}

func newTAProfile(name, prefix, uuid string, image bool, huk string, keySalt, keyStream uint64, streamPTA string, stages *taStages) *taProfile {
	return &taProfile{
		name: name, uuid: uuid, code: attest.MeasureCode("periguard", uuid),
		weightsID:  prefix + "/classifier-weights",
		keyEpochID: prefix + "/key-epoch",
		heKeyID:    prefix + "/he-secret-key",
		packPrefix: prefix + "/model-pack-v",
		image:      image,
		huk:        huk, keySalt: keySalt, keyStream: keyStream,
		streamPTA: streamPTA, stages: stages,
	}
}

var (
	voiceProfile = newTAProfile("voice ta", "voice-ta", UUIDVoiceTA, false, "device-huk-%d", 0xc10d, 77,
		UUIDDriverPTA, &voiceStages)
	cameraProfile = newTAProfile("camera ta", "camera-ta", UUIDDoorbellTA, true, "device-huk-cam-%d", 0xcafe, 3,
		"", &frameStages)
)

// packID is the secure-storage id of the provisioned pack of a version.
func (p *taProfile) packID(version uint64) string {
	return fmt.Sprintf("%s%d", p.packPrefix, version)
}

// TAConfig wires the device TA: the TEE it runs in, its sealed storage,
// the virtual clock and cost model, the lifecycle's boot state, its
// relay identity and, on a speaker, the speech pipeline.
type TAConfig struct {
	TEE     *optee.OS
	Storage *optee.Storage
	Clock   *tz.Clock
	Cost    tz.CostModel
	// Attestor signs measurement reports with the device's attestation
	// key (nil outside attested fleets); ModelVersion is the provisioned
	// model-pack version the TA boots with.
	Attestor     *attest.Attestor
	ModelVersion uint64
	// Hybrid marks the HE+TEE split-inference deployment: the TA accepts
	// the HE handoff, decrypting under the sealed secret key and running
	// the classifier tail in the TEE. HEParams is the leveled-HE
	// parameter set the fleet's key pair uses.
	Hybrid   bool
	HEParams he.Params
	// Identity is the TA's relay identity and CloudPub the cloud key its
	// sealed channel is keyed to.
	Identity *relay.Identity
	CloudPub []byte
	// Filter runs the classify stage (false only on a secure-nofilter
	// speaker, which seals no weights and builds no classifier).
	Filter bool
	// sharedClassify marks a TA whose classify stage runs in a shared
	// cross-device scheduler (Config.SharedClassify): verdicts arrive
	// through CmdResumeBatch, and no per-device classifier is built.
	sharedClassify bool

	// The speaker's speech stages: the in-TEE recognizer, the text
	// classifier's vocabulary and the relay policy.
	Recognizer *asr.Session
	Vocab      *sensitive.Vocabulary
	Policy     relay.Policy
}

// taLifecycle is the attestation, key-rotation, model-update and
// sealed-weights core of a device TA. A TA embeds it by value, so the
// lifecycle costs a device build no allocation.
type taLifecycle struct {
	profile *taProfile
	cfg     *TAConfig // the embedding TA's

	// mu guards the swappable state below; it is the lifecycle's own
	// lock, separate from the embedding TA's.
	mu           sync.Mutex
	attestor     *attest.Attestor
	classifier   *classify.Classifier // nil until first unseal or update
	modelVersion uint64
}

// initLifecycle fills the lifecycle from the TA's config. A sealed
// key-epoch record left by an earlier instance's rotation is restored,
// so a TA restart resumes signing at the rotated epoch instead of
// falling back to the provisioning key.
func (l *taLifecycle) initLifecycle(p *taProfile, cfg *TAConfig) {
	l.profile, l.cfg = p, cfg
	l.attestor = cfg.Attestor
	if l.attestor != nil {
		if blob, err := cfg.Storage.Get(p.keyEpochID); err == nil && len(blob) >= 8 {
			l.attestor = l.attestor.AtEpoch(binary.LittleEndian.Uint64(blob))
		}
	}
	l.modelVersion = cfg.ModelVersion
}

// unprovisioned is the rejection of a lifecycle command on a TA with no
// attestation key.
func (l *taLifecycle) unprovisioned() error {
	return fmt.Errorf("%w: %s attestation not provisioned", optee.ErrBadState, l.profile.name)
}

// rejected wraps a content rejection in ErrBadParam, keeping the attest
// cause reachable through errors.Is.
func (l *taLifecycle) rejected(op string, err error) error {
	return fmt.Errorf("%w: %s %s: %w", optee.ErrBadParam, l.profile.name, op, err)
}

// invokeLifecycle serves the three lifecycle commands; any other command
// is rejected.
func (l *taLifecycle) invokeLifecycle(cmd uint32, params *optee.Params) error {
	name := l.profile.name
	switch cmd {
	case CmdAttest:
		if params[0].Type != optee.MemrefIn || len(params[0].Buf) != len(attest.Nonce{}) {
			return fmt.Errorf("%w: %s attest needs a %d-byte MemrefIn nonce", optee.ErrBadParam, name, len(attest.Nonce{}))
		}
		if params[1].Type != optee.MemrefOut || params[1].Buf == nil {
			return fmt.Errorf("%w: %s attest needs a MemrefOut report buffer", optee.ErrBadParam, name)
		}
		rep, err := l.attestReport(attest.Nonce(params[0].Buf))
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
			return fmt.Errorf("%w: %s update needs a MemrefIn pack", optee.ErrBadParam, name)
		}
		if params[1].Type != optee.MemrefIn || len(params[1].Buf) == 0 {
			return fmt.Errorf("%w: %s update needs a MemrefIn manifest", optee.ErrBadParam, name)
		}
		version, err := l.updateModel(params[0].Buf, params[1].Buf)
		if err != nil {
			return err
		}
		params[2].Type = optee.ValueOut
		params[2].A = version
		return nil
	case CmdRotateKey:
		if params[0].Type != optee.MemrefIn || len(params[0].Buf) == 0 {
			return fmt.Errorf("%w: %s rotate needs a MemrefIn token", optee.ErrBadParam, name)
		}
		epoch, err := l.rotateKey(params[0].Buf)
		if err != nil {
			return err
		}
		params[1].Type = optee.ValueOut
		params[1].A = epoch
		return nil
	default:
		return fmt.Errorf("%w: %s cmd %#x", optee.ErrBadParam, name, cmd)
	}
}

// UUID implements optee.TA.
func (l *taLifecycle) UUID() string { return l.profile.uuid }

// ModelVersion returns the version of the model pack the TA holds.
func (l *taLifecycle) ModelVersion() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.modelVersion
}

// KeyEpoch returns the key epoch the TA currently signs evidence under.
func (l *taLifecycle) KeyEpoch() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.attestor == nil {
		return 0
	}
	return l.attestor.Epoch()
}

// attestReport signs the TA's current measurement — its code digest and
// the model-pack version it holds — over the verifier's challenge. The
// attestor is read under the lock: a concurrent rotation swaps it, and a
// report must be signed entirely under one epoch key.
func (l *taLifecycle) attestReport(nonce attest.Nonce) (attest.Report, error) {
	l.mu.Lock()
	attestor := l.attestor
	m := attest.Measurement{Code: l.profile.code, ModelVersion: l.modelVersion}
	l.mu.Unlock()
	if attestor == nil {
		return attest.Report{}, l.unprovisioned()
	}
	// HMAC evidence over the measurement (~1k cycles of SHA-256 on a
	// NEON-class core, rounded up for the report assembly).
	l.cfg.Clock.Advance(2000)
	return attestor.Attest(nonce, m), nil
}

// rotateKey redeems a key-rotation token: the token must verify under
// the TA's current attestation key and advance the epoch by exactly one.
// The epoch record is sealed to secure storage next to current-weights —
// a TA restart resumes signing at the rotated epoch — and the signer is
// swapped under the lock, so a concurrent attestReport signs either
// wholly under the old epoch (honored by the verifier's grace window) or
// wholly under the new one; in-flight work is never disturbed.
func (l *taLifecycle) rotateKey(tokenBytes []byte) (uint64, error) {
	tok, err := attest.UnmarshalRotationToken(tokenBytes)
	if err != nil {
		return 0, l.rejected("rotate", err)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.attestor == nil {
		return 0, l.unprovisioned()
	}
	next, err := l.attestor.Rotated(tok)
	if err != nil {
		return 0, l.rejected("rotate", err)
	}
	var rec [8]byte
	binary.LittleEndian.PutUint64(rec[:], next.Epoch())
	l.cfg.Storage.Put(l.profile.keyEpochID, rec[:])
	// MAC verification plus one HMAC key derivation; see attestReport.
	l.cfg.Clock.Advance(4000)
	l.attestor = next
	return next.Epoch(), nil
}

// updateModel is the online-rollout sink: it authenticates a published
// model pack against the per-device manifest, persists it through sealed
// storage, and hot-swaps the live classifier. Swapping happens under the
// lock while in-flight work keeps the classifier pointer it read, so no
// batch or frame is dropped or torn mid-run.
func (l *taLifecycle) updateModel(packBytes, tokenBytes []byte) (uint64, error) {
	l.mu.Lock()
	attestor := l.attestor
	l.mu.Unlock()
	if attestor == nil {
		return 0, l.unprovisioned()
	}
	pack, err := attest.DecodePack(packBytes)
	if err != nil {
		return 0, l.rejected("update", err)
	}
	tok, err := attest.UnmarshalManifestToken(tokenBytes)
	if err != nil {
		return 0, l.rejected("update", err)
	}
	if err := attestor.VerifyManifest(tok, pack); err != nil {
		return 0, l.rejected("update", err)
	}
	weights := pack.Text
	if l.profile.image {
		weights = pack.Image
	}
	// A TA with no per-device classifier rebuilds nothing; a shared
	// classify stage runs the pack's weights in the scheduler instead.
	// The pack is still verified, sealed and version-advanced below.
	var clf *classify.Classifier
	if l.buildsClassifier() {
		if clf, err = l.profile.stages.loadClassifier(l.cfg, weights); err != nil {
			return 0, l.rejected("update", err)
		}
	}
	// Version check and install form one critical section, so two
	// concurrent updates cannot interleave into a downgrade: the loser
	// of the race re-checks against the winner's installed version.
	l.mu.Lock()
	defer l.mu.Unlock()
	if pack.Version == l.modelVersion {
		return l.modelVersion, nil // idempotent re-delivery
	}
	if pack.Version < l.modelVersion {
		return 0, l.rejected("update", fmt.Errorf("%w: pack v%d older than installed v%d",
			attest.ErrBadPack, pack.Version, l.modelVersion))
	}
	// Persist through sealed storage: the versioned pack for provenance,
	// and the current-weights object the next unseal picks up.
	l.cfg.Storage.Put(l.profile.packID(pack.Version), packBytes)
	if l.cfg.Filter {
		l.cfg.Storage.Put(l.profile.weightsID, weights)
	}
	if clf != nil {
		l.classifier = clf
	}
	// Charge the copy+seal of the pack through the TEE.
	l.cfg.Clock.Advance(tz.Cycles(len(packBytes)) * l.cfg.Cost.CopyPerByte)
	l.modelVersion = pack.Version
	return pack.Version, nil
}

// buildsClassifier reports whether the TA runs a per-device classifier:
// a no-filter speaker runs none, nor does one whose classify stage is
// shared. Such a TA's loadedClassifier is ErrBadState, and its updates
// rebuild nothing.
func (l *taLifecycle) buildsClassifier() bool { return l.cfg.Filter && !l.cfg.sharedClassify }

// loadedClassifier returns the live classifier, unsealing it from secure
// storage on first use (an installed rollout pack takes precedence:
// updateModel swaps the pointer directly). Deferring the unseal to first
// use keeps management sessions lightweight.
func (l *taLifecycle) loadedClassifier() (*classify.Classifier, error) {
	if !l.buildsClassifier() {
		return nil, fmt.Errorf("%w: %s runs no per-device classifier", optee.ErrBadState, l.profile.name)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.classifier == nil {
		blob, err := l.cfg.Storage.Get(l.profile.weightsID)
		if err == nil {
			l.classifier, err = l.profile.stages.loadClassifier(l.cfg, blob)
		}
		if err != nil {
			return nil, fmt.Errorf("%s weights: %w", l.profile.name, err)
		}
	}
	return l.classifier, nil
}

// heTail is one HE→TEE handoff's in-TA state: the unsealed secret key,
// the in-TA evaluator and the live classifier's non-linear tail.
type heTail struct {
	name  string
	clock *tz.Clock
	sk    he.SecretKey
	eval  he.Evaluator
	tail  *layers.Sequential
	macs  int
}

// heHandoff unseals the HE secret key, builds the in-TA evaluator and
// splits the live classifier's tail for one handoff command. The seal
// read happens per handoff, as the weights object is the unit of
// sealed-storage traffic.
func (l *taLifecycle) heHandoff() (heTail, error) {
	h := heTail{name: l.profile.name, clock: l.cfg.Clock}
	if !l.cfg.Hybrid {
		return h, fmt.Errorf("%w: %s HE handoff outside hybrid mode", optee.ErrBadState, h.name)
	}
	blob, err := l.cfg.Storage.Get(l.profile.heKeyID)
	if err != nil {
		return h, fmt.Errorf("%s he key: %w", h.name, err)
	}
	if h.sk, err = he.ParseSecretKey(blob); err != nil {
		return h, fmt.Errorf("%s he key: %w", h.name, err)
	}
	eval, err := he.NewEvaluator(l.cfg.HEParams, l.cfg.Clock, l.cfg.Cost)
	if err != nil {
		return h, fmt.Errorf("%s he eval: %w", h.name, err)
	}
	h.eval = *eval
	clf, err := l.loadedClassifier()
	if err != nil {
		return h, err
	}
	tail, err := classify.SplitTail(clf)
	if err != nil {
		return h, fmt.Errorf("%s he split: %w", h.name, err)
	}
	h.tail, h.macs = tail, 2*layers.ParamCount([]layers.Layer{tail})
	return h, nil
}

// classify is the HE tail step for one provider-evaluated ciphertext:
// decrypt it, run the tail and charge it at the inline path's 4
// MACs/cycle (the evaluator charged the decrypt). Every rejection of the
// ciphertext, which came from the normal world, wraps ErrBadParam.
func (h *heTail) classify(blob []byte) (flagged bool, err error) {
	ct, err := h.eval.Unmarshal(blob)
	if err != nil {
		return false, fmt.Errorf("%w: %s he: %w", optee.ErrBadParam, h.name, err)
	}
	data, shape, err := h.eval.Decrypt(h.sk, ct)
	if err != nil {
		return false, fmt.Errorf("%w: %s he: %w", optee.ErrBadParam, h.name, err)
	}
	cls, err := classify.PredictTail(h.tail, data, shape)
	if err != nil {
		return false, fmt.Errorf("%w: %s he tail: %w", optee.ErrBadParam, h.name, err)
	}
	h.clock.Advance(tz.Cycles(h.macs / 4))
	return cls == 1, nil
}

// RelayOutcome is what became of one item a device relayed.
type RelayOutcome struct {
	// Forwarded marks an item the device sent toward the cloud.
	Forwarded bool
	// Shed marks a forwarded item the ingest frontend dropped under
	// queue pressure (the relay saw cloud.ErrShed instead of a sealed
	// directive). It was emitted and cost-accounted; it simply never
	// reached the provider.
	Shed bool
	// Expired marks a forwarded item whose delivery retry budget ran out
	// (cloud.ErrExpired): the uplink retried deterministically and gave
	// up explicitly. Like Shed, it is an accounting outcome, never a
	// silent loss.
	Expired bool
	// SealedSize is the sealed event's size in bytes (0 when nothing was
	// sealed).
	SealedSize int
}

// admit records a delivery's outcome and returns any error other than a
// shed or an expiry, which are accounting outcomes, not faults.
func (o *RelayOutcome) admit(err error) error {
	o.Forwarded = true
	switch {
	case errors.Is(err, cloud.ErrShed):
		o.Shed = true
	case errors.Is(err, cloud.ErrExpired):
		o.Expired = true
	default:
		return err
	}
	return nil
}

// verdict is the terminal span verdict of a forwarded item.
func (o *RelayOutcome) verdict() obs.Verdict {
	switch {
	case o.Expired:
		return obs.VerdictExpired
	case o.Shed:
		return obs.VerdictShed
	}
	return obs.VerdictDelivered
}

// ItemRecord is what the device TA records of every item it processed,
// utterance or frame: the verdict, the relay outcome, the stage cycles,
// the captured bytes, the classify pass's occupancy and, for an
// utterance, what the TA heard. It never leaves the secure world;
// experiments read it as trusted instrumentation.
type ItemRecord struct {
	Flagged bool
	RelayOutcome
	Stages StageCycles
	// CaptureBytes is the payload the capture stage handed on: the frame
	// a camera grab copied out of its capture buffer. Audio is streamed
	// through the PTA in chunks and reports none.
	CaptureBytes int
	// ClassifyBatch is the occupancy of the forward pass that classified
	// this item: the group's length on the local path, or the
	// cross-device flush size when a shared scheduler classified it (0
	// when the filter did not run).
	ClassifyBatch int
	// Transcript is what the speaker's TA transcribed and Redacted the
	// tokens its policy removed; a frame leaves both empty.
	Transcript []string
	Redacted   int
}

// taPipeline is what the device TA runs a processing command through: a
// group of records goes through the inline or HE classify step and then
// the relay step, which seals survivors over the TA's channel to the
// cloud (Fig. 1 steps 6–7) and records the group in the TA's log.
type taPipeline struct {
	taRecords[ItemRecord]
	name      string
	cfg       *TAConfig // the embedding TA's
	channel   *relay.Channel
	messageID atomic.Uint64
}

// taRecords is a TA's log of processed items: trusted-side
// instrumentation the experiments read, never exposed through Invoke.
// Records are never modified once logged.
type taRecords[T any] struct {
	mu   sync.Mutex
	recs []T
}

func (r *taRecords[T]) record(items ...T) {
	r.mu.Lock()
	r.recs = append(r.recs, items...)
	r.mu.Unlock()
}

// Processed returns a copy of the TA's per-item records.
func (r *taRecords[T]) Processed() []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]T(nil), r.recs...)
}

// count returns how many items have been logged.
func (r *taRecords[T]) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.recs)
}

// since returns the items logged after the first n, without copying: the
// slice is capped, so a later append never writes into it.
func (r *taRecords[T]) since(n int) []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.recs[n:len(r.recs):len(r.recs)]
}

// initPipeline opens the TA's channel under its relay identity to the
// cloud key.
func (p *taPipeline) initPipeline(name string, cfg *TAConfig) error {
	ch, err := relay.NewChannel(cfg.Identity, cfg.CloudPub, true)
	if err != nil {
		return fmt.Errorf("%s channel: %w", name, err)
	}
	p.name, p.cfg, p.channel = name, cfg, ch
	return nil
}

// classifyInline is the inline classify step: one forward pass over the
// group's features, charged at 4 MACs/cycle (NEON-class SIMD) per sample
// and attributed evenly across the records.
func (p *taPipeline) classifyInline(clf *classify.Classifier, recs []ItemRecord, batch [][]float32) error {
	classes, err := clf.PredictBatch(batch)
	if err != nil {
		return fmt.Errorf("%s classify: %w", p.name, err)
	}
	spent := tz.Cycles(clf.EstimateMACs() * len(batch) / 4)
	p.cfg.Clock.Advance(spent)
	for i, cls := range classes {
		r := &recs[i]
		r.Flagged = cls == 1
		r.ClassifyBatch = len(batch)
		r.Stages.Classify = spent / tz.Cycles(len(recs))
	}
	return nil
}

// classifyHE is the HE classify step: decrypt and tail-classify each
// record's provider-evaluated ciphertext under l's sealed secret key,
// attributing each item its own decrypt and tail.
func (p *taPipeline) classifyHE(l *taLifecycle, recs []ItemRecord, blobs [][]byte) error {
	h, err := l.heHandoff()
	if err != nil {
		return err
	}
	for i := range recs {
		start := p.cfg.Clock.Now()
		flagged, err := h.classify(blobs[i])
		if err != nil {
			return fmt.Errorf("item %d: %w", i, err)
		}
		r := &recs[i]
		r.Flagged = flagged
		r.ClassifyBatch = len(recs)
		r.Stages.Classify = p.cfg.Clock.Now() - start
	}
	return nil
}

// relayEvent numbers, seals and sends ev through the supplicant,
// recording the outcome in out, and verifies the cloud's directive. The
// event is encoded, sealed and its directive opened into a leased
// taScratch, which goes back to its free list when relayEvent returns: the
// supplicant and the provider borrow the sealed frame for the RPC only
// and copy what they keep.
func (p *taPipeline) relayEvent(ev relay.Event, out *RelayOutcome) error {
	sc := taScratchFree.Get()
	defer taScratchFree.Put(sc)
	ev.MessageID = p.messageID.Add(1)
	sc.event = relay.AppendEvent(sc.event[:0], ev)
	sc.sealed = p.channel.SealAppend(sc.sealed[:0], sc.event)
	out.SealedSize = len(sc.sealed)
	resp, err := p.cfg.TEE.RPC(optee.RPCRequest{Kind: optee.RPCNetSend, Target: CloudTarget, Payload: sc.sealed})
	if err := out.admit(err); err != nil {
		return fmt.Errorf("%s relay: %w", p.name, err)
	}
	if out.Shed || out.Expired {
		return nil // no directive to verify
	}
	directive, err := p.channel.OpenAppend(sc.directive[:0], resp.Payload)
	if err != nil {
		return fmt.Errorf("%s directive: %w", p.name, err)
	}
	sc.directive = directive
	return nil
}

// taClient is the normal-world management client of one device TA: it
// attests, updates the model and rotates the key over short-lived
// sessions under the TA's UUID. A system with no TA (baseline) holds a
// zero client, which refuses with ErrNoTEE and reads version and epoch 0.
type taClient struct {
	tee *optee.OS
	ta  *taLifecycle
}

// withTA runs fn over a short-lived session to the TA. The TA keeps its
// state across sessions, so a management session opened while a
// processing session is live shares the running instance (and a
// speaker's capture stream keeps going).
func (c *taClient) withTA(fn func(sess *teec.Session) error) error {
	if c.ta == nil {
		return ErrNoTEE
	}
	ctx := teec.InitializeContext(c.tee)
	sess, err := ctx.OpenSession(c.ta.profile.uuid)
	if err != nil {
		return fmt.Errorf("%s session: %w", c.ta.profile.name, err)
	}
	defer func() { _ = ctx.FinalizeContext() }()
	return fn(sess)
}

// Attest asks the TA for attestation evidence over the verifier's
// challenge nonce (fleet handshake, Fig. 1 extended: the provider admits
// the device's traffic only after this report verifies).
func (c *taClient) Attest(nonce attest.Nonce) (attest.Report, error) {
	var rep attest.Report
	err := c.withTA(func(sess *teec.Session) error {
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
func (c *taClient) UpdateModel(pack attest.Pack, tok attest.ManifestToken) error {
	return c.withTA(func(sess *teec.Session) error {
		p := &optee.Params{
			{Type: optee.MemrefIn, Buf: pack.Encode()},
			{Type: optee.MemrefIn, Buf: tok.Marshal()},
			{},
		}
		return sess.InvokeCommand(CmdUpdateModel, p)
	})
}

// RotateKey redeems a verifier-issued key-rotation token in the TA,
// which verifies it under the current attestation key, seals the new
// epoch and swaps the evidence signer. Returns the new key epoch.
func (c *taClient) RotateKey(tok attest.RotationToken) (uint64, error) {
	var epoch uint64
	err := c.withTA(func(sess *teec.Session) error {
		p := &optee.Params{{Type: optee.MemrefIn, Buf: tok.Marshal()}, {}}
		if err := sess.InvokeCommand(CmdRotateKey, p); err != nil {
			return err
		}
		epoch = p[1].A
		return nil
	})
	return epoch, err
}

// ModelVersion returns the model-pack version the device holds (0 for a
// system with no TA, which holds no on-device model).
func (c *taClient) ModelVersion() uint64 {
	if c.ta == nil {
		return 0
	}
	return c.ta.ModelVersion()
}

// KeyEpoch returns the attestation key epoch the device signs evidence
// under (0 for a system with no TA).
func (c *taClient) KeyEpoch() uint64 {
	if c.ta == nil {
		return 0
	}
	return c.ta.KeyEpoch()
}
