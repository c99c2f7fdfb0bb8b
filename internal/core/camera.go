package core

// This file implements the paper's §IV.6 generalization goal — "harmonize
// our approach so it could be applied to a larger and more generic set of
// peripherals and data" — by running a second peripheral class, a camera,
// through the same TrustZone/OP-TEE pipeline: camera → camera PTA →
// camera TA (image classifier filter) → sealed relay → cloud. For images
// the paper notes "a pre-trained ML classifier alone will be sufficient"
// (§IV.4): there is no transcription stage.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"repro/internal/attest"
	"repro/internal/cloud"
	"repro/internal/he"
	"repro/internal/kernel"
	"repro/internal/memory"
	"repro/internal/metrics"
	"repro/internal/ml/classify"
	"repro/internal/ml/layers"
	"repro/internal/ml/train"
	"repro/internal/obs"
	"repro/internal/optee"
	"repro/internal/peripheral"
	"repro/internal/power"
	"repro/internal/relay"
	"repro/internal/supplicant"
	"repro/internal/teec"
	"repro/internal/tz"
)

// Camera component UUIDs and commands.
const (
	UUIDCameraPTA = "pta.camera.capture"
	UUIDCameraTA  = "ta.camera.guard"
	// CmdCameraGrab (PTA): capture the next frame into params[0]
	// (MemrefOut); params[1].A returns bytes written (0 = no frame).
	CmdCameraGrab uint32 = 0x30
	// CmdProcessFrame (TA): grab, classify and relay-or-block one frame;
	// params[0].A returns 1 if forwarded.
	CmdProcessFrame uint32 = 0x31
	// CmdCameraAttest / CmdCameraUpdateModel / CmdCameraRotateKey: the
	// camera twins of the voice TA's CmdAttest / CmdUpdateModel /
	// CmdRotateKey, same parameter layouts.
	CmdCameraAttest      uint32 = 0x32
	CmdCameraUpdateModel uint32 = 0x33
	CmdCameraRotateKey   uint32 = 0x34
	// CmdCameraFinishHE (TA, ModeHybridHE): complete one frame whose first
	// conv layer the provider evaluated homomorphically. params[0] is the
	// provider's result ciphertext (MemrefIn), params[1] the raw frame the
	// normal world captured (MemrefIn, relayed sealed if the TA's tail
	// clears it); params[2].A returns 1 if forwarded.
	CmdCameraFinishHE uint32 = 0x35

	cameraFrameSide  = 24
	cameraFrameBytes = cameraFrameSide * cameraFrameSide
	// cameraWeightsID is the secure-storage object of the image model.
	cameraWeightsID = "camera-ta/classifier-weights"
	// cameraHESecretKeyID is the sealed HE secret key (ModeHybridHE); the
	// camera twin of the voice TA's heSecretKeyID.
	cameraHESecretKeyID = "camera-ta/he-secret-key"
	// cameraKeyEpochID is the sealed key-epoch record; see the voice TA's
	// keyEpochObjectID.
	cameraKeyEpochID = "camera-ta/key-epoch"
	// NameFrame is the relay event name for camera frames.
	NameFrame = "Camera.Frame"
)

// CameraTADigest is the measured code identity of the camera TA.
var CameraTADigest = attest.MeasureCode("periguard", UUIDCameraTA)

// cameraPackObjectID is the secure-storage id of a provisioned pack.
func cameraPackObjectID(version uint64) string {
	return fmt.Sprintf("camera-ta/model-pack-v%d", version)
}

// TrainImageClassifier pre-trains (memoized) the person-detection model.
// The lock is held across training so concurrent fleet builders sharing a
// ModelSeed train once; see TrainClassifier.
func TrainImageClassifier(seed uint64) (*classify.Classifier, error) {
	key := fmt.Sprintf("image/%d", seed)
	rng := NewRNG(seed, seed^SaltImage)
	clf, err := classify.NewImage(rng, cameraFrameSide, cameraFrameSide)
	if err != nil {
		return nil, err
	}
	trainedMu.Lock()
	defer trainedMu.Unlock()
	if blob, ok := trainedWeights[key]; ok {
		if err := clf.LoadWeights(blob); err != nil {
			return nil, err
		}
		return clf, nil
	}
	const n = 160
	samples := make([]train.Sample, 0, n)
	for i := 0; i < n; i++ {
		label := i % 2
		scene := peripheral.SceneEmpty
		if label == 1 {
			scene = peripheral.ScenePerson
		}
		im := peripheral.SynthesizeImage(scene, seed*31+uint64(i))
		samples = append(samples, train.Sample{X: im.Floats(), Y: label})
	}
	if _, err := train.Fit(clf.Model(), train.NewAdam(0.005), samples, train.Config{
		Epochs: 6, BatchSize: 16, Seed: seed, Shape: clf.InputShape(),
	}); err != nil {
		return nil, err
	}
	trainedWeights[key] = clf.SerializeWeights()
	return clf, nil
}

// CameraPTA exposes the camera to the secure world. It owns a frame
// buffer in secure RAM (the TrustZone-protected equivalent of the CSI/ISP
// capture buffer) and keeps the per-frame ground truth for the
// experiment's audit — truth never crosses into the TA.
type CameraPTA struct {
	cam   *peripheral.Camera
	mem   *memory.PhysMem
	heap  *memory.Heap
	world tz.World
	clock *tz.Clock
	cost  tz.CostModel

	mu      sync.Mutex
	bufAddr uint64
	truth   []peripheral.Scene
}

var _ optee.TA = (*CameraPTA)(nil)

// NewCameraPTA wires the PTA to the camera and the secure heap.
func NewCameraPTA(cam *peripheral.Camera, mem *memory.PhysMem, heap *memory.Heap, world tz.World, clock *tz.Clock, cost tz.CostModel) *CameraPTA {
	return &CameraPTA{cam: cam, mem: mem, heap: heap, world: world, clock: clock, cost: cost}
}

// UUID implements optee.TA.
func (p *CameraPTA) UUID() string { return UUIDCameraPTA }

// Open implements optee.TA: it allocates the capture frame buffer.
func (p *CameraPTA) Open(sessionID uint32) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.bufAddr != 0 {
		return nil
	}
	addr, err := p.heap.Alloc(cameraFrameBytes)
	if err != nil {
		return fmt.Errorf("camera pta: %w", err)
	}
	p.bufAddr = addr
	return nil
}

// Close implements optee.TA.
func (p *CameraPTA) Close(sessionID uint32) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.bufAddr != 0 {
		_ = p.mem.Zero(p.world, p.bufAddr, cameraFrameBytes)
		_ = p.heap.Free(p.bufAddr)
		p.bufAddr = 0
	}
}

// BufferAddr returns the frame buffer address (snooping target).
func (p *CameraPTA) BufferAddr() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.bufAddr
}

// Truth returns the ground-truth scenes captured so far (experiment-side
// audit data; never exposed through the TEE interface).
func (p *CameraPTA) Truth() []peripheral.Scene {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]peripheral.Scene(nil), p.truth...)
}

// Invoke implements optee.TA.
func (p *CameraPTA) Invoke(sessionID uint32, cmd uint32, params *optee.Params) error {
	switch cmd {
	case CmdCameraGrab:
		if params[0].Type != optee.MemrefOut || len(params[0].Buf) < cameraFrameBytes {
			return fmt.Errorf("%w: CmdCameraGrab needs %d-byte MemrefOut", optee.ErrBadParam, cameraFrameBytes)
		}
		im, scene, ok := p.cam.Capture()
		params[1].Type = optee.ValueOut
		if !ok {
			params[1].A = 0
			return nil
		}
		p.mu.Lock()
		addr := p.bufAddr
		p.truth = append(p.truth, scene)
		p.mu.Unlock()
		if addr == 0 {
			return fmt.Errorf("%w: camera pta not opened", optee.ErrBadSession)
		}
		// Sensor DMA into the (secure) frame buffer, then copy to the
		// caller's buffer.
		if err := p.mem.WriteAt(p.world, addr, im.Pix); err != nil {
			return fmt.Errorf("camera dma: %w", err)
		}
		p.clock.Advance(tz.Cycles(len(im.Pix)) * p.cost.DMAPerByte)
		if err := p.mem.ReadAt(p.world, addr, params[0].Buf[:cameraFrameBytes]); err != nil {
			return fmt.Errorf("camera copy-out: %w", err)
		}
		p.clock.Advance(tz.Cycles(cameraFrameBytes) * p.cost.CopyPerByte)
		params[1].A = cameraFrameBytes
		return nil
	default:
		return fmt.Errorf("%w: camera pta cmd %#x", optee.ErrBadParam, cmd)
	}
}

// ProcessedFrame is the camera TA's per-frame record.
type ProcessedFrame struct {
	Flagged   bool
	Forwarded bool
	// Shed marks a forwarded frame the ingest frontend dropped under
	// queue pressure (cloud.ErrShed); see ProcessedUtterance.Shed.
	Shed bool
	// Expired marks a forwarded frame whose delivery retry budget ran out
	// (cloud.ErrExpired); see ProcessedUtterance.Expired.
	Expired bool
	Cycles  tz.Cycles
	// Stage decomposition of Cycles (the camera path has no transcribe
	// stage) plus the sealed event size, for telemetry spans.
	Grab       tz.Cycles
	Classify   tz.Cycles
	Relay      tz.Cycles
	SealedSize int
}

// CameraTA classifies frames in the TEE and relays only benign ones.
type CameraTA struct {
	tee     *optee.OS
	storage *optee.Storage
	channel *relay.Channel
	clock   *tz.Clock
	cost    tz.CostModel

	mu           sync.Mutex
	classifier   *classify.Classifier
	seed         uint64
	attestor     *attest.Attestor
	modelVersion uint64
	processed    []ProcessedFrame
	messageID    uint64

	// Hybrid HE+TEE split (ModeHybridHE): hybrid gates CmdCameraFinishHE
	// and heParams parameterizes the in-TA evaluator that decrypts the
	// provider's handoff under the sealed secret key.
	hybrid   bool
	heParams he.Params

	// Per-TA frame scratch: invocations are serialized per device, so
	// the grab buffer and feature vector are reused across frames.
	frameBuf  []byte
	frameFeat []float32
}

var _ optee.TA = (*CameraTA)(nil)

// NewCameraTA constructs the TA. attestor may be nil outside attested
// fleets; modelVersion is the provisioned pack version the TA boots
// with. A sealed key-epoch record left by an earlier instance's
// CmdCameraRotateKey is restored, so a restart resumes signing at the
// rotated epoch.
func NewCameraTA(tee *optee.OS, storage *optee.Storage, id *relay.Identity, cloudPub []byte, clock *tz.Clock, cost tz.CostModel, seed uint64, attestor *attest.Attestor, modelVersion uint64) (*CameraTA, error) {
	ch, err := relay.NewChannel(id, cloudPub, true)
	if err != nil {
		return nil, fmt.Errorf("camera ta channel: %w", err)
	}
	return &CameraTA{
		tee: tee, storage: storage, channel: ch, clock: clock, cost: cost,
		seed: seed, attestor: restoreKeyEpoch(storage, cameraKeyEpochID, attestor),
		modelVersion: modelVersion,
	}, nil
}

// UUID implements optee.TA.
func (t *CameraTA) UUID() string { return UUIDCameraTA }

// EnableHybridHE arms the HE→TEE handoff (ModeHybridHE): the TA will
// accept CmdCameraFinishHE and decrypt provider results under the
// sealed secret key using this parameter set.
func (t *CameraTA) EnableHybridHE(p he.Params) {
	t.mu.Lock()
	t.hybrid = true
	t.heParams = p
	t.mu.Unlock()
}

// ModelVersion returns the version of the model pack the TA holds.
func (t *CameraTA) ModelVersion() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.modelVersion
}

// attestReport signs the TA's current measurement over a challenge
// nonce; the camera twin of VoiceTA.attestReport.
func (t *CameraTA) attestReport(nonce attest.Nonce) (attest.Report, error) {
	t.mu.Lock()
	attestor, version := t.attestor, t.modelVersion
	t.mu.Unlock()
	if attestor == nil {
		return attest.Report{}, fmt.Errorf("%w: camera ta attestation not provisioned", optee.ErrBadState)
	}
	t.clock.Advance(2000) // HMAC evidence; see VoiceTA.attestReport
	return attestor.Attest(nonce, attest.Measurement{Code: CameraTADigest, ModelVersion: version}), nil
}

// KeyEpoch returns the key epoch the TA currently signs evidence under.
func (t *CameraTA) KeyEpoch() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.attestor == nil {
		return 0
	}
	return t.attestor.Epoch()
}

// rotateKey redeems a key-rotation token; the camera twin of
// VoiceTA.rotateKey (same verify → seal epoch → swap-signer sequence).
func (t *CameraTA) rotateKey(tokenBytes []byte) (uint64, error) {
	tok, err := attest.UnmarshalRotationToken(tokenBytes)
	if err != nil {
		return 0, fmt.Errorf("%w: camera ta rotate: %w", optee.ErrBadParam, err)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.attestor == nil {
		return 0, fmt.Errorf("%w: camera ta attestation not provisioned", optee.ErrBadState)
	}
	next, err := t.attestor.Rotated(tok)
	if err != nil {
		return 0, fmt.Errorf("%w: camera ta rotate: %w", optee.ErrBadParam, err)
	}
	var rec [8]byte
	binary.LittleEndian.PutUint64(rec[:], next.Epoch())
	t.storage.Put(cameraKeyEpochID, rec[:])
	t.clock.Advance(4000) // MAC verify + key derivation; see VoiceTA.rotateKey
	t.attestor = next
	return next.Epoch(), nil
}

// updateModel authenticates a published pack against the per-device
// manifest, persists it through sealed storage and hot-swaps the image
// classifier; see VoiceTA.updateModel for the speaker-side twin.
func (t *CameraTA) updateModel(packBytes, tokenBytes []byte) (uint64, error) {
	t.mu.Lock()
	attestor := t.attestor
	t.mu.Unlock()
	if attestor == nil {
		return 0, fmt.Errorf("%w: camera ta attestation not provisioned", optee.ErrBadState)
	}
	pack, err := attest.DecodePack(packBytes)
	if err != nil {
		return 0, fmt.Errorf("%w: camera ta update: %w", optee.ErrBadParam, err)
	}
	tok, err := attest.UnmarshalManifestToken(tokenBytes)
	if err != nil {
		return 0, fmt.Errorf("%w: camera ta update: %w", optee.ErrBadParam, err)
	}
	if err := attestor.VerifyManifest(tok, pack); err != nil {
		return 0, fmt.Errorf("%w: camera ta update: %w", optee.ErrBadParam, err)
	}
	clf, err := t.buildClassifier(pack.ModelSeed, pack.Image)
	if err != nil {
		return 0, fmt.Errorf("%w: camera ta update: %w", optee.ErrBadParam, err)
	}
	// Version check and install form one critical section; see
	// VoiceTA.updateModel for the downgrade-race rationale.
	t.mu.Lock()
	defer t.mu.Unlock()
	if pack.Version == t.modelVersion {
		return t.modelVersion, nil // idempotent re-delivery
	}
	if pack.Version < t.modelVersion {
		return 0, fmt.Errorf("%w: camera ta update: %w: pack v%d older than installed v%d",
			optee.ErrBadParam, attest.ErrBadPack, pack.Version, t.modelVersion)
	}
	t.storage.Put(cameraPackObjectID(pack.Version), packBytes)
	t.storage.Put(cameraWeightsID, pack.Image)
	t.clock.Advance(tz.Cycles(len(packBytes)) * t.cost.CopyPerByte)
	t.classifier = clf
	t.seed = pack.ModelSeed
	t.modelVersion = pack.Version
	return pack.Version, nil
}

// buildClassifier reconstructs the image-classifier skeleton for a model
// seed and restores the given serialized weights.
func (t *CameraTA) buildClassifier(seed uint64, blob []byte) (*classify.Classifier, error) {
	rng := NewRNG(seed, seed^SaltImage)
	clf, err := classify.NewImage(rng, cameraFrameSide, cameraFrameSide)
	if err != nil {
		return nil, err
	}
	if err := clf.LoadWeights(blob); err != nil {
		return nil, fmt.Errorf("camera ta weights: %w", err)
	}
	return clf, nil
}

// loadedClassifier returns the live image classifier, unsealing it from
// secure storage on first use; an installed rollout pack takes
// precedence (updateModel swaps the pointer directly). Mirrors
// VoiceTA.loadedClassifier, so management sessions stay lightweight.
func (t *CameraTA) loadedClassifier() (*classify.Classifier, error) {
	t.mu.Lock()
	clf := t.classifier
	seed := t.seed
	t.mu.Unlock()
	if clf != nil {
		return clf, nil
	}
	blob, err := t.storage.Get(cameraWeightsID)
	if err != nil {
		return nil, fmt.Errorf("camera ta weights: %w", err)
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

// Open implements optee.TA. The instance keeps its state (classifier,
// model version) across sessions; unsealing is deferred to first use.
func (t *CameraTA) Open(sessionID uint32) error { return nil }

// Close implements optee.TA.
func (t *CameraTA) Close(sessionID uint32) {}

// Invoke implements optee.TA.
func (t *CameraTA) Invoke(sessionID uint32, cmd uint32, params *optee.Params) error {
	switch cmd {
	case CmdProcessFrame:
		rec, processedOne, err := t.processFrame()
		if err != nil {
			return err
		}
		params[0].Type = optee.ValueOut
		if !processedOne {
			params[0].A = 2 // no more frames
			return nil
		}
		if rec.Forwarded {
			params[0].A = 1
		}
		return nil
	case CmdCameraFinishHE:
		if params[0].Type != optee.MemrefIn || len(params[0].Buf) == 0 {
			return fmt.Errorf("%w: CmdCameraFinishHE needs a MemrefIn ciphertext", optee.ErrBadParam)
		}
		if params[1].Type != optee.MemrefIn || len(params[1].Buf) != cameraFrameBytes {
			return fmt.Errorf("%w: CmdCameraFinishHE needs a %d-byte MemrefIn frame", optee.ErrBadParam, cameraFrameBytes)
		}
		rec, err := t.finishFrameHE(params[0].Buf, params[1].Buf)
		if err != nil {
			return err
		}
		params[2].Type = optee.ValueOut
		if rec.Forwarded {
			params[2].A = 1
		}
		return nil
	case CmdCameraAttest:
		if params[0].Type != optee.MemrefIn || len(params[0].Buf) != len(attest.Nonce{}) {
			return fmt.Errorf("%w: CmdCameraAttest needs a %d-byte MemrefIn nonce", optee.ErrBadParam, len(attest.Nonce{}))
		}
		if params[1].Type != optee.MemrefOut || params[1].Buf == nil {
			return fmt.Errorf("%w: CmdCameraAttest needs a MemrefOut report buffer", optee.ErrBadParam)
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
	case CmdCameraUpdateModel:
		if params[0].Type != optee.MemrefIn || len(params[0].Buf) == 0 {
			return fmt.Errorf("%w: CmdCameraUpdateModel needs a MemrefIn pack", optee.ErrBadParam)
		}
		if params[1].Type != optee.MemrefIn || len(params[1].Buf) == 0 {
			return fmt.Errorf("%w: CmdCameraUpdateModel needs a MemrefIn manifest", optee.ErrBadParam)
		}
		version, err := t.updateModel(params[0].Buf, params[1].Buf)
		if err != nil {
			return err
		}
		params[2].Type = optee.ValueOut
		params[2].A = version
		return nil
	case CmdCameraRotateKey:
		if params[0].Type != optee.MemrefIn || len(params[0].Buf) == 0 {
			return fmt.Errorf("%w: CmdCameraRotateKey needs a MemrefIn token", optee.ErrBadParam)
		}
		epoch, err := t.rotateKey(params[0].Buf)
		if err != nil {
			return err
		}
		params[1].Type = optee.ValueOut
		params[1].A = epoch
		return nil
	default:
		return fmt.Errorf("%w: camera ta cmd %#x", optee.ErrBadParam, cmd)
	}
}

func (t *CameraTA) processFrame() (ProcessedFrame, bool, error) {
	var rec ProcessedFrame
	start := t.clock.Now()
	if t.frameBuf == nil {
		t.frameBuf = make([]byte, cameraFrameBytes)
		t.frameFeat = make([]float32, cameraFrameBytes)
	}
	buf := t.frameBuf
	p := &optee.Params{{Type: optee.MemrefOut, Buf: buf}, {}}
	if err := t.tee.InvokeSecure(UUIDCameraPTA, CmdCameraGrab, p); err != nil {
		return rec, false, fmt.Errorf("camera ta grab: %w", err)
	}
	if p[1].A == 0 {
		return rec, false, nil
	}
	rec.Grab = t.clock.Now() - start
	classifyStart := t.clock.Now()
	clf, err := t.loadedClassifier()
	if err != nil {
		return rec, false, err
	}
	feats := t.frameFeat
	for i, px := range buf {
		feats[i] = float32(px) / 255
	}
	cls, err := clf.Predict(feats)
	if err != nil {
		return rec, false, fmt.Errorf("camera ta classify: %w", err)
	}
	t.clock.Advance(tz.Cycles(clf.EstimateMACs() / 4))
	rec.Flagged = cls == 1
	rec.Classify = t.clock.Now() - classifyStart
	relayStart := t.clock.Now()

	if !rec.Flagged {
		if err := t.relayBenign(buf, &rec); err != nil {
			return rec, false, err
		}
	}
	rec.Relay = t.clock.Now() - relayStart
	rec.Cycles = t.clock.Now() - start
	t.mu.Lock()
	t.processed = append(t.processed, rec)
	t.mu.Unlock()
	return rec, true, nil
}

// relayBenign seals a benign frame and sends it through the supplicant,
// recording shed/expired admission outcomes; shared by the inline path
// (CmdProcessFrame) and the hybrid handoff (CmdCameraFinishHE).
func (t *CameraTA) relayBenign(buf []byte, rec *ProcessedFrame) error {
	t.mu.Lock()
	t.messageID++
	mid := t.messageID
	t.mu.Unlock()
	payload, err := relay.EncodeEvent(relay.Event{
		Namespace: relay.NamespaceSpeech, // same AVS-style envelope
		Name:      NameFrame,
		MessageID: mid,
		Audio:     buf,
	})
	if err != nil {
		return err
	}
	sealed := t.channel.Seal(payload)
	rec.SealedSize = len(sealed)
	resp, err := t.tee.RPC(optee.RPCRequest{
		Kind: optee.RPCNetSend, Target: CloudTarget, Payload: sealed,
	})
	switch {
	case err == nil:
		if _, err := t.channel.Open(resp.Payload); err != nil {
			return fmt.Errorf("camera ta directive: %w", err)
		}
	case errors.Is(err, cloud.ErrShed):
		// Frontend shed the frame under pressure: emitted, accounted,
		// dropped — not a fault. (Doorbell events ride the priority
		// lane in the fleet, so this is the direct-ingest path only.)
		rec.Shed = true
	case errors.Is(err, cloud.ErrExpired):
		// The uplink retry budget ran out: emitted, retried, given up
		// explicitly. An accounting outcome, never a silent loss.
		rec.Expired = true
	default:
		return fmt.Errorf("camera ta relay: %w", err)
	}
	rec.Forwarded = true
	return nil
}

// finishFrameHE completes one hybrid frame: decrypt the provider's
// first-conv result under the sealed secret key, run the non-linear
// tail inside the TEE, and relay the raw frame (sealed) only when the
// verdict is benign — the camera's person-blocking inversion of the
// speaker filter.
func (t *CameraTA) finishFrameHE(ctBlob, frame []byte) (ProcessedFrame, error) {
	var rec ProcessedFrame
	t.mu.Lock()
	hybrid, params := t.hybrid, t.heParams
	t.mu.Unlock()
	if !hybrid {
		return rec, fmt.Errorf("%w: camera ta HE handoff outside hybrid mode", optee.ErrBadState)
	}
	start := t.clock.Now()
	skBlob, err := t.storage.Get(cameraHESecretKeyID)
	if err != nil {
		return rec, fmt.Errorf("camera ta he key: %w", err)
	}
	sk, err := he.ParseSecretKey(skBlob)
	if err != nil {
		return rec, fmt.Errorf("camera ta he key: %w", err)
	}
	eval, err := he.NewEvaluator(params, t.clock, t.cost)
	if err != nil {
		return rec, fmt.Errorf("camera ta he eval: %w", err)
	}
	clf, err := t.loadedClassifier()
	if err != nil {
		return rec, err
	}
	split, err := classify.SplitImage(clf)
	if err != nil {
		return rec, fmt.Errorf("camera ta he split: %w", err)
	}
	ct, err := eval.Unmarshal(ctBlob)
	if err != nil {
		return rec, fmt.Errorf("%w: camera ta he: %w", optee.ErrBadParam, err)
	}
	data, shape, err := eval.Decrypt(sk, ct)
	if err != nil {
		return rec, fmt.Errorf("%w: camera ta he: %w", optee.ErrBadParam, err)
	}
	cls, err := split.TailPredict(data, shape)
	if err != nil {
		return rec, fmt.Errorf("%w: camera ta he tail: %w", optee.ErrBadParam, err)
	}
	// The tail forward runs at the inline path's 4 MACs/cycle; the
	// decrypt was charged by the evaluator.
	t.clock.Advance(tz.Cycles(2 * layers.ParamCount([]layers.Layer{split.Tail}) / 4))
	rec.Flagged = cls == 1
	rec.Classify = t.clock.Now() - start

	relayStart := t.clock.Now()
	if !rec.Flagged {
		if err := t.relayBenign(frame, &rec); err != nil {
			return rec, err
		}
	}
	rec.Relay = t.clock.Now() - relayStart
	rec.Cycles = t.clock.Now() - start
	t.mu.Lock()
	t.processed = append(t.processed, rec)
	t.mu.Unlock()
	return rec, nil
}

// Processed returns the TA-side records.
func (t *CameraTA) Processed() []ProcessedFrame {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]ProcessedFrame(nil), t.processed...)
}

// CameraConfig parameterizes a camera pipeline.
type CameraConfig struct {
	// Mode: ModeBaseline (frames straight to the cloud from normal-world
	// memory), ModeSecureFilter (the full in-TEE path) or ModeHybridHE
	// (first conv under HE at the provider, tail in the TEE). The
	// no-filter middle deployment is meaningless for images — there is
	// nothing to transcribe — so it is rejected.
	Mode Mode
	Seed uint64
	// ModelSeed fixes image-classifier pre-training (0 = Seed); see
	// Config.ModelSeed.
	ModelSeed uint64
	FreqHz    uint64
	// DeviceID / AttestKeySeed / ModelVersion: see Config.
	DeviceID      string
	AttestKeySeed uint64
	ModelVersion  uint64
}

// CameraSystem is the camera pipeline instance.
type CameraSystem struct {
	cfg CameraConfig

	Clock    *tz.Clock
	Cost     tz.CostModel
	Monitor  *tz.Monitor
	Platform *memory.Platform
	Camera   *peripheral.Camera
	Snooper  *kernel.Snooper

	// Secure-mode parts.
	TEE        *optee.OS
	Supplicant *supplicant.Supplicant
	Storage    *optee.Storage
	PTA        *CameraPTA
	TA         *CameraTA
	Cloud      *cloud.Service

	// Hybrid HE+TEE split (ModeHybridHE only; nil/zero otherwise); see
	// the speaker System's twin fields.
	HE      *cloud.HEService
	HEPub   he.PublicKey
	HEEval  *he.Evaluator
	heSplit *classify.ImageSplit

	// trace is the doorbell's sampled telemetry context (nil outside
	// traced runs); see System.SetTrace.
	trace *obs.TraceContext

	// Baseline parts.
	frameBuf   uint64
	plainSeen  []peripheral.Scene
	radioBytes uint64
	mu         sync.Mutex
}

// NewCameraSystem builds the camera pipeline.
func NewCameraSystem(cfg CameraConfig) (*CameraSystem, error) {
	switch cfg.Mode {
	case ModeBaseline, ModeSecureFilter, ModeHybridHE:
	default:
		return nil, fmt.Errorf("%w: camera supports %s, %s and %s, got %s",
			ErrBadMode, ModeBaseline, ModeSecureFilter, ModeHybridHE, cfg.Mode)
	}
	if cfg.FreqHz == 0 {
		cfg.FreqHz = 1_000_000_000
	}
	if cfg.ModelSeed == 0 {
		cfg.ModelSeed = cfg.Seed
	}
	if cfg.AttestKeySeed != 0 && cfg.ModelVersion == 0 {
		cfg.ModelVersion = 1
	}
	plat, err := memory.NewPlatform(memory.DefaultLayout())
	if err != nil {
		return nil, err
	}
	clock := tz.NewClock()
	cost := tz.DefaultCostModel()
	sys := &CameraSystem{
		cfg:      cfg,
		Clock:    clock,
		Cost:     cost,
		Monitor:  tz.NewMonitor(clock, cost),
		Platform: plat,
		Camera:   peripheral.NewCamera(cfg.Seed),
		Snooper:  kernel.NewSnooper(plat.Mem),
	}
	if cfg.Mode == ModeBaseline {
		addr, err := plat.DMAHeap.Alloc(cameraFrameBytes)
		if err != nil {
			return nil, err
		}
		sys.frameBuf = addr
		return sys, nil
	}

	sys.TEE = optee.New(sys.Monitor, plat.SecureHeap)
	sys.Supplicant = supplicant.New(clock, cost)
	sys.TEE.SetRPCHandler(sys.Supplicant)
	storage, err := optee.NewStorage([]byte(fmt.Sprintf("device-huk-cam-%d", cfg.Seed)))
	if err != nil {
		return nil, err
	}
	sys.Storage = storage
	clf, err := TrainImageClassifier(cfg.ModelSeed)
	if err != nil {
		return nil, err
	}
	storage.Put(cameraWeightsID, clf.SerializeWeights())

	keyRand := NewSeedReader(cfg.Seed^0xcafe, cfg.Seed+3)
	cloudID, err := relay.NewIdentity(keyRand)
	if err != nil {
		return nil, err
	}
	sys.Cloud = cloud.NewService(cloud.NewIdentity(cloudID))
	sys.Supplicant.Route(CloudTarget, sys.Cloud)
	taID, err := relay.NewIdentity(keyRand)
	if err != nil {
		return nil, err
	}
	if err := sys.Cloud.Handshake(taID.PublicKey()); err != nil {
		return nil, err
	}

	sys.PTA = NewCameraPTA(sys.Camera, plat.Mem, plat.SecureHeap, tz.WorldSecure, clock, cost)
	sys.TEE.RegisterPTA(sys.PTA)
	var attestor *attest.Attestor
	if cfg.AttestKeySeed != 0 {
		attestor = attest.NewAttestor(cfg.DeviceID, attest.KeyFromSeed(cfg.AttestKeySeed))
	}
	ta, err := NewCameraTA(sys.TEE, storage, taID, cloudID.PublicKey(), clock, cost, cfg.ModelSeed, attestor, cfg.ModelVersion)
	if err != nil {
		return nil, err
	}
	sys.TA = ta
	sys.TEE.RegisterTA(ta)

	if cfg.Mode == ModeHybridHE {
		// Hybrid capture lands in normal-world RAM (the features leave the
		// device encrypted anyway), so the doorbell also needs the baseline
		// frame buffer.
		addr, err := plat.DMAHeap.Alloc(cameraFrameBytes)
		if err != nil {
			return nil, err
		}
		sys.frameBuf = addr

		heParams := he.DefaultParams()
		kp, err := he.KeyGen(heParams, cfg.ModelSeed)
		if err != nil {
			return nil, fmt.Errorf("camera he keygen: %w", err)
		}
		storage.Put(cameraHESecretKeyID, kp.Secret.Marshal())
		sys.HEPub = kp.Public
		if sys.HEEval, err = he.NewEvaluator(heParams, clock, cost); err != nil {
			return nil, fmt.Errorf("camera he evaluator: %w", err)
		}
		providerEval, err := he.NewEvaluator(heParams, clock, cost)
		if err != nil {
			return nil, fmt.Errorf("camera he provider: %w", err)
		}
		sys.HE = cloud.NewHEService(providerEval)
		split, err := classify.SplitImage(clf)
		if err != nil {
			return nil, fmt.Errorf("camera he split: %w", err)
		}
		sys.heSplit = split
		ps := split.Conv.Params()
		sys.HE.ProvisionImage(&he.Conv2D{
			K: split.Conv.K, Cin: split.Conv.Cin, Cout: split.Conv.Cout,
			W: ps[0].Value.Data, B: ps[1].Value.Data,
		})
		ta.EnableHybridHE(heParams)
	}
	return sys, nil
}

// SetTrace installs the doorbell's telemetry trace context (nil clears);
// see System.SetTrace.
func (s *CameraSystem) SetTrace(tc *obs.TraceContext) { s.trace = tc }

// SetUplink reroutes the doorbell's sealed traffic through sink; see
// System.SetUplink. Baseline doorbells never uplink (raw frames stay on
// the device in this model), so the call is a no-op there.
func (s *CameraSystem) SetUplink(sink supplicant.NetSink) {
	if s.Supplicant != nil {
		s.Supplicant.Route(CloudTarget, sink)
	}
}

// CloudEndpoint returns the provider-side terminator of the doorbell's
// traffic (nil for baseline doorbells, which never uplink).
func (s *CameraSystem) CloudEndpoint() cloud.Provider {
	if s.Cloud == nil {
		return nil
	}
	return s.Cloud
}

// withTA runs fn over a short-lived management session to the camera
// TA, paying the same session/SMC costs as the speaker twin.
func (s *CameraSystem) withTA(fn func(sess *teec.Session) error) error {
	if s.TA == nil {
		return ErrNoTEE
	}
	ctx := teec.InitializeContext(s.TEE)
	sess, err := ctx.OpenSession(UUIDCameraTA)
	if err != nil {
		return fmt.Errorf("camera management session: %w", err)
	}
	defer func() { _ = ctx.FinalizeContext() }()
	return fn(sess)
}

// Attest asks the camera TA for attestation evidence; see System.Attest.
func (s *CameraSystem) Attest(nonce attest.Nonce) (attest.Report, error) {
	var rep attest.Report
	err := s.withTA(func(sess *teec.Session) error {
		buf := make([]byte, 512)
		p := &optee.Params{
			{Type: optee.MemrefIn, Buf: nonce[:]},
			{Type: optee.MemrefOut, Buf: buf},
			{},
		}
		if err := sess.InvokeCommand(CmdCameraAttest, p); err != nil {
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

// UpdateModel delivers a published model pack to the camera TA; see
// System.UpdateModel.
func (s *CameraSystem) UpdateModel(pack attest.Pack, tok attest.ManifestToken) error {
	return s.withTA(func(sess *teec.Session) error {
		p := &optee.Params{
			{Type: optee.MemrefIn, Buf: pack.Encode()},
			{Type: optee.MemrefIn, Buf: tok.Marshal()},
			{},
		}
		return sess.InvokeCommand(CmdCameraUpdateModel, p)
	})
}

// RotateKey redeems a key-rotation token in the camera TA; see
// System.RotateKey.
func (s *CameraSystem) RotateKey(tok attest.RotationToken) (uint64, error) {
	var epoch uint64
	err := s.withTA(func(sess *teec.Session) error {
		p := &optee.Params{{Type: optee.MemrefIn, Buf: tok.Marshal()}, {}}
		if err := sess.InvokeCommand(CmdCameraRotateKey, p); err != nil {
			return err
		}
		epoch = p[1].A
		return nil
	})
	return epoch, err
}

// KeyEpoch returns the key epoch the doorbell signs evidence under
// (0 for baseline doorbells, which have no TA).
func (s *CameraSystem) KeyEpoch() uint64 {
	if s.TA == nil {
		return 0
	}
	return s.TA.KeyEpoch()
}

// ModelVersion returns the model-pack version the doorbell holds (0 for
// baseline doorbells).
func (s *CameraSystem) ModelVersion() uint64 {
	if s.TA == nil {
		return 0
	}
	return s.TA.ModelVersion()
}

// CameraSessionResult aggregates one camera run.
type CameraSessionResult struct {
	Mode              Mode
	Frames            int
	PersonFrames      int // ground truth
	ForwardedFrames   int
	ForwardedPersons  int // person frames that reached the cloud (leak)
	ShedFrames        int // forwarded frames the frontend dropped by admission policy
	ExpiredFrames     int // forwarded frames whose delivery retry budget ran out
	BlockedEmpties    int // empty frames wrongly withheld (usability cost)
	Snoop             SnoopSummary
	CloudFrames       int
	Latency           *metrics.Recorder
	Energy            power.Report
	TotalCycles       tz.Cycles
	SupplicantPlainPx bool // did the daemon carry recognizable pixels?
}

// RunSession captures and processes the queued scenes.
func (s *CameraSystem) RunSession(scenes []peripheral.Scene) (*CameraSessionResult, error) {
	s.Camera.Queue(scenes...)
	res := &CameraSessionResult{Mode: s.cfg.Mode, Latency: metrics.NewRecorder()}
	startCycles := s.Clock.Now()
	for _, sc := range scenes {
		if sc.Sensitive() {
			res.PersonFrames++
		}
	}

	if s.cfg.Mode == ModeBaseline {
		if err := s.runBaseline(scenes, res); err != nil {
			return nil, err
		}
	} else {
		ctx := teec.InitializeContext(s.TEE)
		sess, err := ctx.OpenSession(UUIDCameraTA)
		if err != nil {
			return nil, err
		}
		run := s.runSecure
		if s.cfg.Mode == ModeHybridHE {
			run = s.runHybrid
		}
		err = run(sess, scenes, res)
		_ = ctx.FinalizeContext()
		if err != nil {
			return nil, err
		}
	}
	res.Frames = len(scenes)
	res.TotalCycles = s.Clock.Now() - startCycles
	res.Energy = power.DefaultModel().Measure(power.Usage{
		TotalCycles:  uint64(res.TotalCycles),
		SecureCycles: uint64(s.Monitor.Stats().SecureCycles),
		Switches:     s.Monitor.Stats().Switches,
		RadioBytes:   s.radioBytes,
		FreqHz:       s.cfg.FreqHz,
	})
	return res, nil
}

func (s *CameraSystem) runBaseline(scenes []peripheral.Scene, res *CameraSessionResult) error {
	for range scenes {
		start := s.Clock.Now()
		im, scene, ok := s.Camera.Capture()
		if !ok {
			break
		}
		// Sensor DMA into normal-world RAM.
		if err := s.Platform.Mem.WriteAt(tz.WorldNormal, s.frameBuf, im.Pix); err != nil {
			return err
		}
		s.Clock.Advance(tz.Cycles(len(im.Pix)) * s.Cost.DMAPerByte)
		// The compromised OS reads the live frame buffer.
		res.Snoop.add(s.Snooper.Capture(s.frameBuf, 64))
		// The app uploads every frame.
		s.Clock.Advance(tz.Cycles(len(im.Pix)) * s.Cost.CopyPerByte)
		s.mu.Lock()
		s.radioBytes += uint64(len(im.Pix))
		s.plainSeen = append(s.plainSeen, scene)
		s.mu.Unlock()
		res.ForwardedFrames++
		res.CloudFrames++
		if scene.Sensitive() {
			res.ForwardedPersons++
		}
		// Baseline doorbells never uplink, so the trace is capture-only.
		if tc := s.trace; tc.Enabled() {
			tc.NextItem()
			tc.Emit(obs.StageCapture, obs.VerdictNone, start, s.Clock.Now()-start, len(im.Pix), 0)
		}
		res.Latency.Observe(float64(s.Clock.Now() - start))
	}
	return nil
}

func (s *CameraSystem) runSecure(sess *teec.Session, scenes []peripheral.Scene, res *CameraSessionResult) error {
	// The camera PTA session is opened by the TEE when the TA first
	// grabs; open it explicitly for the buffer allocation.
	if err := s.PTA.Open(0); err != nil {
		return err
	}
	recordsBefore, truthBefore := len(s.TA.Processed()), len(s.PTA.Truth())
	traceStart := s.Clock.Now()
	for range scenes {
		start := s.Clock.Now()
		p := &optee.Params{{}, {}}
		if err := sess.InvokeCommand(CmdProcessFrame, p); err != nil {
			return err
		}
		if p[0].A == 2 {
			break
		}
		// Snoop the secure frame buffer after every frame.
		res.Snoop.add(s.Snooper.Capture(s.PTA.BufferAddr(), 64))
		res.Latency.Observe(float64(s.Clock.Now() - start))
	}
	// Correlate this session's TA verdicts with PTA ground truth.
	s.recordFrames(res, s.TA.Processed()[recordsBefore:], s.PTA.Truth()[truthBefore:], nil, traceStart)
	return nil
}

// recordFrames exports one session's frames to the trace — capture,
// classify (the terminal stage for flagged frames) and relay laid back to
// back from traceStart — and tallies the TA's verdicts against ground
// truth. grabs, when non-nil, holds the normal-world capture time of each
// frame (the hybrid path grabs outside the TA).
func (s *CameraSystem) recordFrames(res *CameraSessionResult, records []ProcessedFrame, truth []peripheral.Scene, grabs []tz.Cycles, traceStart tz.Cycles) {
	if tc := s.trace; tc.Enabled() {
		cursor := traceStart
		for i, rec := range records {
			grab := rec.Grab
			if i < len(grabs) {
				grab = grabs[i]
			}
			tc.NextItem()
			tc.Emit(obs.StageCapture, obs.VerdictNone, cursor, grab, cameraFrameBytes, 0)
			v := obs.VerdictNone
			if !rec.Forwarded {
				v = obs.VerdictBlocked
			}
			tc.Emit(obs.StageClassify, v, cursor+grab, rec.Classify, 0, 1)
			if rec.Forwarded {
				tc.Emit(obs.StageRelay, relayVerdict(rec.Shed, rec.Expired), cursor+grab+rec.Classify, rec.Relay, rec.SealedSize, 0)
			}
			cursor += grab + rec.Classify + rec.Relay
		}
	}
	for i, rec := range records {
		if i >= len(truth) {
			break
		}
		if rec.Forwarded {
			res.ForwardedFrames++
			res.CloudFrames++
			if rec.Shed {
				res.ShedFrames++
			}
			if rec.Expired {
				res.ExpiredFrames++
			}
			// A shed or expired frame was emitted but never reached the
			// provider, so it cannot count toward the leak metric.
			if truth[i].Sensitive() && !rec.Shed && !rec.Expired {
				res.ForwardedPersons++
			}
			s.mu.Lock()
			s.radioBytes += cameraFrameBytes
			s.mu.Unlock()
		} else if !truth[i].Sensitive() {
			res.BlockedEmpties++
		}
	}
}

// runHybrid is the ModeHybridHE frame loop: capture into normal-world
// RAM (the compromised OS can snoop raw frames — hybrid trades that
// local exposure for blinding the provider), normalize and encrypt the
// pixels under the provider's HE key, let the provider evaluate the
// first conv over the ciphertext, and finish in the TA — decrypt, tail,
// and sealed relay of benign frames only.
func (s *CameraSystem) runHybrid(sess *teec.Session, scenes []peripheral.Scene, res *CameraSessionResult) error {
	var truth []peripheral.Scene
	before := len(s.TA.Processed())
	traceStart := s.Clock.Now()
	var grabs []tz.Cycles
	frame := make([]byte, cameraFrameBytes)
	feats := make([]float32, cameraFrameBytes)
	for range scenes {
		start := s.Clock.Now()
		im, scene, ok := s.Camera.Capture()
		if !ok {
			break
		}
		// Sensor DMA into normal-world RAM, snooped like the baseline.
		if err := s.Platform.Mem.WriteAt(tz.WorldNormal, s.frameBuf, im.Pix); err != nil {
			return err
		}
		s.Clock.Advance(tz.Cycles(len(im.Pix)) * s.Cost.DMAPerByte)
		res.Snoop.add(s.Snooper.Capture(s.frameBuf, 64))
		truth = append(truth, scene)
		copy(frame, im.Pix)
		for i, px := range frame {
			feats[i] = float32(px) / 255
		}
		grabs = append(grabs, s.Clock.Now()-start)

		ct, err := s.HEEval.Encrypt(s.HEPub, feats, []int{cameraFrameSide, cameraFrameSide, 1})
		if err != nil {
			return fmt.Errorf("camera hybrid encrypt: %w", err)
		}
		wire := ct.Marshal(s.HEEval.Params)
		resBlob, err := s.HE.EvalImage(wire)
		if err != nil {
			return fmt.Errorf("camera hybrid eval: %w", err)
		}
		s.mu.Lock()
		s.radioBytes += uint64(len(wire) + len(resBlob))
		s.mu.Unlock()

		p := &optee.Params{
			{Type: optee.MemrefIn, Buf: resBlob},
			{Type: optee.MemrefIn, Buf: frame},
			{},
		}
		if err := sess.InvokeCommand(CmdCameraFinishHE, p); err != nil {
			return err
		}
		res.Latency.Observe(float64(s.Clock.Now() - start))
	}
	s.recordFrames(res, s.TA.Processed()[before:], truth, grabs, traceStart)
	return nil
}
