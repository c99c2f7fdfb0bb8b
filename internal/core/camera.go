package core

// This file implements the paper's §IV.6 generalization goal — "harmonize
// our approach so it could be applied to a larger and more generic set of
// peripherals and data" — by running a second peripheral class, a camera,
// through the same TrustZone/OP-TEE pipeline: camera → camera PTA →
// camera TA (image classifier filter) → sealed relay → cloud. For images
// the paper notes "a pre-trained ML classifier alone will be sufficient"
// (§IV.4): there is no transcription stage.

import (
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
	// camera TA's lifecycle commands, with the parameter layouts of the
	// voice TA's CmdAttest / CmdUpdateModel / CmdRotateKey.
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
	// NameFrame is the relay event name for camera frames.
	NameFrame = "Camera.Frame"
)

// CameraTADigest is the measured code identity of the camera TA.
var CameraTADigest = cameraProfile.code

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
		// The frame buffer is checked before the sensor is read, so a
		// grab on a closed PTA consumes no frame.
		p.mu.Lock()
		addr := p.bufAddr
		p.mu.Unlock()
		if addr == 0 {
			return fmt.Errorf("%w: camera pta not opened", optee.ErrBadState)
		}
		im, scene, ok := p.cam.Capture()
		params[1].Type = optee.ValueOut
		if !ok {
			params[1].A = 0
			return nil
		}
		p.mu.Lock()
		p.truth = append(p.truth, scene)
		p.mu.Unlock()
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
// Attestation, key rotation, model update and the sealed classifier are
// its embedded taLifecycle.
type CameraTA struct {
	taLifecycle
	cfg     TAConfig
	channel *relay.Channel

	mu        sync.Mutex
	processed []ProcessedFrame
	messageID uint64

	// Per-TA frame scratch: invocations are serialized per device, so
	// the grab buffer and feature vector are reused across frames.
	frameBuf  []byte
	frameFeat []float32
}

var _ optee.TA = (*CameraTA)(nil)

// NewCameraTA constructs the TA, relaying under id to the cloud key
// cloudPub. cfg.Hybrid arms the HE→TEE handoff (CmdCameraFinishHE) under
// cfg.HEParams.
func NewCameraTA(cfg TAConfig, id *relay.Identity, cloudPub []byte) (*CameraTA, error) {
	ch, err := relay.NewChannel(id, cloudPub, true)
	if err != nil {
		return nil, fmt.Errorf("camera ta channel: %w", err)
	}
	t := &CameraTA{cfg: cfg, channel: ch}
	t.initLifecycle(cameraProfile, cfg, t, true)
	return t, nil
}

// UUID implements optee.TA.
func (t *CameraTA) UUID() string { return UUIDCameraTA }

// newClassifier makes the image-classifier skeleton for a model seed.
func (t *CameraTA) newClassifier(seed uint64) (*classify.Classifier, error) {
	return classify.NewImage(NewRNG(seed, seed^SaltImage), cameraFrameSide, cameraFrameSide)
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
	default:
		return t.invokeLifecycle(cmd, params)
	}
}

// processFrame grabs the next frame through the PTA and classifies it
// inline. The classifier is loaded before the grab, so a TA that cannot
// classify leaves the frame on the sensor.
func (t *CameraTA) processFrame() (ProcessedFrame, bool, error) {
	var rec ProcessedFrame
	clf, err := t.loadedClassifier()
	if err != nil {
		return rec, false, err
	}
	start := t.clock.Now()
	if t.frameBuf == nil {
		t.frameBuf = make([]byte, cameraFrameBytes)
		t.frameFeat = make([]float32, cameraFrameBytes)
	}
	buf := t.frameBuf
	p := &optee.Params{{Type: optee.MemrefOut, Buf: buf}, {}}
	if err := t.cfg.TEE.InvokeSecure(UUIDCameraPTA, CmdCameraGrab, p); err != nil {
		return rec, false, fmt.Errorf("camera ta grab: %w", err)
	}
	if p[1].A == 0 {
		return rec, false, nil
	}
	rec.Grab = t.clock.Now() - start
	classifyStart := t.clock.Now()
	feats := t.frameFeat
	for i, px := range buf {
		feats[i] = float32(px) / 255
	}
	cls, err := clf.Predict(feats)
	if err != nil {
		return rec, false, fmt.Errorf("camera ta classify: %w", err)
	}
	t.clock.Advance(tz.Cycles(clf.EstimateMACs() / 4))
	if err := t.finishFrame(&rec, cls == 1, buf, start, classifyStart); err != nil {
		return rec, false, err
	}
	return rec, true, nil
}

// finishFrame is the last step of both frame paths (CmdProcessFrame and
// CmdCameraFinishHE): take the verdict, relay a benign frame sealed, time
// the classify stage from classifyStart and the whole frame from start,
// and record it.
func (t *CameraTA) finishFrame(rec *ProcessedFrame, flagged bool, frame []byte, start, classifyStart tz.Cycles) error {
	rec.Flagged = flagged
	rec.Classify = t.clock.Now() - classifyStart
	relayStart := t.clock.Now()
	if !flagged {
		if err := t.relayBenign(frame, rec); err != nil {
			return err
		}
	}
	rec.Relay = t.clock.Now() - relayStart
	rec.Cycles = t.clock.Now() - start
	t.mu.Lock()
	t.processed = append(t.processed, *rec)
	t.mu.Unlock()
	return nil
}

// relayBenign seals a benign frame and sends it through the supplicant,
// recording shed/expired admission outcomes.
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
	resp, err := t.cfg.TEE.RPC(optee.RPCRequest{
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
	start := t.clock.Now()
	sk, eval, err := t.heDecryptState()
	if err != nil {
		return rec, err
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
	return rec, t.finishFrame(&rec, cls == 1, frame, start, start)
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
	// taClient manages the camera TA (attest, update, rotate); a zero
	// client on a baseline doorbell.
	taClient

	// Hybrid HE+TEE split (ModeHybridHE only; nil/zero otherwise); see
	// the speaker System's fields of the same names.
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
	storage.Put(cameraProfile.weightsID, clf.SerializeWeights())

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
	heParams := he.DefaultParams()
	ta, err := NewCameraTA(TAConfig{
		TEE: sys.TEE, Storage: storage, Clock: clock, Cost: cost,
		Seed: cfg.ModelSeed, Attestor: attestor, ModelVersion: cfg.ModelVersion,
		Hybrid: cfg.Mode == ModeHybridHE, HEParams: heParams,
	}, taID, cloudID.PublicKey())
	if err != nil {
		return nil, err
	}
	sys.TA = ta
	sys.taClient = taClient{tee: sys.TEE, profile: cameraProfile, ta: &ta.taLifecycle}
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

		kp, err := he.KeyGen(heParams, cfg.ModelSeed)
		if err != nil {
			return nil, fmt.Errorf("camera he keygen: %w", err)
		}
		storage.Put(cameraProfile.heKeyID, kp.Secret.Marshal())
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
