package core

// This file implements the paper's §IV.6 generalization goal — "harmonize
// our approach so it could be applied to a larger and more generic set of
// peripherals and data" — by running a second peripheral class, a camera,
// through the same TrustZone/OP-TEE pipeline: camera → camera PTA →
// camera TA (image classifier filter) → sealed relay → cloud. For images
// the paper notes "a pre-trained ML classifier alone will be sufficient"
// (§IV.4): there is no transcription stage.

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/he"
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

// TrainImageClassifier pre-trains (memoized) the person-detection model;
// see TrainClassifier.
func TrainImageClassifier(seed uint64) (*classify.Classifier, error) {
	rng := NewRNG(seed, seed^SaltImage)
	clf, err := classify.NewImage(rng, cameraFrameSide, cameraFrameSide)
	if err != nil {
		return nil, err
	}
	return trainMemoized(fmt.Sprintf("image/%d", seed), clf, func() error {
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
		_, err := train.Fit(clf.Model(), train.NewAdam(0.005), samples, train.Config{
			Epochs: 6, BatchSize: 16, Seed: seed, Shape: clf.InputShape(),
		})
		return err
	})
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
	Flagged bool
	RelayOutcome
	Cycles tz.Cycles
	// Stage decomposition of Cycles (the camera path has no transcribe
	// stage), for telemetry spans.
	Grab     tz.Cycles
	Classify tz.Cycles
	Relay    tz.Cycles
}

// CameraTA classifies frames in the TEE and relays only benign ones.
// As in the voice TA, attestation, key rotation, model update, the sealed
// classifier and the HE tail step are its embedded taLifecycle, and the
// sealed channel and record log its sealedRelay and taRecords.
type CameraTA struct {
	taLifecycle
	sealedRelay
	taRecords[ProcessedFrame]
	cfg TAConfig

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
	t := &CameraTA{cfg: cfg}
	if err := t.initRelay(cameraProfile.name, cfg.TEE, id, cloudPub); err != nil {
		return nil, err
	}
	t.initLifecycle(cameraProfile, cfg, t, true)
	return t, nil
}

// newClassifier makes the image-classifier skeleton for a model seed.
func (t *CameraTA) newClassifier(seed uint64) (*classify.Classifier, error) {
	return classify.NewImage(NewRNG(seed, seed^SaltImage), cameraFrameSide, cameraFrameSide)
}

// splitTail splits the image classifier's in-TA hybrid tail.
func (t *CameraTA) splitTail(clf *classify.Classifier) (tailPredictor, *layers.Sequential, error) {
	split, err := classify.SplitImage(clf)
	if err != nil {
		return nil, nil, err
	}
	return split, split.Tail, nil
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
		err := t.relayEvent(relay.Event{
			Namespace: relay.NamespaceSpeech, // same AVS-style envelope
			Name:      NameFrame,
			Audio:     frame,
		}, &rec.RelayOutcome)
		if err != nil {
			return err
		}
	}
	rec.Relay = t.clock.Now() - relayStart
	rec.Cycles = t.clock.Now() - start
	t.record(*rec)
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
	h, err := t.heHandoff()
	if err != nil {
		return rec, err
	}
	flagged, err := h.classify(ctBlob)
	if err != nil {
		return rec, err
	}
	return rec, t.finishFrame(&rec, flagged, frame, start, start)
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

// CameraSystem is the camera pipeline instance: the doorbell's camera,
// capture PTA and TA inside the device shell it shares with System.
type CameraSystem struct {
	cfg CameraConfig
	deviceShell

	Camera *peripheral.Camera
	// Secure-mode parts.
	PTA *CameraPTA
	TA  *CameraTA
	// frameBuf is the normal-world frame buffer baseline and hybrid
	// capture land in.
	frameBuf uint64
}

func (c *CameraConfig) fillDefaults() error {
	if !slices.Contains([]Mode{ModeBaseline, ModeSecureFilter, ModeHybridHE}, c.Mode) {
		return fmt.Errorf("%w: camera supports %s, %s and %s, got %s",
			ErrBadMode, ModeBaseline, ModeSecureFilter, ModeHybridHE, c.Mode)
	}
	if c.FreqHz == 0 {
		c.FreqHz = 1_000_000_000
	}
	if c.ModelSeed == 0 {
		c.ModelSeed = c.Seed
	}
	if c.AttestKeySeed != 0 && c.ModelVersion == 0 {
		c.ModelVersion = 1
	}
	return nil
}

// NewCameraSystem builds the camera pipeline.
func NewCameraSystem(cfg CameraConfig) (*CameraSystem, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	sys := &CameraSystem{cfg: cfg, Camera: peripheral.NewCamera(cfg.Seed)}
	if err := sys.initShell(tz.DefaultCostModel()); err != nil {
		return nil, err
	}
	if cfg.Mode != ModeSecureFilter {
		// Baseline and hybrid capture land in normal-world RAM (hybrid
		// features leave the device encrypted anyway).
		addr, err := sys.Platform.DMAHeap.Alloc(cameraFrameBytes)
		if err != nil {
			return nil, err
		}
		sys.frameBuf = addr
	}
	if cfg.Mode == ModeBaseline {
		return sys, nil
	}

	clf, err := TrainImageClassifier(cfg.ModelSeed)
	if err != nil {
		return nil, err
	}
	taCfg, taID, err := sys.buildSecureWorld(cameraProfile, secureSpec{
		mode: cfg.Mode, seed: cfg.Seed, modelSeed: cfg.ModelSeed,
		deviceID: cfg.DeviceID, attestKeySeed: cfg.AttestKeySeed, modelVersion: cfg.ModelVersion,
		weights: clf.SerializeWeights(),
	})
	if err != nil {
		return nil, err
	}
	if cfg.Mode == ModeHybridHE {
		// The provider's blind-evaluation endpoint gets the classifier's
		// first conv in the clear.
		split, err := classify.SplitImage(clf)
		if err != nil {
			return nil, fmt.Errorf("camera he split: %w", err)
		}
		ps := split.Conv.Params()
		sys.HE.ProvisionImage(&he.Conv2D{
			K: split.Conv.K, Cin: split.Conv.Cin, Cout: split.Conv.Cout,
			W: ps[0].Value.Data, B: ps[1].Value.Data,
		})
	}
	sys.PTA = NewCameraPTA(sys.Camera, sys.Platform.Mem, sys.Platform.SecureHeap, tz.WorldSecure, sys.Clock, sys.Cost)
	sys.TEE.RegisterPTA(sys.PTA)
	ta, err := NewCameraTA(taCfg, taID, sys.CloudSealed.PublicKey())
	if err != nil {
		return nil, err
	}
	sys.TA = ta
	sys.taClient = taClient{tee: sys.TEE, profile: cameraProfile, ta: &ta.taLifecycle}
	sys.TEE.RegisterTA(ta)
	return sys, nil
}

// CameraSessionResult aggregates one camera run.
type CameraSessionResult struct {
	Mode             Mode
	Frames           int
	PersonFrames     int // ground truth
	ForwardedFrames  int
	ForwardedPersons int // person frames that reached the cloud (leak)
	ShedFrames       int // forwarded frames the frontend dropped by admission policy
	ExpiredFrames    int // forwarded frames whose delivery retry budget ran out
	BlockedEmpties   int // empty frames wrongly withheld (usability cost)
	Snoop            SnoopSummary
	CloudFrames      int
	Latency          *metrics.Recorder
	Energy           power.Report
	TotalCycles      tz.Cycles
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
		run := s.runSecure
		if s.cfg.Mode == ModeHybridHE {
			run = s.runHybrid
		}
		if err := s.withTA(func(sess *teec.Session) error { return run(sess, scenes, res) }); err != nil {
			return nil, err
		}
	}
	res.Frames = len(scenes)
	res.TotalCycles = s.Clock.Now() - startCycles
	res.Energy = s.energy(res.TotalCycles, 0, s.cfg.FreqHz)
	return res, nil
}

// grabNormal captures the next frame by sensor DMA into the
// normal-world frame buffer, where the compromised OS reads it. ok is
// false when the sensor has no frame queued.
func (s *CameraSystem) grabNormal(res *CameraSessionResult) (im peripheral.Image, scene peripheral.Scene, ok bool, err error) {
	if im, scene, ok = s.Camera.Capture(); !ok {
		return im, scene, false, nil
	}
	if err := s.Platform.Mem.WriteAt(tz.WorldNormal, s.frameBuf, im.Pix); err != nil {
		return im, scene, false, err
	}
	s.Clock.Advance(tz.Cycles(len(im.Pix)) * s.Cost.DMAPerByte)
	res.Snoop.add(s.Snooper.Capture(s.frameBuf, 64))
	return im, scene, true, nil
}

func (s *CameraSystem) runBaseline(scenes []peripheral.Scene, res *CameraSessionResult) error {
	for range scenes {
		start := s.Clock.Now()
		im, scene, ok, err := s.grabNormal(res)
		if !ok {
			return err
		}
		// The app uploads every frame.
		s.Clock.Advance(tz.Cycles(len(im.Pix)) * s.Cost.CopyPerByte)
		s.addRadio(len(im.Pix))
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
				tc.Emit(obs.StageRelay, rec.verdict(), cursor+grab+rec.Classify, rec.Relay, rec.SealedSize, 0)
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
			s.addRadio(cameraFrameBytes)
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
		im, scene, ok, err := s.grabNormal(res)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		truth = append(truth, scene)
		copy(frame, im.Pix)
		for i, px := range frame {
			feats[i] = float32(px) / 255
		}
		grabs = append(grabs, s.Clock.Now()-start)

		resBlob, err := s.heRoundTrip(feats, []int{cameraFrameSide, cameraFrameSide, 1}, s.HE.EvalImage)
		if err != nil {
			return fmt.Errorf("camera %w", err)
		}

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
