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
	truth   taRecords[peripheral.Scene]
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
func (p *CameraPTA) Truth() []peripheral.Scene { return p.truth.Processed() }

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
		p.truth.record(scene)
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

// ProcessedFrame is the camera TA's per-frame record. The frame path has
// no transcribe stage: a secure grab is the capture stage.
type ProcessedFrame struct {
	itemRecord
}

// CameraTA classifies frames in the TEE and relays only benign ones.
// As in the voice TA, attestation, key rotation, model update, the sealed
// classifier and the HE tail step are its embedded taLifecycle, and the
// classify and relay steps, the sealed channel and the record log its
// taPipeline: each frame command is a group of one through them.
type CameraTA struct {
	taLifecycle
	taPipeline[ProcessedFrame, *ProcessedFrame]
	cfg TAConfig

	// Per-TA frame scratch: invocations are serialized per device, so the
	// grab buffer, the one-sample batch holding its features and the
	// group's record are reused across frames.
	frameBuf   []byte
	frameBatch [][]float32
	group      [1]ProcessedFrame
}

var _ optee.TA = (*CameraTA)(nil)

// NewCameraTA constructs the TA, relaying under id to the cloud key
// cloudPub. cfg.Hybrid arms the HE→TEE handoff (CmdCameraFinishHE) under
// cfg.HEParams.
func NewCameraTA(cfg TAConfig, id *relay.Identity, cloudPub []byte) (*CameraTA, error) {
	t := &CameraTA{cfg: cfg, frameBuf: make([]byte, cameraFrameBytes),
		frameBatch: [][]float32{make([]float32, cameraFrameBytes)}}
	if err := t.initPipeline(cameraProfile.name, cfg.TEE, cfg.Clock, id, cloudPub); err != nil {
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

// Invoke implements optee.TA. CmdProcessFrame loads the classifier before
// the grab, so a TA that cannot classify leaves the frame on the sensor.
func (t *CameraTA) Invoke(sessionID uint32, cmd uint32, params *optee.Params) error {
	switch cmd {
	case CmdProcessFrame:
		clf, err := t.loadedClassifier()
		if err != nil {
			return err
		}
		recs, err := t.grab()
		if err != nil {
			return err
		}
		if recs == nil {
			params[0] = optee.Param{Type: optee.ValueOut, A: 2} // no more frames
			return nil
		}
		if err := t.classifyInline(clf, recs, t.frameBatch); err != nil {
			return err
		}
		return t.relayFrame(recs, t.frameBuf, &params[0])
	case CmdCameraFinishHE:
		if params[0].Type != optee.MemrefIn || len(params[0].Buf) == 0 {
			return fmt.Errorf("%w: CmdCameraFinishHE needs a MemrefIn ciphertext", optee.ErrBadParam)
		}
		if params[1].Type != optee.MemrefIn || len(params[1].Buf) != cameraFrameBytes {
			return fmt.Errorf("%w: CmdCameraFinishHE needs a %d-byte MemrefIn frame", optee.ErrBadParam, cameraFrameBytes)
		}
		t.group = [1]ProcessedFrame{}
		recs := t.group[:]
		if err := t.classifyHE(&t.taLifecycle, recs, [][]byte{params[0].Buf}); err != nil {
			return err
		}
		return t.relayFrame(recs, params[1].Buf, &params[2])
	default:
		return t.invokeLifecycle(cmd, params)
	}
}

// grab is the frame group's capture stage: the next frame through the
// PTA into the frame scratch, normalized into the feature vector. It
// returns the group's one record, or nil when the sensor has no frame.
func (t *CameraTA) grab() ([]ProcessedFrame, error) {
	start := t.cfg.Clock.Now()
	p := &optee.Params{{Type: optee.MemrefOut, Buf: t.frameBuf}, {}}
	if err := t.cfg.TEE.InvokeSecure(UUIDCameraPTA, CmdCameraGrab, p); err != nil {
		return nil, fmt.Errorf("camera ta grab: %w", err)
	}
	if p[1].A == 0 {
		return nil, nil
	}
	for i, px := range t.frameBuf {
		t.frameBatch[0][i] = float32(px) / 255
	}
	t.group = [1]ProcessedFrame{}
	rec := &t.group[0]
	rec.Stages.Capture = t.cfg.Clock.Now() - start
	rec.CaptureBytes = int(p[1].A)
	return t.group[:], nil
}

// relayFrame is the frame group's relay step under the camera's block
// policy, the inversion of the speaker filter: a benign frame is relayed
// sealed, a person frame withheld. out returns A=1 if forwarded.
func (t *CameraTA) relayFrame(recs []ProcessedFrame, frame []byte, out *optee.Param) error {
	err := t.relayGroup(recs, func(rec *ProcessedFrame) error {
		if rec.Flagged {
			return nil
		}
		return t.relayEvent(relay.Event{
			Namespace: relay.NamespaceSpeech, // same AVS-style envelope
			Name:      NameFrame,
			Audio:     frame,
		}, &rec.RelayOutcome)
	})
	if err != nil {
		return err
	}
	*out = optee.Param{Type: optee.ValueOut}
	if recs[0].Forwarded {
		out.A = 1
	}
	return nil
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
	Latency          *metrics.Recorder
	Energy           power.Report
	TotalCycles      tz.Cycles
}

// addFrame tallies one frame the TA processed against its ground truth.
func (r *CameraSessionResult) addFrame(truth peripheral.Scene, rec ProcessedFrame) {
	if !rec.Forwarded {
		if !truth.Sensitive() {
			r.BlockedEmpties++
		}
		return
	}
	r.ForwardedFrames++
	if rec.Shed {
		r.ShedFrames++
	}
	if rec.Expired {
		r.ExpiredFrames++
	}
	// A shed or expired frame was emitted but never reached the provider,
	// so it cannot count toward the leak metric.
	if truth.Sensitive() && !rec.Shed && !rec.Expired {
		r.ForwardedPersons++
	}
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
	} else if err := s.withTA(func(sess *teec.Session) error { return s.runFrames(sess, len(scenes), res) }); err != nil {
		return nil, err
	}
	res.Frames = len(scenes)
	res.TotalCycles = s.Clock.Now() - startCycles
	res.Energy = s.energy(res.TotalCycles, 0, s.cfg.FreqHz)
	return res, nil
}

// grabNormal captures the next frame by sensor DMA into the
// normal-world frame buffer, where the compromised OS reads it. ok is
// false when the sensor has no frame queued.
func (s *CameraSystem) grabNormal() (im peripheral.Image, scene peripheral.Scene, ok bool, err error) {
	if im, scene, ok = s.Camera.Capture(); !ok {
		return im, scene, false, nil
	}
	if err := s.Platform.Mem.WriteAt(tz.WorldNormal, s.frameBuf, im.Pix); err != nil {
		return im, scene, false, err
	}
	s.Clock.Advance(tz.Cycles(len(im.Pix)) * s.Cost.DMAPerByte)
	return im, scene, true, nil
}

func (s *CameraSystem) runBaseline(scenes []peripheral.Scene, res *CameraSessionResult) error {
	for range scenes {
		start := s.Clock.Now()
		im, scene, ok, err := s.grabNormal()
		if !ok {
			return err
		}
		s.sweep(&res.Snoop, s.frameBuf, 64)
		// The app uploads every frame.
		s.Clock.Advance(tz.Cycles(len(im.Pix)) * s.Cost.CopyPerByte)
		s.addRadio(len(im.Pix))
		res.ForwardedFrames++
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

// runFrames is the secure frame loop: each frame is one command, a group
// of one through the camera TA, ended by the completion step the speaker
// shares. A secure-filter frame is CmdProcessFrame, which grabs through
// the PTA. A hybrid frame is captured into normal-world RAM first (the
// compromised OS can snoop raw frames — hybrid trades that local exposure
// for blinding the provider) and its first conv evaluated blind at the
// provider (hybridFrame); CmdCameraFinishHE then decrypts, runs the tail
// and relays in the TA.
func (s *CameraSystem) runFrames(sess *teec.Session, n int, res *CameraSessionResult) error {
	hybrid := s.cfg.Mode == ModeHybridHE
	swept := s.frameBuf
	if !hybrid {
		// The camera PTA session is opened by the TEE when the TA first
		// grabs; open it explicitly for the buffer allocation.
		if err := s.PTA.Open(0); err != nil {
			return err
		}
		swept = s.PTA.BufferAddr()
	}
	for range n {
		anchor := s.Clock.Now()
		cmd, p := CmdProcessFrame, &optee.Params{{}, {}}
		var scene peripheral.Scene
		var grabbed tz.Cycles
		if hybrid {
			var err error
			if p, scene, grabbed, err = s.hybridFrame(); p == nil {
				return err
			}
			cmd = CmdCameraFinishHE
		}
		before, truthBefore := s.TA.count(), s.PTA.truth.count()
		if err := sess.InvokeCommand(cmd, p); err != nil {
			return err
		}
		if !hybrid && p[0].A == 2 {
			return nil // no more frames
		}
		recs := s.TA.since(before)
		if len(recs) != 1 {
			return fmt.Errorf("%d records for one frame", len(recs))
		}
		if hybrid {
			// The normal world captured the frame: its copy of the record
			// carries that capture.
			rec := recs[0]
			rec.Stages.Capture, rec.CaptureBytes = grabbed, cameraFrameBytes
			recs = []ProcessedFrame{rec}
		} else {
			scene = s.PTA.truth.since(truthBefore)[0]
		}
		completeGroup(&s.deviceShell, anchor, recs, func(_ int, rec ProcessedFrame) {
			res.addFrame(scene, rec)
			res.Latency.Observe(float64(s.Clock.Now() - anchor))
		}, &res.Snoop, swept, 64)
	}
	return nil
}

// hybridFrame is the normal world's half of a hybrid frame: grab it into
// normal-world RAM (taking grabbed cycles), normalize and encrypt the
// pixels under the provider's HE key and have the provider evaluate the
// first conv blind. It returns CmdCameraFinishHE's parameters, or nil
// when the sensor has no frame queued or on err.
func (s *CameraSystem) hybridFrame() (p *optee.Params, scene peripheral.Scene, grabbed tz.Cycles, err error) {
	start := s.Clock.Now()
	im, scene, ok, err := s.grabNormal()
	if !ok {
		return nil, scene, 0, err
	}
	grabbed = s.Clock.Now() - start
	feats := make([]float32, len(im.Pix))
	for i, px := range im.Pix {
		feats[i] = float32(px) / 255
	}
	blob, err := s.heRoundTrip(feats, []int{cameraFrameSide, cameraFrameSide, 1}, s.HE.EvalImage)
	if err != nil {
		return nil, scene, 0, fmt.Errorf("camera %w", err)
	}
	return &optee.Params{{Type: optee.MemrefIn, Buf: blob}, {Type: optee.MemrefIn, Buf: im.Pix}, {}}, scene, grabbed, nil
}
