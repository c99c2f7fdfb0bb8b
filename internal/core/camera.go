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
	"repro/internal/ml/train"
	"repro/internal/obs"
	"repro/internal/optee"
	"repro/internal/peripheral"
	"repro/internal/power"
	"repro/internal/relay"
	"repro/internal/teec"
	"repro/internal/tz"
)

// Camera component UUIDs and commands. The doorbell's TA is the device
// TA under cameraProfile, served through the one command table.
const (
	UUIDCameraPTA  = "pta.camera.capture"
	UUIDDoorbellTA = "ta.camera.guard"
	// CmdPTAGrab (PTA): capture the next frame into params[0]
	// (MemrefOut); params[1].A returns bytes written (0 = no frame).
	// params[2].A (ValueIn) is how many frames the caller's group still
	// needs, this one included: the grab takes none unless that many are
	// queued, so a group's frames are grabbed whole or not at all.
	CmdPTAGrab uint32 = 0x30

	cameraFrameSide  = 24
	cameraFrameBytes = cameraFrameSide * cameraFrameSide
	// NameFrame is the relay event name for camera frames.
	NameFrame = "Camera.Frame"
)

// CameraTADigest is the measured code identity of the camera TA.
var CameraTADigest = cameraProfile.code

// ImageWeights returns the pre-trained (memoized) weights blob of the
// person-detection model; see TextWeights.
func ImageWeights(seed uint64) ([]byte, error) {
	return trainMemoized(weightsKey{image: true, seed: seed}, func() (*classify.Classifier, error) {
		clf, err := classify.NewImage(NewRNG(seed, seed^SaltImage), cameraFrameSide, cameraFrameSide)
		if err != nil {
			return nil, err
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
		_, err = train.Fit(clf.Model(), train.NewAdam(0.005), samples, train.Config{
			Epochs: 6, BatchSize: 16, Seed: seed, Shape: clf.InputShape(),
		})
		return clf, err
	})
}

// TrainImageClassifier returns a classifier built from ImageWeights.
func TrainImageClassifier(seed uint64) (*classify.Classifier, error) {
	blob, err := ImageWeights(seed)
	if err != nil {
		return nil, err
	}
	return classify.LoadImage(blob, cameraFrameSide, cameraFrameSide)
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
	case CmdPTAGrab:
		if params[0].Type != optee.MemrefOut || len(params[0].Buf) < cameraFrameBytes {
			return fmt.Errorf("%w: CmdPTAGrab needs %d-byte MemrefOut", optee.ErrBadParam, cameraFrameBytes)
		}
		// The frame buffer is checked before the sensor is read, so a
		// grab on a closed PTA consumes no frame.
		p.mu.Lock()
		addr := p.bufAddr
		p.mu.Unlock()
		if addr == 0 {
			return fmt.Errorf("%w: camera pta not opened", optee.ErrBadState)
		}
		params[1].Type = optee.ValueOut
		if params[2].Type == optee.ValueIn && uint64(p.cam.Pending()) < params[2].A {
			params[1].A = 0
			return nil
		}
		im, scene, ok := p.cam.Capture()
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

// frameStages are a doorbell's: frames grabbed through the camera PTA
// (or, for an HE handoff, captured by the normal world), normalized
// pixels, the image classifier, and the camera's block policy.
var frameStages = taStages{
	checkItem: func(n uint64) error {
		if n != cameraFrameBytes {
			return fmt.Errorf("%w: frame of %d bytes, want %d", optee.ErrBadParam, n, cameraFrameBytes)
		}
		return nil
	},
	capture:   (*DeviceTA).grabFrames,
	featurize: (*DeviceTA).pixelFeatures,
	handIn:    (*DeviceTA).handInFrames,
	loadClassifier: func(_ *TAConfig, blob []byte) (*classify.Classifier, error) {
		return classify.LoadImage(blob, cameraFrameSide, cameraFrameSide)
	},
	relay: (*DeviceTA).relayFrame,
}

// frame is item i of the TA's frame scratch.
func (t *DeviceTA) frame(i int) []byte {
	return t.frames[i*cameraFrameBytes : (i+1)*cameraFrameBytes]
}

// grabFrames is a doorbell's capture stage: each frame of the group
// through the PTA into the TA's frame scratch. The classifier is loaded
// before the grab, so a TA that cannot classify leaves the frame on the
// sensor; a sensor holding fewer frames than the group is ErrBadParam,
// as audio that was never pumped is, and gives up none of them.
func (t *DeviceTA) grabFrames(recs []ItemRecord, _ []int) error {
	if need := len(recs) * cameraFrameBytes; len(t.frames) < need {
		t.frames = make([]byte, need)
	}
	for i := range recs {
		start := t.cfg.Clock.Now()
		p := &t.grab
		*p = optee.Params{{Type: optee.MemrefOut, Buf: t.frame(i)}, {}, {Type: optee.ValueIn, A: uint64(len(recs) - i)}}
		if err := t.cfg.TEE.InvokeSecure(UUIDCameraPTA, CmdPTAGrab, p); err != nil {
			return fmt.Errorf("camera ta grab: %w", err)
		}
		if p[1].A == 0 {
			return fmt.Errorf("%w: camera ta: no frame queued for item %d", optee.ErrBadParam, i)
		}
		recs[i].Stages.Capture = t.cfg.Clock.Now() - start
		recs[i].CaptureBytes = int(p[1].A)
	}
	return nil
}

// pixelFeatures is a doorbell's featurize stage: each grabbed frame's
// pixels normalized into its classifier input row.
func (t *DeviceTA) pixelFeatures(_ *classify.Classifier, recs []ItemRecord, batch [][]float32) {
	for i := range recs {
		if len(batch[i]) != cameraFrameBytes {
			batch[i] = make([]float32, cameraFrameBytes)
		}
		for j, px := range t.frame(i) {
			batch[i][j] = float32(px) / 255
		}
	}
}

// handInFrames takes the n frames of a hybrid doorbell's HE handoff,
// which the normal world captured, into the TA's frame scratch.
func (t *DeviceTA) handInFrames(n int, items optee.Param) error {
	if n > MaxBatch || items.Type != optee.MemrefIn || len(items.Buf) != n*cameraFrameBytes {
		return fmt.Errorf("%w: CmdResumeBatchHE needs a MemrefIn of %d %d-byte frames (at most %d)",
			optee.ErrBadParam, n, cameraFrameBytes, MaxBatch)
	}
	t.frames = append(t.frames[:0], items.Buf...)
	return nil
}

// relayFrame is a doorbell's relay step under the camera's block policy,
// the inversion of the speaker filter: a benign frame is relayed sealed,
// a person frame withheld.
func (t *DeviceTA) relayFrame(i int, rec *ItemRecord) error {
	if rec.Flagged {
		return nil
	}
	return t.relayEvent(relay.Event{
		Namespace: relay.NamespaceSpeech, // same AVS-style envelope
		Name:      NameFrame,
		Audio:     t.frame(i),
	}, &rec.RelayOutcome)
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
	TA  *DeviceTA
	// frameBuf is the normal-world frame buffer baseline and hybrid
	// capture land in.
	frameBuf uint64
}

func (c *CameraConfig) fillDefaults() error {
	if !slices.Contains([]Mode{ModeBaseline, ModeSecureFilter, ModeHybridHE}, c.Mode) {
		return fmt.Errorf("%w: camera supports %s, %s and %s, got %s",
			ErrBadMode, ModeBaseline, ModeSecureFilter, ModeHybridHE, c.Mode)
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

	weights, err := ImageWeights(cfg.ModelSeed)
	if err != nil {
		return nil, err
	}
	taCfg, err := sys.buildSecureWorld(cameraProfile, secureSpec{
		mode: cfg.Mode, seed: cfg.Seed, modelSeed: cfg.ModelSeed,
		deviceID: cfg.DeviceID, attestKeySeed: cfg.AttestKeySeed, modelVersion: cfg.ModelVersion,
		weights: weights,
	})
	if err != nil {
		return nil, err
	}
	if cfg.Mode == ModeHybridHE {
		// The provider's blind-evaluation endpoint gets the classifier's
		// first conv in the clear.
		clf, err := classify.LoadImage(weights, cameraFrameSide, cameraFrameSide)
		var split *classify.ImageSplit
		if err == nil {
			split, err = classify.SplitImage(clf)
		}
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
	taCfg.Filter = true
	ta, err := newDeviceTA(cameraProfile, taCfg)
	if err != nil {
		return nil, err
	}
	sys.TA = ta
	sys.taClient = taClient{tee: sys.TEE, ta: &ta.taLifecycle}
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
func (r *CameraSessionResult) addFrame(truth peripheral.Scene, rec ItemRecord) {
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
	res.Energy = s.energy(res.TotalCycles, 0)
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
// of one through the device TA, ended by the completion step the speaker
// shares. A secure-filter frame is CmdProcessItem, which grabs through
// the PTA. A hybrid frame is captured into normal-world RAM first (the
// compromised OS can snoop raw frames — hybrid trades that local exposure
// for blinding the provider) and its first conv evaluated blind at the
// provider (hybridFrame); CmdResumeBatchHE then decrypts, runs the tail
// and relays in the TA.
func (s *CameraSystem) runFrames(sess *teec.Session, n int, res *CameraSessionResult) error {
	hybrid := s.cfg.Mode == ModeHybridHE
	swept := s.frameBuf
	sc := sessionScratchFree.Get()
	defer sessionScratchFree.Put(sc)
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
		// A frame passes its byte count by value, which pays no
		// shared-memory flush.
		cmd, p := CmdProcessItem, &sc.params
		*p = optee.Params{{Type: optee.ValueIn, A: cameraFrameBytes}, {}}
		var scene peripheral.Scene
		var grabbed tz.Cycles
		if hybrid {
			var err error
			if p, scene, grabbed, err = s.hybridFrame(sc); p == nil {
				return err
			}
			cmd = CmdResumeBatchHE
		}
		before, truthBefore := s.TA.count(), s.PTA.truth.count()
		if err := sess.InvokeCommand(cmd, p); err != nil {
			return err
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
			recs = []ItemRecord{rec}
		} else {
			scene = s.PTA.truth.since(truthBefore)[0]
		}
		completeGroup(&s.deviceShell, anchor, recs, func(_ int, rec ItemRecord) {
			res.addFrame(scene, rec)
			res.Latency.Observe(float64(s.Clock.Now() - anchor))
		}, &res.Snoop, swept, 64)
	}
	return nil
}

// hybridFrame is the normal world's half of a hybrid frame: grab it into
// normal-world RAM (taking grabbed cycles), normalize and encrypt the
// pixels under the provider's HE key and have the provider evaluate the
// first conv blind, into sc's HE buffers. It returns CmdResumeBatchHE's
// parameters, written into sc.params, or nil when the sensor has no
// frame queued or on err.
func (s *CameraSystem) hybridFrame(sc *sessionScratch) (p *optee.Params, scene peripheral.Scene, grabbed tz.Cycles, err error) {
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
	sc.hePacked = sc.hePacked[:0]
	if err := s.heAppend(sc, feats, []int{cameraFrameSide, cameraFrameSide, 1}, s.HE.AppendEvalImage); err != nil {
		return nil, scene, 0, fmt.Errorf("camera %w", err)
	}
	sc.params = optee.Params{
		{Type: optee.MemrefIn, Buf: sc.hePacked},
		{Type: optee.MemrefIn, Buf: im.Pix},
		{},
	}
	return &sc.params, scene, grabbed, nil
}
