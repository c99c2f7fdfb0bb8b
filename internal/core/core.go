// Package core assembles the paper's Fig. 1 system end to end: microphone
// → I2S controller → sound driver → (PTA → TA with ASR + ML filter →
// relay → supplicant) → cloud, over the TrustZone/OP-TEE substrate, plus
// the insecure baseline deployment used for comparison.
//
// Four deployment modes cover the paper's design space plus the hybrid
// extension:
//
//   - ModeBaseline: the driver lives in the untrusted kernel, raw audio is
//     shipped to the cloud, and the provider transcribes it server-side —
//     the deployment behind the §I leak incidents.
//   - ModeSecureNoFilter: the driver is ported into OP-TEE (data never
//     touches normal-world memory) but the TA relays the full transcript.
//   - ModeSecureFilter: the full design — the TA transcribes, classifies
//     and filters before anything leaves the TEE.
//   - ModeHybridHE: secure-filter's pipeline with the classifier's first
//     linear layer outsourced under homomorphic encryption — the device
//     encrypts extracted features under the provider's HE key, the
//     provider evaluates the layer blind, and the TA decrypts with the
//     sealed secret key to run the non-linear tail. The provider never
//     sees a cleartext feature byte.
package core

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"sync"

	"repro/internal/asr"
	"repro/internal/audio"
	"repro/internal/bus"
	"repro/internal/cloud"
	"repro/internal/driver"
	"repro/internal/ftrace"
	"repro/internal/he"
	"repro/internal/i2s"
	"repro/internal/kernel"
	"repro/internal/ml/classify"
	"repro/internal/ml/train"
	"repro/internal/peripheral"
	"repro/internal/relay"
	"repro/internal/sensitive"
	"repro/internal/tz"
)

// Errors returned by the package.
var (
	// ErrBadMode is returned for unknown deployment modes.
	ErrBadMode = errors.New("core: unknown mode")
	// ErrBadConfig is returned for invalid configurations.
	ErrBadConfig = errors.New("core: invalid config")
)

// Mode selects the deployment under test.
type Mode int

const (
	// ModeBaseline is the untrusted-driver, raw-audio-to-cloud deployment.
	ModeBaseline Mode = iota + 1
	// ModeSecureNoFilter ports the driver into the TEE but relays full
	// transcripts.
	ModeSecureNoFilter
	// ModeSecureFilter is the paper's complete design.
	ModeSecureFilter
	// ModeHybridHE splits inference between homomorphic encryption and
	// the TEE: the first linear layer evaluates under the provider's HE
	// key, the non-linear tail runs inside the TA after the sealed
	// secret key decrypts the handoff.
	ModeHybridHE
)

// Modes returns the registered deployment modes in declaration order.
// Every layer that enumerates modes — the fleet mix, CLI parsing,
// experiments — derives from this registry instead of hard-coding a
// count, so a new mode lands by extending the list (and String).
func Modes() []Mode {
	return []Mode{ModeBaseline, ModeSecureNoFilter, ModeSecureFilter, ModeHybridHE}
}

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case ModeBaseline:
		return "baseline"
	case ModeSecureNoFilter:
		return "secure-nofilter"
	case ModeSecureFilter:
		return "secure-filter"
	case ModeHybridHE:
		return "hybrid-he"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// ParseMode maps a mode name (as produced by String) back to its Mode.
// Unknown names return ErrBadMode listing the registered modes.
func ParseMode(s string) (Mode, error) {
	names := make([]string, 0, len(Modes()))
	for _, m := range Modes() {
		if m.String() == s {
			return m, nil
		}
		names = append(names, m.String())
	}
	return 0, fmt.Errorf("%w: %q (registered modes: %s)", ErrBadMode, s, strings.Join(names, ", "))
}

// Config parameterizes a System.
type Config struct {
	// Mode is the deployment (required).
	Mode Mode
	// Arch selects the TA classifier (secure-filter mode); default CNN.
	Arch classify.Arch
	// Policy is the filter action; default PolicyBlock.
	Policy relay.Policy
	// BufBytes is the driver DMA buffer size; default 4096.
	BufBytes int
	// Seed fixes all randomness.
	Seed uint64
	// ModelSeed fixes classifier pre-training independently of Seed
	// (0 = Seed). A fleet gives every device a distinct Seed but one
	// shared ModelSeed, modelling a provider that provisions a single
	// pre-trained model to the whole population (and letting the trainer
	// memoize one model instead of one per device).
	ModelSeed uint64
	// NoiseAmp is the synthetic speaker's background noise level.
	NoiseAmp float64
	// TrainEpochs controls classifier pre-training; default 8.
	TrainEpochs int

	// DeviceID names the device on an attested ingest tier ("" outside
	// fleets); AttestKeySeed derives its attestation key via
	// attest.KeyFromSeed (0 disables attestation); ModelVersion is the
	// provisioned model-pack version the device boots with (0 = 1 when
	// attestation is enabled).
	DeviceID      string
	AttestKeySeed uint64
	ModelVersion  uint64

	// SharedClassify marks a secure-filter device whose classify stage is
	// served by a shared cross-device scheduler: the per-device classifier
	// build and weight sealing are skipped, since the device never runs a
	// forward pass itself. Such a device runs its session in stages
	// (BeginStagedSession), feeding the scheduler's verdicts back through
	// ResumeGroup.
	SharedClassify bool
}

func (c *Config) fillDefaults() error {
	if !slices.Contains(Modes(), c.Mode) {
		return fmt.Errorf("%w: %v", ErrBadMode, c.Mode)
	}
	if c.Arch == 0 {
		c.Arch = defaultArch
	}
	if c.Policy == 0 {
		c.Policy = relay.PolicyBlock
	}
	if c.BufBytes <= 0 {
		c.BufBytes = 4096
	}
	if c.NoiseAmp == 0 {
		c.NoiseAmp = 0.01
	}
	if c.TrainEpochs <= 0 {
		c.TrainEpochs = defaultTrainEpochs
	}
	if c.ModelSeed == 0 {
		c.ModelSeed = c.Seed
	}
	if c.AttestKeySeed != 0 && c.ModelVersion == 0 {
		c.ModelVersion = 1
	}
	if c.BufBytes > 1<<20 {
		return fmt.Errorf("%w: buffer %d too large", ErrBadConfig, c.BufBytes)
	}
	return nil
}

// UUIDs of the secure components.
const (
	UUIDDriverPTA = "pta.i2s.capture"
	UUIDVoiceTA   = "ta.voice.guard"
	// CloudTarget is the supplicant route name for the AVS endpoint.
	CloudTarget = "avs.cloud.example"
)

// System is one fully wired device-plus-cloud instance: the speaker's
// audio path inside the device shell it shares with CameraSystem.
type System struct {
	cfg Config
	deviceShell

	// Speaker hardware.
	Bus   *bus.Bus
	Ctrl  *i2s.Controller
	DMA   *bus.DMA
	Mic   *peripheral.Microphone
	Voice audio.Voice

	// Normal world.
	Kernel *kernel.Kernel
	Tracer *ftrace.Tracer
	Driver *driver.SoundDriver

	// Secure world (nil in baseline mode).
	VoiceTA   *DeviceTA
	DriverPTA *DriverPTA

	// heSplit is the hybrid split's three-way model partition
	// (ModeHybridHE only).
	heSplit *classify.TextSplit

	// Shared models. ASRModel is the immutable trained template pack
	// (shared across every device with the same training conditions);
	// Recognizer is this device's private transcription session over it.
	Vocab      *sensitive.Vocabulary
	ASRModel   *asr.Model
	Recognizer *asr.Session // device-side (TA) recognizer session
}

// TextSeqLen is the text classifier's padded token-sequence length.
const TextSeqLen = 12

// trainedWeights memoizes deterministic pre-training as weights blobs; a
// lookup allocates nothing, so Pretrain may ask once per device.
var (
	trainedMu      sync.Mutex
	trainedWeights = make(map[weightsKey][]byte)
)

// weightsKey names one pre-training; an image key has no arch or epochs.
type weightsKey struct {
	image  bool
	arch   classify.Arch
	seed   uint64
	epochs int
}

// trainMemoized returns the read-only blob memoized under key, or trains
// a classifier with fit and memoizes its weights. The lock is held across
// training — as in trainedModel — so a fleet building thousands of
// devices with one shared ModelSeed trains each model exactly once.
func trainMemoized(key weightsKey, fit func() (*classify.Classifier, error)) ([]byte, error) {
	trainedMu.Lock()
	defer trainedMu.Unlock()
	if blob, ok := trainedWeights[key]; ok {
		return blob, nil
	}
	clf, err := fit()
	if err != nil {
		return nil, err
	}
	trainedWeights[key] = clf.SerializeWeights()
	return trainedWeights[key], nil
}

// TextWeights returns the shared, read-only weights blob of the text
// classifier pre-trained (memoized) on the standard corpus.
func TextWeights(arch classify.Arch, vocab *sensitive.Vocabulary, seed uint64, epochs int) ([]byte, error) {
	return trainMemoized(weightsKey{arch: arch, seed: seed, epochs: epochs}, func() (*classify.Classifier, error) {
		clf, err := classify.NewText(arch, NewRNG(seed, seed^SaltClassifier), vocab.Size(), TextSeqLen)
		if err != nil {
			return nil, err
		}
		corpus, err := sensitive.Generate(sensitive.GenConfig{N: 280, SensitiveFraction: 0.45, Seed: seed})
		if err != nil {
			return nil, err
		}
		samples := make([]train.Sample, 0, len(corpus))
		for _, u := range corpus {
			samples = append(samples, train.Sample{
				X: clf.TokensToFeatures(vocab.Encode(u.Words)),
				Y: u.Label(),
			})
		}
		_, err = train.Fit(clf.Model(), train.NewAdam(0.01), samples, train.Config{
			Epochs: epochs, BatchSize: 16, Seed: seed, Shape: clf.InputShape(),
		})
		return clf, err
	})
}

// The text classifier a Config defaults to, and the only one a fleet
// device (DeviceSpec) runs.
const (
	defaultArch        = classify.ArchCNN
	defaultTrainEpochs = 8
)

// DefaultTextWeights is TextWeights for the default classifier: the blob
// every fleet speaker seals and every model pack carries.
func DefaultTextWeights(vocab *sensitive.Vocabulary, seed uint64) ([]byte, error) {
	return TextWeights(defaultArch, vocab, seed, defaultTrainEpochs)
}

// TrainClassifier returns a classifier built from TextWeights.
func TrainClassifier(arch classify.Arch, vocab *sensitive.Vocabulary, seed uint64, epochs int) (*classify.Classifier, error) {
	blob, err := TextWeights(arch, vocab, seed, epochs)
	if err != nil {
		return nil, err
	}
	return classify.LoadText(blob, vocab.Size(), TextSeqLen)
}

// seededReader adapts the deterministic PRNG to io.Reader for key
// generation. Each Read fills p from the stream, so a consumer that reads
// a fixed number of bytes (relay.NewIdentity) derives the same key from
// the same seed every time.
type seededReader struct{ rng *rand.Rand }

func (s seededReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(s.rng.Uint64())
	}
	return len(p), nil
}

const ctrlMMIOBase = 0x7000_9000

// ControllerFIFOBytes is the I2S controller FIFO capacity. A large FIFO
// lets the simulator pump a whole utterance group synchronously before
// the TA drains it; it stands in for the continuous real-time streaming
// the simulation compresses. It therefore also bounds the wire bytes of
// one group the voice TA will capture.
const ControllerFIFOBytes = 1 << 20

// NewSystem builds a complete instance for the configuration.
func NewSystem(cfg Config) (*System, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	cost := tz.DefaultCostModel()
	sys := &System{cfg: cfg, Vocab: sensitive.NewVocabulary()}
	if err := sys.initShell(cost); err != nil {
		return nil, err
	}
	clock, plat := sys.Clock, sys.Platform
	b := bus.New(clock, cost)
	secureDevice := cfg.Mode != ModeBaseline
	ctrl := i2s.NewController("i2s0", ControllerFIFOBytes)
	if err := b.Map(ctrlMMIOBase, i2s.RegSize, secureDevice, ctrl); err != nil {
		return nil, fmt.Errorf("core bus: %w", err)
	}
	dmaEngine := bus.NewDMA(clock, cost, plat.Mem)

	voice := audio.DefaultVoice(cfg.Seed)
	voice.NoiseAmp = cfg.NoiseAmp
	mic, err := peripheral.NewMicrophone(ctrl, i2s.DefaultFormat())
	if err != nil {
		return nil, fmt.Errorf("core mic: %w", err)
	}

	world := tz.WorldNormal
	heap := plat.DMAHeap
	if secureDevice {
		world = tz.WorldSecure
		heap = plat.SecureHeap
	}
	tracer := ftrace.New(clock)
	drv, err := driver.New(driver.Config{
		Name:     "i2s0-" + world.String(),
		World:    world,
		Bus:      b,
		Ctrl:     ctrl,
		CtrlBase: ctrlMMIOBase,
		DMA:      dmaEngine,
		Mem:      plat.Mem,
		Heap:     heap,
		Clock:    clock,
		Cost:     cost,
		Tracer:   tracer,
		BufBytes: cfg.BufBytes,
	})
	if err != nil {
		return nil, fmt.Errorf("core driver: %w", err)
	}

	sys.Bus, sys.Ctrl, sys.DMA, sys.Mic, sys.Voice = b, ctrl, dmaEngine, mic, voice
	sys.Kernel, sys.Tracer, sys.Driver = kernel.New(clock, cost, plat.Mem), tracer, drv

	// Device-side recognizer: the template pack is trained once per
	// training condition and shared fleet-wide; the session (extractor +
	// matching scratch) is private to this device.
	model, err := trainedModel(sys.Vocab, voice)
	if err != nil {
		return nil, fmt.Errorf("core asr: %w", err)
	}
	sys.ASRModel = model
	sys.Recognizer, err = model.NewSession()
	if err != nil {
		return nil, fmt.Errorf("core asr session: %w", err)
	}

	if cfg.Mode == ModeBaseline {
		return sys, sys.buildBaseline()
	}
	return sys, sys.buildSecure()
}

// Config returns the system's configuration (defaults filled).
func (s *System) Config() Config { return s.cfg }

// buildBaseline registers the normal-world char device and the plain cloud.
func (s *System) buildBaseline() error {
	chardev := driver.NewCharDev(s.Driver, i2s.DefaultFormat())
	s.Kernel.RegisterDevice("/dev/i2s0", chardev)

	// The provider's server-side ASR (trained on the same voice model —
	// providers have better acoustic coverage than any device). The
	// template pack is shared with the device side; the cloud endpoint
	// gets its own session.
	cloudSess, err := s.ASRModel.NewSession()
	if err != nil {
		return fmt.Errorf("core cloud asr session: %w", err)
	}
	plain := cloud.NewPlainService(cloudSess)
	s.endpoint, s.uplink = plain, plain
	return nil
}

// recognizerCache memoizes template training per (rate, noise, vocab):
// the trained asr.Model is immutable, so every system under the same
// training conditions shares one template pack and only pays for a
// per-device session. The key includes a digest of the vocabulary the
// templates are trained on — two configurations that share a sample rate
// and noise level but speak different word lists must not share a model.
var (
	recognizerMu    sync.Mutex
	recognizerCache = make(map[recognizerKey]*asr.Model)
)

// recognizerKey is the training condition a template pack depends on.
type recognizerKey struct {
	rate  int
	noise float64
	vocab uint64 // sensitive.Vocabulary.Digest
}

func trainedModel(vocab *sensitive.Vocabulary, voice audio.Voice) (*asr.Model, error) {
	trainVoice := voice
	trainVoice.Seed = 1000 // pre-training voice differs from runtime seeds
	key := recognizerKey{rate: trainVoice.Rate, noise: trainVoice.NoiseAmp, vocab: vocab.Digest()}
	recognizerMu.Lock()
	defer recognizerMu.Unlock()
	if m, ok := recognizerCache[key]; ok {
		return m, nil
	}
	m, err := asr.TrainModel(asr.DefaultConfig(trainVoice.Rate), vocab.Words(), trainVoice)
	if err != nil {
		return nil, err
	}
	recognizerCache[key] = m
	return m, nil
}

// buildSecure wires the secure world, the PTA/TA pair and, on a hybrid
// speaker, the provider's blind-evaluation layer.
func (s *System) buildSecure() error {
	if s.cfg.Mode == ModeHybridHE && s.cfg.SharedClassify {
		return fmt.Errorf("%w: hybrid-he classify cannot be shared — the HE handoff needs the sealed secret key on-device", ErrBadConfig)
	}
	// Pre-train the classifier offline; its weights are sealed into
	// secure storage and the TA unseals them at first classify (paper
	// §IV.4: "pre-trained ML classifier" shipped to the TA).
	filter := s.cfg.Mode == ModeSecureFilter || s.cfg.Mode == ModeHybridHE
	var weights []byte
	if filter && !s.cfg.SharedClassify {
		var err error
		if weights, err = TextWeights(s.cfg.Arch, s.Vocab, s.cfg.ModelSeed, s.cfg.TrainEpochs); err != nil {
			return fmt.Errorf("core classifier: %w", err)
		}
	}
	taCfg, err := s.buildSecureWorld(voiceProfile, secureSpec{
		mode: s.cfg.Mode, seed: s.cfg.Seed, modelSeed: s.cfg.ModelSeed,
		deviceID: s.cfg.DeviceID, attestKeySeed: s.cfg.AttestKeySeed, modelVersion: s.cfg.ModelVersion,
		weights: weights,
	})
	if err != nil {
		return err
	}
	if s.cfg.Mode == ModeHybridHE {
		// The device runs the split's head and the provider's
		// blind-evaluation endpoint gets its first conv in the clear.
		clf, err := classify.LoadText(weights, s.Vocab.Size(), TextSeqLen)
		if err == nil {
			s.heSplit, err = classify.SplitText(clf)
		}
		if err != nil {
			return fmt.Errorf("core he split: %w", err)
		}
		conv := s.heSplit.Conv
		ps := conv.Params()
		s.HE.ProvisionText(&he.Conv1D{
			K: conv.K, Cin: conv.Cin, Cout: conv.Cout,
			W: ps[0].Value.Data, B: ps[1].Value.Data,
		})
	}

	s.DriverPTA = NewDriverPTA(s.Driver)
	s.TEE.RegisterPTA(s.DriverPTA)
	taCfg.Filter, taCfg.sharedClassify = filter, s.cfg.SharedClassify
	taCfg.Recognizer, taCfg.Vocab, taCfg.Policy = s.Recognizer, s.Vocab, s.cfg.Policy
	ta, err := newDeviceTA(voiceProfile, taCfg)
	if err != nil {
		return fmt.Errorf("core voice ta: %w", err)
	}
	s.VoiceTA = ta
	s.taClient = taClient{tee: s.TEE, ta: &ta.taLifecycle}
	s.TEE.RegisterTA(ta)
	return nil
}
