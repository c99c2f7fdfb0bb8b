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
	"strings"
	"sync"

	"repro/internal/asr"
	"repro/internal/attest"
	"repro/internal/audio"
	"repro/internal/bus"
	"repro/internal/cloud"
	"repro/internal/driver"
	"repro/internal/ftrace"
	"repro/internal/he"
	"repro/internal/i2s"
	"repro/internal/kernel"
	"repro/internal/memory"
	"repro/internal/ml/classify"
	"repro/internal/ml/train"
	"repro/internal/obs"
	"repro/internal/optee"
	"repro/internal/peripheral"
	"repro/internal/relay"
	"repro/internal/sensitive"
	"repro/internal/supplicant"
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
	// WorldSwitchCycles overrides the SMC one-way switch cost (0 = default).
	WorldSwitchCycles tz.Cycles
	// Seed fixes all randomness.
	Seed uint64
	// ModelSeed fixes classifier pre-training independently of Seed
	// (0 = Seed). A fleet gives every device a distinct Seed but one
	// shared ModelSeed, modelling a provider that provisions a single
	// pre-trained model to the whole population (and letting the trainer
	// memoize one model instead of one per device).
	ModelSeed uint64
	// FreqHz is the modelled core frequency; default 1 GHz.
	FreqHz uint64
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
	valid := false
	for _, m := range Modes() {
		if c.Mode == m {
			valid = true
			break
		}
	}
	if !valid {
		return fmt.Errorf("%w: %v", ErrBadMode, c.Mode)
	}
	if c.Arch == 0 {
		c.Arch = classify.ArchCNN
	}
	if c.Policy == 0 {
		c.Policy = relay.PolicyBlock
	}
	if c.BufBytes <= 0 {
		c.BufBytes = 4096
	}
	if c.FreqHz == 0 {
		c.FreqHz = 1_000_000_000
	}
	if c.NoiseAmp == 0 {
		c.NoiseAmp = 0.01
	}
	if c.TrainEpochs <= 0 {
		c.TrainEpochs = 8
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

// System is one fully wired device-plus-cloud instance.
type System struct {
	cfg Config

	// Hardware substrate.
	Clock    *tz.Clock
	Cost     tz.CostModel
	Monitor  *tz.Monitor
	Platform *memory.Platform
	Bus      *bus.Bus
	Ctrl     *i2s.Controller
	DMA      *bus.DMA
	Mic      *peripheral.Microphone
	Voice    audio.Voice

	// Normal world.
	Kernel  *kernel.Kernel
	Snooper *kernel.Snooper
	Tracer  *ftrace.Tracer
	Driver  *driver.SoundDriver

	// Secure world (nil in baseline mode).
	TEE        *optee.OS
	Supplicant *supplicant.Supplicant
	Storage    *optee.Storage
	VoiceTA    *VoiceTA
	DriverPTA  *DriverPTA
	// taClient manages the voice TA (attest, update, rotate); a zero
	// client in baseline mode.
	taClient

	// Cloud side.
	CloudSealed *cloud.Service      // secure modes
	CloudPlain  *cloud.PlainService // baseline
	// uplink is where baseline device→cloud traffic leaves the device;
	// it defaults to CloudPlain and is rerouted by SetUplink when the
	// device joins a fleet ingest tier. Secure modes route through the
	// supplicant instead.
	uplink supplicant.NetSink

	// Hybrid HE+TEE split (ModeHybridHE only; nil/zero otherwise). HE is
	// the provider's blind-evaluation endpoint, HEPub the provider key
	// the normal world encrypts features under, HEEval the device-side
	// evaluator charging encrypt cycles to this device's clock, and
	// heSplit the three-way model partition.
	HE      *cloud.HEService
	HEPub   he.PublicKey
	HEEval  *he.Evaluator
	heSplit *classify.TextSplit

	// Shared models. ASRModel is the immutable trained template pack
	// (shared across every device with the same training conditions);
	// Recognizer is this device's private transcription session over it.
	Vocab      *sensitive.Vocabulary
	ASRModel   *asr.Model
	Recognizer *asr.Session // device-side (TA) recognizer session

	// trace is the device's sampled telemetry context (nil outside traced
	// runs and for sampled-out devices — the zero-cost path).
	trace *obs.TraceContext

	radioBytes uint64
	mu         sync.Mutex
}

// trainedWeights memoizes classifier pre-training per (arch, seed, epochs):
// training is deterministic, and experiments build many Systems.
var (
	trainedMu      sync.Mutex
	trainedWeights = make(map[string][]byte)
)

// TrainClassifier pre-trains (or fetches the memoized) classifier for the
// architecture on the standard corpus. The lock is held across training —
// as in trainedRecognizer — so a fleet building thousands of devices with
// one shared ModelSeed trains the model exactly once.
func TrainClassifier(arch classify.Arch, vocab *sensitive.Vocabulary, seed uint64, epochs int) (*classify.Classifier, error) {
	const seqLen = 12
	key := fmt.Sprintf("%d/%d/%d", arch, seed, epochs)
	rng := NewRNG(seed, seed^SaltClassifier)
	clf, err := classify.NewText(arch, rng, vocab.Size(), seqLen)
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
	if _, err := train.Fit(clf.Model(), train.NewAdam(0.01), samples, train.Config{
		Epochs: epochs, BatchSize: 16, Seed: seed, Shape: clf.InputShape(),
	}); err != nil {
		return nil, err
	}
	trainedWeights[key] = clf.SerializeWeights()
	return clf, nil
}

// seededReader adapts the deterministic PRNG to io.Reader for key
// generation, keeping whole experiments reproducible.
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
	if cfg.WorldSwitchCycles > 0 {
		cost.WorldSwitch = cfg.WorldSwitchCycles
	}
	clock := tz.NewClock()
	plat, err := memory.NewPlatform(memory.DefaultLayout())
	if err != nil {
		return nil, fmt.Errorf("core platform: %w", err)
	}
	monitor := tz.NewMonitor(clock, cost)
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

	kern := kernel.New(clock, cost, plat.Mem)
	sys := &System{
		cfg:      cfg,
		Clock:    clock,
		Cost:     cost,
		Monitor:  monitor,
		Platform: plat,
		Bus:      b,
		Ctrl:     ctrl,
		DMA:      dmaEngine,
		Mic:      mic,
		Voice:    voice,
		Kernel:   kern,
		Snooper:  kernel.NewSnooper(plat.Mem),
		Tracer:   tracer,
		Driver:   drv,
		Vocab:    sensitive.NewVocabulary(),
	}

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

// SetTrace installs the device's telemetry trace context (nil clears).
// Spans carry stage timings, sealed sizes and admission verdicts only —
// never transcript tokens. Install before RunSession; the hot path reads
// the pointer without locking.
func (s *System) SetTrace(tc *obs.TraceContext) { s.trace = tc }

// buildBaseline registers the normal-world char device and the plain cloud.
func (s *System) buildBaseline() error {
	chardev := driver.NewCharDev(s.Driver, i2s.DefaultFormat())
	s.Kernel.RegisterDevice("/dev/i2s0", chardev)

	// The provider's server-side ASR (trained on the same voice model —
	// providers have better acoustic coverage than any device). The
	// template pack is shared with the device side; the cloud endpoint
	// gets its own session.
	cloudModel, err := trainedModel(s.Vocab, s.Voice)
	if err != nil {
		return fmt.Errorf("core cloud asr: %w", err)
	}
	cloudSess, err := cloudModel.NewSession()
	if err != nil {
		return fmt.Errorf("core cloud asr session: %w", err)
	}
	s.CloudPlain = cloud.NewPlainService(cloudSess)
	s.uplink = s.CloudPlain
	return nil
}

// SetUplink reroutes the device's cloud-bound traffic through sink (the
// fleet ingest tier). The device's own cloud endpoint keeps terminating
// the channel — the sink decides on which shard/worker that happens.
func (s *System) SetUplink(sink supplicant.NetSink) {
	if s.cfg.Mode == ModeBaseline {
		s.mu.Lock()
		s.uplink = sink
		s.mu.Unlock()
		return
	}
	s.Supplicant.Route(CloudTarget, sink)
}

// CloudEndpoint returns the provider-side terminator of this device's
// traffic: the sealed service in secure modes, the plain service in
// baseline. Fleet shards host it.
func (s *System) CloudEndpoint() cloud.Provider {
	if s.cfg.Mode == ModeBaseline {
		return s.CloudPlain
	}
	return s.CloudSealed
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

// buildSecure wires OP-TEE, the PTA/TA pair, the supplicant and the
// sealed cloud endpoint.
func (s *System) buildSecure() error {
	s.TEE = optee.New(s.Monitor, s.Platform.SecureHeap)
	s.Supplicant = supplicant.New(s.Clock, s.Cost)
	s.TEE.SetRPCHandler(s.Supplicant)

	storage, err := optee.NewStorage([]byte(fmt.Sprintf("device-huk-%d", s.cfg.Seed)))
	if err != nil {
		return fmt.Errorf("core storage: %w", err)
	}
	s.Storage = storage

	// Pre-train the classifier offline and seal its weights into secure
	// storage; the TA unseals them at session open (paper §IV.4:
	// "pre-trained ML classifier" shipped to the TA).
	if s.cfg.Mode == ModeHybridHE && s.cfg.SharedClassify {
		return fmt.Errorf("%w: hybrid-he classify cannot be shared — the HE handoff needs the sealed secret key on-device", ErrBadConfig)
	}
	var clf *classify.Classifier
	if (s.cfg.Mode == ModeSecureFilter || s.cfg.Mode == ModeHybridHE) && !s.cfg.SharedClassify {
		clf, err = TrainClassifier(s.cfg.Arch, s.Vocab, s.cfg.ModelSeed, s.cfg.TrainEpochs)
		if err != nil {
			return fmt.Errorf("core classifier: %w", err)
		}
		storage.Put(voiceProfile.weightsID, clf.SerializeWeights())
	}

	// Hybrid split: generate the HE keypair from the shared model seed
	// (the provider provisions one parameter set fleet-wide, like the
	// model pack), seal the secret key next to the weights, and stand up
	// the provider's blind-evaluation endpoint with the classifier's
	// first conv provisioned in the clear.
	var heParams he.Params
	if s.cfg.Mode == ModeHybridHE {
		heParams = he.DefaultParams()
		kp, err := he.KeyGen(heParams, s.cfg.ModelSeed)
		if err != nil {
			return fmt.Errorf("core he keygen: %w", err)
		}
		storage.Put(voiceProfile.heKeyID, kp.Secret.Marshal())
		s.HEPub = kp.Public
		if s.HEEval, err = he.NewEvaluator(heParams, s.Clock, s.Cost); err != nil {
			return fmt.Errorf("core he evaluator: %w", err)
		}
		providerEval, err := he.NewEvaluator(heParams, s.Clock, s.Cost)
		if err != nil {
			return fmt.Errorf("core he provider: %w", err)
		}
		s.HE = cloud.NewHEService(providerEval)
		split, err := classify.SplitText(clf)
		if err != nil {
			return fmt.Errorf("core he split: %w", err)
		}
		s.heSplit = split
		ps := split.Conv.Params()
		s.HE.ProvisionText(&he.Conv1D{
			K: split.Conv.K, Cin: split.Conv.Cin, Cout: split.Conv.Cout,
			W: ps[0].Value.Data, B: ps[1].Value.Data,
		})
	}

	// Cloud endpoint + handshake keys.
	keyRand := NewSeedReader(s.cfg.Seed^0xc10d, s.cfg.Seed+77)
	cloudID, err := relay.NewIdentity(keyRand)
	if err != nil {
		return fmt.Errorf("core cloud id: %w", err)
	}
	s.CloudSealed = cloud.NewService(cloud.NewIdentity(cloudID))
	s.Supplicant.Route(CloudTarget, s.CloudSealed)

	taID, err := relay.NewIdentity(keyRand)
	if err != nil {
		return fmt.Errorf("core ta id: %w", err)
	}
	if err := s.CloudSealed.Handshake(taID.PublicKey()); err != nil {
		return err
	}

	s.DriverPTA = NewDriverPTA(s.Driver)
	s.TEE.RegisterPTA(s.DriverPTA)

	// The attestation key lives with the TA: evidence is signed inside
	// the TEE, never by the normal world.
	var attestor *attest.Attestor
	if s.cfg.AttestKeySeed != 0 {
		attestor = attest.NewAttestor(s.cfg.DeviceID, attest.KeyFromSeed(s.cfg.AttestKeySeed))
	}

	ta, err := NewVoiceTA(VoiceTAConfig{
		TAConfig: TAConfig{
			TEE:          s.TEE,
			Storage:      storage,
			Clock:        s.Clock,
			Cost:         s.Cost,
			Seed:         s.cfg.ModelSeed,
			Attestor:     attestor,
			ModelVersion: s.cfg.ModelVersion,
			Hybrid:       s.cfg.Mode == ModeHybridHE,
			HEParams:     heParams,
		},
		Identity:       taID,
		CloudPub:       cloudID.PublicKey(),
		Recognizer:     s.Recognizer,
		Arch:           s.cfg.Arch,
		VocabSize:      s.Vocab.Size(),
		Vocab:          s.Vocab,
		Policy:         s.cfg.Policy,
		Filter:         s.cfg.Mode == ModeSecureFilter || s.cfg.Mode == ModeHybridHE,
		sharedClassify: s.cfg.SharedClassify,
	})
	if err != nil {
		return fmt.Errorf("core voice ta: %w", err)
	}
	s.VoiceTA = ta
	s.taClient = taClient{tee: s.TEE, profile: voiceProfile, ta: &ta.taLifecycle}
	s.TEE.RegisterTA(ta)
	return nil
}
