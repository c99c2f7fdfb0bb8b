package core

// Device factory: a uniform construction-and-run surface over the two
// peripheral classes (smart speaker, camera doorbell) so orchestration
// layers (internal/fleet) can instantiate mixed populations without
// caring which concrete pipeline sits behind a spec.

import (
	"fmt"

	"repro/internal/attest"
	"repro/internal/audio"
	"repro/internal/cloud"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/peripheral"
	"repro/internal/sensitive"
	"repro/internal/supplicant"
	"repro/internal/tz"
)

// BaselineAgentDigest is the measured identity of the normal-world
// baseline agent. Baseline deployments have no TEE, so their
// "attestation" is software-only — exactly as trustworthy as the OS it
// runs on. The verifier's policy makes that explicit by enrolling this
// digest as unversioned (baseline devices hold no provisioned model and
// are exempt from the minimum-version admission policy).
var BaselineAgentDigest = attest.MeasureCode("periguard", "normal-world/baseline-agent")

// DeviceKind selects the peripheral class.
type DeviceKind int

const (
	// DeviceSpeaker is the paper's smart speaker (mic → ASR → filter).
	DeviceSpeaker DeviceKind = iota + 1
	// DeviceDoorbell is the §IV.6 camera doorbell (frames → image filter).
	DeviceDoorbell
)

// String returns the kind name.
func (k DeviceKind) String() string {
	switch k {
	case DeviceSpeaker:
		return "speaker"
	case DeviceDoorbell:
		return "doorbell"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// ErrBadKind is returned for unknown device kinds.
var ErrBadKind = fmt.Errorf("%w: unknown device kind", ErrBadConfig)

// DeviceSpec parameterizes one fleet member.
type DeviceSpec struct {
	Kind DeviceKind
	Mode Mode
	// Seed is the device's own randomness; ModelSeed the provisioned
	// model's (0 = Seed). Fleets share one ModelSeed across members.
	// Everything else a speaker's Config or a doorbell's CameraConfig
	// sets takes its default: a fleet device runs the default classifier
	// (DefaultTextWeights) and filter policy.
	Seed      uint64
	ModelSeed uint64
	// Batch > 1 enables TA-side batched processing on secure speakers
	// (capped at MaxBatch).
	Batch int
	// DeviceID names the device on an attested ingest tier;
	// AttestKeySeed derives its attestation key (0 disables attestation);
	// ModelVersion is the provisioned pack version it boots with (0 = 1
	// when attestation is enabled). See Config.
	DeviceID      string
	AttestKeySeed uint64
	ModelVersion  uint64
	// SharedClassify marks a secure-filter speaker whose classify stage
	// is served by a shared cross-device scheduler; the per-device
	// classifier build is skipped. See Config.SharedClassify.
	SharedClassify bool
}

// speakerConfig is the speaker configuration the spec describes.
func (spec DeviceSpec) speakerConfig() Config {
	return Config{
		Mode:           spec.Mode,
		Seed:           spec.Seed,
		ModelSeed:      spec.ModelSeed,
		DeviceID:       spec.DeviceID,
		AttestKeySeed:  spec.AttestKeySeed,
		ModelVersion:   spec.ModelVersion,
		SharedClassify: spec.SharedClassify,
	}
}

// cameraConfig is the doorbell configuration the spec describes.
func (spec DeviceSpec) cameraConfig() CameraConfig {
	return CameraConfig{
		Mode:          spec.Mode,
		Seed:          spec.Seed,
		ModelSeed:     spec.ModelSeed,
		DeviceID:      spec.DeviceID,
		AttestKeySeed: spec.AttestKeySeed,
		ModelVersion:  spec.ModelVersion,
	}
}

// Pretrain warms every shared-model cache the given population needs —
// the ASR template pack per training condition and the text and image
// classifier weights per model seed — so that lazily constructed devices
// only ever hit memoized models. It applies the defaulting rules the
// per-device constructors apply.
func Pretrain(specs []DeviceSpec) error {
	vocab := sensitive.NewVocabulary()
	for _, spec := range specs {
		switch spec.Kind {
		case DeviceSpeaker:
			// Run the spec through the same defaulting NewSystem applies,
			// so the warmed cache keys are exactly the ones lazy
			// construction will look up.
			cfg := spec.speakerConfig()
			if err := cfg.fillDefaults(); err != nil {
				return fmt.Errorf("pretrain: %w", err)
			}
			voice := audio.DefaultVoice(cfg.Seed)
			voice.NoiseAmp = cfg.NoiseAmp
			if _, err := trainedModel(vocab, voice); err != nil {
				return fmt.Errorf("pretrain asr: %w", err)
			}
			if cfg.Mode == ModeSecureFilter || cfg.Mode == ModeHybridHE {
				if _, err := TextWeights(cfg.Arch, vocab, cfg.ModelSeed, cfg.TrainEpochs); err != nil {
					return fmt.Errorf("pretrain classifier: %w", err)
				}
			}
		case DeviceDoorbell:
			cfg := spec.cameraConfig()
			if err := cfg.fillDefaults(); err != nil {
				return fmt.Errorf("pretrain: %w", err)
			}
			if cfg.Mode != ModeBaseline {
				if _, err := ImageWeights(cfg.ModelSeed); err != nil {
					return fmt.Errorf("pretrain image classifier: %w", err)
				}
			}
		}
	}
	return nil
}

// Device is one constructed fleet member. Exactly one of Speaker and
// Doorbell is non-nil, matching Spec.Kind; shell is its device shell.
type Device struct {
	Spec     DeviceSpec
	Speaker  *System
	Doorbell *CameraSystem
	shell    *deviceShell

	// deviceLifecycle serves the device's Attest, UpdateModel,
	// ModelVersion, RotateKey and KeyEpoch: the TA's management client on
	// a secure device, the software agent on a baseline one.
	deviceLifecycle
	agent softAgent
}

// deviceLifecycle is a device's attestation and model lifecycle as the
// fleet drives it.
type deviceLifecycle interface {
	Attest(nonce attest.Nonce) (attest.Report, error)
	UpdateModel(pack attest.Pack, tok attest.ManifestToken) error
	ModelVersion() uint64
	RotateKey(tok attest.RotationToken) (uint64, error)
	KeyEpoch() uint64
}

// NewDevice builds the pipeline for the spec.
func NewDevice(spec DeviceSpec) (*Device, error) {
	d := &Device{Spec: spec}
	switch spec.Kind {
	case DeviceSpeaker:
		sys, err := NewSystem(spec.speakerConfig())
		if err != nil {
			return nil, fmt.Errorf("speaker: %w", err)
		}
		d.Speaker, d.shell = sys, &sys.deviceShell
	case DeviceDoorbell:
		sys, err := NewCameraSystem(spec.cameraConfig())
		if err != nil {
			return nil, fmt.Errorf("doorbell: %w", err)
		}
		d.Doorbell, d.shell = sys, &sys.deviceShell
	default:
		return nil, fmt.Errorf("%w: %d", ErrBadKind, int(spec.Kind))
	}
	d.deviceLifecycle = &d.shell.taClient
	if spec.Mode == ModeBaseline {
		d.agent.deviceID = spec.DeviceID
		if spec.AttestKeySeed != 0 {
			d.agent.attestor = attest.NewAttestor(spec.DeviceID, attest.KeyFromSeed(spec.AttestKeySeed))
		}
		d.deviceLifecycle = &d.agent
	}
	return d, nil
}

// softAgent is a baseline device's lifecycle. Baseline deployments have
// no TEE, so the normal-world agent signs its evidence in software
// (BaselineAgentDigest, model version 0) and holds no on-device model.
type softAgent struct {
	deviceID string
	attestor *attest.Attestor // nil when attestation is not provisioned
}

// Attest signs the agent's measurement over a verifier challenge.
func (a *softAgent) Attest(nonce attest.Nonce) (attest.Report, error) {
	if a.attestor == nil {
		return attest.Report{}, fmt.Errorf("device %s: attestation not provisioned", a.deviceID)
	}
	return a.attestor.Attest(nonce, attest.Measurement{Code: BaselineAgentDigest}), nil
}

// UpdateModel is a no-op: a baseline device holds no on-device model.
func (a *softAgent) UpdateModel(attest.Pack, attest.ManifestToken) error { return nil }

// ModelVersion is 0: a baseline device holds no on-device model.
func (a *softAgent) ModelVersion() uint64 { return 0 }

// RotateKey redeems a key-rotation token by rotating the software
// signer, returning the epoch it signs under afterwards.
func (a *softAgent) RotateKey(tok attest.RotationToken) (uint64, error) {
	if a.attestor == nil {
		return 0, fmt.Errorf("device %s: attestation not provisioned", a.deviceID)
	}
	next, err := a.attestor.Rotated(tok)
	if err != nil {
		return 0, fmt.Errorf("device %s: %w", a.deviceID, err)
	}
	a.attestor = next
	return next.Epoch(), nil
}

// KeyEpoch returns the epoch the software signer signs under.
func (a *softAgent) KeyEpoch() uint64 {
	if a.attestor == nil {
		return 0
	}
	return a.attestor.Epoch()
}

// SetTrace installs the device's sampled telemetry trace context (nil
// for untraced runs and sampled-out devices — the zero-cost path).
func (d *Device) SetTrace(tc *obs.TraceContext) { d.shell.SetTrace(tc) }

// Clock returns the device's virtual clock, so delivery-path wrappers
// (retry backoff, fault injectors) charge their virtual time to the
// right device.
func (d *Device) Clock() *tz.Clock { return d.shell.Clock }

// SetUplink reroutes the device's cloud-bound traffic through sink.
func (d *Device) SetUplink(sink supplicant.NetSink) { d.shell.SetUplink(sink) }

// CloudEndpoint returns the provider-side terminator of the device's
// traffic (nil for devices that never uplink: baseline doorbells).
func (d *Device) CloudEndpoint() cloud.Provider { return d.shell.CloudEndpoint() }

// DeviceWorkload is the input stream for one device run; the field
// matching the device's kind is used.
type DeviceWorkload struct {
	Utterances []sensitive.Utterance
	Scenes     []peripheral.Scene
}

// DeviceResult pairs a spec with the session outcome of its kind.
type DeviceResult struct {
	Spec    DeviceSpec
	Session *SessionResult       // speakers
	Camera  *CameraSessionResult // doorbells
}

// Run processes the workload end to end. Secure speakers with
// Spec.Batch > 1 take the TA-batched path.
func (d *Device) Run(w DeviceWorkload) (*DeviceResult, error) {
	if d.Speaker != nil {
		res, err := d.Speaker.RunSessionBatched(w.Utterances, d.Spec.Batch)
		if err != nil {
			return nil, err
		}
		return &DeviceResult{Spec: d.Spec, Session: res}, nil
	}
	res, err := d.Doorbell.RunSession(w.Scenes)
	if err != nil {
		return nil, err
	}
	return &DeviceResult{Spec: d.Spec, Camera: res}, nil
}

// Items returns how many items the run was given: utterances or frames.
func (r *DeviceResult) Items() int {
	if r.Session != nil {
		return len(r.Session.Utterances)
	}
	return r.Camera.Frames
}

// Expired returns how many emitted items the device's uplink gave up on
// when their retry budget ran out.
func (r *DeviceResult) Expired() int {
	if r.Session != nil {
		return r.Session.ExpiredEvents
	}
	return r.Camera.ExpiredFrames
}

// Leaked returns what private content reached the provider: sensitive
// tokens from a speaker, person frames from a doorbell.
func (r *DeviceResult) Leaked() (sensitiveTokens, personFrames int) {
	if r.Session != nil {
		return r.Session.CloudAudit.SensitiveTokens, 0
	}
	return 0, r.Camera.ForwardedPersons
}

// Latency returns the run's per-item virtual-cycle recorder.
func (r *DeviceResult) Latency() *metrics.Recorder {
	if r.Session != nil {
		return r.Session.Latency
	}
	return r.Camera.Latency
}

// CloudEvents returns how many cloud-bound payloads the device emitted
// (the number its shard must have ingested for no frame to be lost).
func (r *DeviceResult) CloudEvents() int {
	if r.Session != nil {
		n := 0
		if r.Spec.Mode == ModeBaseline {
			return len(r.Session.Utterances)
		}
		for _, u := range r.Session.Utterances {
			if u.Forwarded {
				n++
			}
		}
		return n
	}
	if r.Spec.Mode == ModeBaseline {
		return 0 // baseline doorbells never uplink in this model
	}
	return r.Camera.ForwardedFrames
}
