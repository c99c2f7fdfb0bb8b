// Package repro is PeriGuard: a from-scratch Go reproduction of
// "Enhancing IoT Security and Privacy with Trusted Execution Environments
// and Machine Learning" (Yuhala, DSN 2023 Doctoral Forum).
//
// PeriGuard keeps peripheral data (microphone audio, camera frames) out of
// the hands of a compromised OS and an over-curious cloud provider by
// (1) running the peripheral driver inside a simulated Arm TrustZone TEE
// (OP-TEE model) so raw data never touches normal-world memory, and
// (2) transcribing and classifying the data inside a trusted application,
// filtering sensitive content before it is relayed — over an authenticated
// encrypted channel the untrusted supplicant merely ferries — to the cloud.
//
// The package exposes the three pillars of the paper:
//
//   - the end-to-end pipeline (New/Run) across three deployment modes,
//   - the camera-path sensitive-content filter (TrainCameraFilter),
//   - the driver TCB minimization workflow (MinimizeTCB).
//
// Everything underneath — TrustZone machine, physical memory and TZASC,
// I2S bus, kernel, driver, OP-TEE, ML stack, speech recognizer, relay,
// cloud — lives in internal/ packages and is fully simulated, so results
// are deterministic given a seed.
package repro

import (
	"errors"
	"fmt"
	"math/rand/v2"

	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/experiments"
	"repro/internal/ftrace"
	"repro/internal/ml/classify"
	"repro/internal/ml/train"
	"repro/internal/peripheral"
	"repro/internal/relay"
	"repro/internal/sensitive"
	"repro/internal/tcb"
)

// Mode selects the deployment under test.
type Mode int

const (
	// Baseline runs the driver in the untrusted kernel and ships raw audio
	// to the cloud (the deployment behind the paper's §I leak incidents).
	Baseline Mode = iota + 1
	// SecureNoFilter ports the driver into the TEE but relays full
	// transcripts.
	SecureNoFilter
	// SecureFilter is the paper's complete design: in-TEE driver, in-TEE
	// ML filter, sanitized relay.
	SecureFilter
)

// String returns the mode name.
func (m Mode) String() string { return coreMode(m).String() }

func coreMode(m Mode) core.Mode {
	switch m {
	case Baseline:
		return core.ModeBaseline
	case SecureNoFilter:
		return core.ModeSecureNoFilter
	case SecureFilter:
		return core.ModeSecureFilter
	default:
		return core.Mode(0)
	}
}

// Arch selects the TA classifier architecture (paper §IV.4).
type Arch int

const (
	// CNN is the convolutional text classifier.
	CNN Arch = iota + 1
	// Transformer is the self-attention classifier.
	Transformer
	// Hybrid combines a CNN feature extractor with a transformer head.
	Hybrid
)

// String returns the architecture name.
func (a Arch) String() string { return coreArch(a).String() }

func coreArch(a Arch) classify.Arch {
	switch a {
	case CNN:
		return classify.ArchCNN
	case Transformer:
		return classify.ArchTransformer
	case Hybrid:
		return classify.ArchHybrid
	default:
		return classify.Arch(0)
	}
}

// Policy selects the filter action for flagged utterances.
type Policy int

const (
	// PassThrough forwards everything (no filtering).
	PassThrough Policy = iota + 1
	// Redact replaces private tokens with a placeholder.
	Redact
	// Block drops flagged utterances entirely.
	Block
)

// String returns the policy name.
func (p Policy) String() string { return corePolicy(p).String() }

func corePolicy(p Policy) relay.Policy {
	switch p {
	case PassThrough:
		return relay.PolicyPassThrough
	case Redact:
		return relay.PolicyRedact
	case Block:
		return relay.PolicyBlock
	default:
		return relay.Policy(0)
	}
}

// Config parameterizes a System. The zero value is invalid; Mode is
// required, everything else defaults sensibly (CNN classifier, Block
// policy, 4 KiB DMA buffers, seed 1).
type Config struct {
	Mode Mode
	// Arch selects the classifier (SecureFilter mode only).
	Arch Arch
	// Policy selects the filter action (SecureFilter mode only).
	Policy Policy
	// BufferBytes is the driver DMA buffer size.
	BufferBytes int
	// Seed fixes all randomness end to end.
	Seed uint64
	// NoiseAmp sets the synthetic speaker's background noise.
	NoiseAmp float64
}

// Utterance is one spoken input with its ground-truth label.
type Utterance struct {
	Words     []string
	Sensitive bool
}

// GenerateUtterances produces a labelled smart-home workload: routine
// assistant commands mixed with utterances carrying private content
// (credentials, finances, health), deterministic per seed.
func GenerateUtterances(n int, sensitiveFraction float64, seed uint64) ([]Utterance, error) {
	corpus, err := sensitive.Generate(sensitive.GenConfig{
		N: n, SensitiveFraction: sensitiveFraction, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	out := make([]Utterance, len(corpus))
	for i, u := range corpus {
		out[i] = Utterance{Words: u.Words, Sensitive: u.Sensitive}
	}
	return out, nil
}

// System is one device-plus-cloud instance.
type System struct {
	inner *core.System
}

// New builds a system for the configuration.
func New(cfg Config) (*System, error) {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	inner, err := core.NewSystem(core.Config{
		Mode:     coreMode(cfg.Mode),
		Arch:     coreArch(cfg.Arch),
		Policy:   corePolicy(cfg.Policy),
		BufBytes: cfg.BufferBytes,
		Seed:     cfg.Seed,
		NoiseAmp: cfg.NoiseAmp,
	})
	if err != nil {
		return nil, err
	}
	return &System{inner: inner}, nil
}

// UtteranceReport is the per-utterance outcome.
type UtteranceReport struct {
	Words      []string
	Sensitive  bool
	Transcript []string // device-side transcript (secure modes)
	Forwarded  bool
	Redacted   int
	// LatencyCycles is the virtual CPU time the utterance consumed.
	LatencyCycles uint64
}

// Result aggregates one session.
type Result struct {
	Mode Mode

	// Privacy outcomes.
	CloudSensitiveTokens int // private tokens the provider observed
	CloudTokens          int // all tokens the provider observed
	CloudAudioBytes      int // raw audio bytes the provider observed
	SnoopAttempts        int // compromised-OS buffer reads attempted
	SnoopBlocked         int // rejected by the TZASC
	SnoopBytesRecovered  int
	SupplicantLeaks      int // plaintext private tokens seen by the daemon
	FalseBlockRate       float64

	// Performance outcomes.
	MeanLatencyCycles float64
	P99LatencyCycles  float64
	WorldSwitches     uint64
	RadioBytes        uint64
	EnergyTotalMJ     float64
	EnergyComputeMJ   float64
	EnergyRadioMJ     float64

	Utterances []UtteranceReport
}

// Run processes the utterances end to end and returns the aggregate.
func (s *System) Run(utterances []Utterance) (*Result, error) {
	in := make([]sensitive.Utterance, len(utterances))
	for i, u := range utterances {
		in[i] = sensitive.Utterance{Words: u.Words, Sensitive: u.Sensitive}
	}
	res, err := s.inner.RunSession(in)
	if err != nil {
		return nil, err
	}
	out := &Result{
		Mode:                 Mode(res.Mode),
		CloudSensitiveTokens: res.CloudAudit.SensitiveTokens,
		CloudTokens:          res.CloudAudit.TokensSeen,
		CloudAudioBytes:      res.CloudAudit.AudioBytes,
		SnoopAttempts:        res.Snoop.Attempts,
		SnoopBlocked:         res.Snoop.Blocked,
		SnoopBytesRecovered:  res.Snoop.BytesRecovered,
		SupplicantLeaks:      res.SupplicantPlaintextTokens,
		FalseBlockRate:       res.FalseBlockRate(),
		MeanLatencyCycles:    res.Latency.Mean(),
		P99LatencyCycles:     res.Latency.Percentile(99),
		WorldSwitches:        res.MonitorStats.Switches,
		RadioBytes:           res.RadioBytes,
		EnergyTotalMJ:        res.Energy.TotalmJ(),
		EnergyComputeMJ:      res.Energy.CPUmJ + res.Energy.SecuremJ + res.Energy.SwitchmJ,
		EnergyRadioMJ:        res.Energy.RadiomJ,
	}
	for _, u := range res.Utterances {
		out.Utterances = append(out.Utterances, UtteranceReport{
			Words:         u.Truth.Words,
			Sensitive:     u.Truth.Sensitive,
			Transcript:    u.Transcript,
			Forwarded:     u.Forwarded,
			Redacted:      u.Redacted,
			LatencyCycles: uint64(u.Cycles),
		})
	}
	return out, nil
}

// Image is a grayscale camera frame.
type Image struct {
	W, H int
	Pix  []uint8
}

// SyntheticFrame renders a deterministic camera frame; person selects the
// sensitive scene (a person present) versus an empty room.
func SyntheticFrame(person bool, seed uint64) Image {
	scene := peripheral.SceneEmpty
	if person {
		scene = peripheral.ScenePerson
	}
	im := peripheral.SynthesizeImage(scene, seed)
	return Image{W: im.W, H: im.H, Pix: im.Pix}
}

// CameraFilter is the camera-path sensitive-content classifier (paper
// §IV.4: "for an image analysis based system, a pre-trained ML classifier
// alone will be sufficient").
type CameraFilter struct {
	clf *classify.Classifier
}

// TrainCameraFilter trains the image classifier on synthetic frames.
func TrainCameraFilter(seed uint64) (*CameraFilter, error) {
	rng := rand.New(rand.NewPCG(seed, seed^0xca3))
	clf, err := classify.NewImage(rng, 24, 24)
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
	if _, err := train.Fit(clf.Model(), train.NewAdam(0.005), samples, train.Config{
		Epochs: 6, BatchSize: 16, Seed: seed, Shape: clf.InputShape(),
	}); err != nil {
		return nil, err
	}
	return &CameraFilter{clf: clf}, nil
}

// Sensitive reports whether the frame contains sensitive content (a
// person). Frames flagged sensitive must not leave the TEE.
func (c *CameraFilter) Sensitive(im Image) (bool, error) {
	if im.W*im.H != len(im.Pix) {
		return false, errors.New("repro: image dimensions inconsistent")
	}
	feats := make([]float32, len(im.Pix))
	for i, p := range im.Pix {
		feats[i] = float32(p) / 255
	}
	cls, err := c.clf.Predict(feats)
	if err != nil {
		return false, err
	}
	return cls == 1, nil
}

// ParamCount returns the camera filter's parameter count.
func (c *CameraFilter) ParamCount() int { return c.clf.ParamCount() }

// TCBReport summarizes driver TCB minimization (paper §IV.2).
type TCBReport struct {
	FullFunctions    int
	FullLoC          int
	FullBytes        int
	MinimalFunctions int
	MinimalLoC       int
	MinimalBytes     int
	LoCReductionPct  float64
	// TracedFunctions are the functions the capture task executed.
	TracedFunctions []string
	// ExcludeDirectives are the conditional-compilation flags that strip
	// everything else from the OP-TEE image.
	ExcludeDirectives []string
}

// MinimizeTCB runs the paper's tracing workflow: execute one capture task
// under the kernel tracer (the traced capture of experiment E6), compute
// the minimal function set, and build the reduced OP-TEE driver image
// (static-closure policy, so the image is link-complete).
func MinimizeTCB() (*TCBReport, error) {
	traced, err := experiments.TraceCapture()
	if err != nil {
		return nil, err
	}
	table, err := driver.BuildTable()
	if err != nil {
		return nil, err
	}
	full := table.FullImage()
	minImg, err := table.BuildImage("capture-minimal", traced, tcb.StaticClosure)
	if err != nil {
		return nil, err
	}
	red := tcb.Compare(full, minImg)
	return &TCBReport{
		FullFunctions:     red.FullFuncs,
		FullLoC:           red.FullLoC,
		FullBytes:         red.FullBytes,
		MinimalFunctions:  red.MinFuncs,
		MinimalLoC:        red.MinLoC,
		MinimalBytes:      red.MinBytes,
		LoCReductionPct:   red.LoCCutPct,
		TracedFunctions:   ftrace.SetNames(traced),
		ExcludeDirectives: table.ExcludeDirectives(minImg),
	}, nil
}

// Version identifies the library.
const Version = "1.0.0"

// String renders a compact result summary.
func (r *Result) String() string {
	return fmt.Sprintf(
		"%s: cloud saw %d sensitive tokens (%d total); snoop %d/%d blocked (%d bytes leaked); "+
			"supplicant leaks %d; mean latency %.0f cycles; energy %.2f mJ",
		r.Mode, r.CloudSensitiveTokens, r.CloudTokens,
		r.SnoopBlocked, r.SnoopAttempts, r.SnoopBytesRecovered,
		r.SupplicantLeaks, r.MeanLatencyCycles, r.EnergyTotalMJ)
}
