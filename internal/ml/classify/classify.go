// Package classify builds the paper's §IV.4 sensitive-content classifiers:
// a CNN, a Transformer encoder, and the hybrid CNN+Transformer model, all
// operating on token sequences produced by the in-TEE transcriber, plus a
// small CNN for the camera path. Each model reports its parameter count
// and memory footprint so the TEE-fit experiment can check it against the
// secure-RAM budget (§V: "TrustZone provides relatively small memory
// resources").
package classify

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/ml/layers"
	"repro/internal/ml/tensor"
)

// Errors returned by the package.
var (
	// ErrBadArch is returned for unknown architectures.
	ErrBadArch = errors.New("classify: unknown architecture")
	// ErrBadWeights is returned when deserializing incompatible weights.
	ErrBadWeights = errors.New("classify: incompatible weights")
)

// Arch selects a classifier architecture.
type Arch int

const (
	// ArchCNN is the convolutional text classifier.
	ArchCNN Arch = iota + 1
	// ArchTransformer is the self-attention text classifier.
	ArchTransformer
	// ArchHybrid uses a CNN feature extractor under a transformer
	// classifier, the paper's combined option.
	ArchHybrid
)

// String returns the architecture name.
func (a Arch) String() string {
	switch a {
	case ArchCNN:
		return "cnn"
	case ArchTransformer:
		return "transformer"
	case ArchHybrid:
		return "hybrid"
	default:
		return fmt.Sprintf("arch(%d)", int(a))
	}
}

// ParseArch converts a name to an Arch.
func ParseArch(s string) (Arch, error) {
	switch s {
	case "cnn":
		return ArchCNN, nil
	case "transformer":
		return ArchTransformer, nil
	case "hybrid":
		return ArchHybrid, nil
	default:
		return 0, fmt.Errorf("%w: %q", ErrBadArch, s)
	}
}

// Classifier is a binary sensitive/benign classifier over fixed-shape
// inputs (padded token sequences for text, normalized pixels for images).
type Classifier struct {
	arch    Arch
	inShape []int // per-sample feature shape
	model   *layers.Sequential
	params  int // trainable parameter count, fixed by the architecture
	seqLen  int // text models: tokens per input
	isText  bool
	in      tensor.Tensor // PredictBatch's input, [batch, inShape...]
}

// newClassifier wraps a built model; text models set seqLen and isText.
func newClassifier(arch Arch, model *layers.Sequential, inShape ...int) *Classifier {
	return &Classifier{
		arch:    arch,
		inShape: inShape,
		model:   model,
		params:  layers.ParamCount([]layers.Layer{model}),
		in:      tensor.Tensor{Shape: append([]int{0}, inShape...)},
	}
}

// NewText builds a text classifier of the given architecture over a
// vocabulary of vocab tokens and sequences padded to seqLen.
func NewText(arch Arch, rng *rand.Rand, vocab, seqLen int) (*Classifier, error) {
	const d = 16
	var model *layers.Sequential
	switch arch {
	case ArchCNN:
		model = layers.NewSequential("cnn",
			layers.NewEmbedding(rng, vocab, d),
			layers.NewConv1D(rng, 3, d, 32),
			layers.NewReLU(),
			layers.NewGlobalMaxPool1D(),
			layers.NewDense(rng, 32, 2),
		)
	case ArchTransformer:
		mhsa, err := layers.NewMultiHeadSelfAttention(rng, d, 2)
		if err != nil {
			return nil, err
		}
		model = layers.NewSequential("transformer",
			layers.NewEmbedding(rng, vocab, d),
			layers.NewPositionalEncoding(seqLen, d),
			mhsa,
			layers.NewLayerNorm(d),
			layers.NewGELU(),
			layers.NewMeanPool1D(),
			layers.NewDense(rng, d, 2),
		)
	case ArchHybrid:
		mhsa, err := layers.NewMultiHeadSelfAttention(rng, d, 2)
		if err != nil {
			return nil, err
		}
		model = layers.NewSequential("hybrid",
			layers.NewEmbedding(rng, vocab, d),
			layers.NewConv1D(rng, 3, d, d), // CNN feature extractor
			layers.NewReLU(),
			layers.NewPositionalEncoding(seqLen, d),
			mhsa, // transformer classifier head
			layers.NewLayerNorm(d),
			layers.NewMeanPool1D(),
			layers.NewDense(rng, d, 2),
		)
	default:
		return nil, fmt.Errorf("%w: %d", ErrBadArch, int(arch))
	}
	c := newClassifier(arch, model, seqLen)
	c.seqLen, c.isText = seqLen, true
	return c, nil
}

// NewImage builds the camera-path classifier for h-by-w grayscale frames.
func NewImage(rng *rand.Rand, h, w int) (*Classifier, error) {
	if h < 4 || w < 4 || (h-2)%2 != 0 || (w-2)%2 != 0 {
		return nil, fmt.Errorf("%w: image %dx%d (need conv+pool-compatible dims)", ErrBadArch, h, w)
	}
	flat := (h - 2) / 2 * ((w - 2) / 2) * 4
	model := layers.NewSequential("imagecnn",
		layers.NewConv2D(rng, 3, 1, 4),
		layers.NewReLU(),
		layers.NewMaxPool2D(2),
		layers.NewFlatten(),
		layers.NewDense(rng, flat, 2),
	)
	return newClassifier(ArchCNN, model, h, w, 1), nil
}

// Arch returns the classifier architecture.
func (c *Classifier) Arch() Arch { return c.arch }

// Model exposes the underlying layer stack (for the trainer).
func (c *Classifier) Model() *layers.Sequential { return c.model }

// InputShape returns the per-sample feature shape.
func (c *Classifier) InputShape() []int { return append([]int(nil), c.inShape...) }

// FeatureLen returns the flat feature length of one sample.
func (c *Classifier) FeatureLen() int {
	n := 1
	for _, d := range c.inShape {
		n *= d
	}
	return n
}

// TokensToFeatures pads/truncates a token-id sequence to the model's
// input length (text models only).
func (c *Classifier) TokensToFeatures(ids []int) []float32 {
	out := make([]float32, c.seqLen)
	for i := 0; i < c.seqLen && i < len(ids); i++ {
		out[i] = float32(ids[i])
	}
	return out
}

// Predict classifies one sample; class 1 means "sensitive".
func (c *Classifier) Predict(features []float32) (int, error) {
	classes, err := c.PredictBatch([][]float32{features})
	if err != nil {
		return 0, err
	}
	return classes[0], nil
}

// PredictBatch classifies a batch of samples. Only the returned class
// slice is new: the input tensor and every activation are buffers the
// classifier and its layers keep across calls (the ownership rule of
// package layers), so after a first call at a batch size a call
// allocates nothing else. Like Forward, it must not run concurrently on
// one classifier, nor with a split that aliases its layers.
func (c *Classifier) PredictBatch(batch [][]float32) ([]int, error) {
	if len(batch) == 0 {
		return nil, nil
	}
	featLen := c.FeatureLen()
	x := &c.in
	n := len(batch) * featLen
	if cap(x.Data) < n {
		x.Data = make([]float32, n)
	}
	x.Data, x.Shape[0] = x.Data[:n], len(batch)
	for i, f := range batch {
		if len(f) != featLen {
			return nil, fmt.Errorf("%w: sample %d has %d features, want %d", ErrBadWeights, i, len(f), featLen)
		}
		copy(x.Data[i*featLen:(i+1)*featLen], f)
	}
	logits, err := c.model.Forward(x)
	if err != nil {
		return nil, err
	}
	return tensor.ArgMaxRows(logits)
}

// ParamCount returns the number of trainable parameters.
func (c *Classifier) ParamCount() int { return c.params }

// MemoryBytes estimates the in-TEE resident footprint: float32 weights
// plus a 25% activation/workspace overhead, the accounting the TEE-fit
// experiment checks against the secure heap budget.
func (c *Classifier) MemoryBytes() int {
	weights := c.ParamCount() * 4
	return weights + weights/4
}

// EstimateMACs approximates multiply-accumulate operations for one
// inference, used by the cost model to charge TEE cycles.
func (c *Classifier) EstimateMACs() int {
	// Two MACs per parameter per input position is a standard first-order
	// estimate for the small sequence lengths used here.
	return 2 * c.ParamCount()
}

// FitsIn reports whether the model fits a secure-memory budget.
func (c *Classifier) FitsIn(budgetBytes int) bool {
	return c.MemoryBytes() <= budgetBytes
}

// --- weight (de)serialization -----------------------------------------------------

const weightsMagic = 0x54454557 // "WEET"

// SerializeWeights flattens all parameters into the portable blob that
// the TA seals into OP-TEE secure storage and LoadText or LoadImage load.
func (c *Classifier) SerializeWeights() []byte {
	params := c.model.Params()
	size := 12
	for _, p := range params {
		size += 4 + p.Value.Len()*4
	}
	le := binary.LittleEndian
	out := le.AppendUint32(make([]byte, 0, size), weightsMagic)
	out = le.AppendUint32(out, uint32(c.arch))
	out = le.AppendUint32(out, uint32(len(params)))
	for _, p := range params {
		out = le.AppendUint32(out, uint32(p.Value.Len()))
		for _, v := range p.Value.Data {
			out = le.AppendUint32(out, math.Float32bits(v))
		}
	}
	return out
}

// LoadText builds NewText's graph for a weights blob's architecture with
// a nil rng (zero weights, nothing drawn) and fills every parameter from
// the blob. A blob that does not fit that graph is ErrBadWeights.
func LoadText(blob []byte, vocab, seqLen int) (*Classifier, error) {
	return load(blob, func(arch Arch) (*Classifier, error) { return NewText(arch, nil, vocab, seqLen) })
}

// LoadImage is LoadText for the camera classifier over h-by-w frames.
func LoadImage(blob []byte, h, w int) (*Classifier, error) {
	return load(blob, func(Arch) (*Classifier, error) { return NewImage(nil, h, w) })
}

// load builds the graph for the blob's architecture and fills it.
func load(blob []byte, build func(Arch) (*Classifier, error)) (*Classifier, error) {
	get32 := func(off int) uint32 { return binary.LittleEndian.Uint32(blob[off:]) }
	if len(blob) < 12 || get32(0) != weightsMagic {
		return nil, fmt.Errorf("%w: bad header", ErrBadWeights)
	}
	arch := Arch(get32(4))
	c, err := build(arch)
	if err == nil && c.arch != arch {
		err = fmt.Errorf("%v blob for a %v model", arch, c.arch)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadWeights, err)
	}
	params, size := c.model.Params(), 12
	for _, p := range params {
		size += 4 + p.Value.Len()*4
	}
	if int(get32(8)) != len(params) || len(blob) != size {
		return nil, fmt.Errorf("%w: %d bytes for %d params, model has %d", ErrBadWeights, len(blob), get32(8), len(params))
	}
	off := 12 // every param's length matches below, so no read passes the end
	for _, p := range params {
		if int(get32(off)) != p.Value.Len() {
			return nil, fmt.Errorf("%w: param %s has %d elements, blob %d", ErrBadWeights, p.Name, p.Value.Len(), get32(off))
		}
		for i := range p.Value.Data {
			p.Value.Data[i] = math.Float32frombits(get32(off + 4 + 4*i))
		}
		off += 4 + 4*p.Value.Len()
	}
	return c, nil
}
