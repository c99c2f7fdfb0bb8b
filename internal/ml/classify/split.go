package classify

// Hybrid HE+TEE model splits. ModeHybridHE partitions a classifier into
// three stages with three different trust domains:
//
//   head (normal world)  — feature extraction on the device: token
//                          embedding for text, pixel normalization for
//                          images. Runs on data the normal world already
//                          holds, so it leaks nothing new.
//   HE layer (provider)  — the first linear layer (Conv1D / Conv2D),
//                          evaluated homomorphically under the
//                          provider's key. The provider holds these
//                          weights in the clear (it trained the model)
//                          but never sees a cleartext activation.
//   tail (TEE)           — everything non-linear (ReLU, pooling, dense
//                          head, argmax), run inside the TA after the
//                          sealed HE secret key decrypts the handoff.
//
// The split aliases the classifier's own layers — no copies — so the
// three stages run exactly the weights the classifier was loaded with.

import (
	"fmt"

	"repro/internal/ml/layers"
	"repro/internal/ml/tensor"
)

// TextSplit is the hybrid partition of the CNN text classifier.
type TextSplit struct {
	// Embed is the normal-world head (token ids → embeddings).
	Embed *layers.Embedding
	// Conv is the provider's HE layer (weights provisioned in the clear,
	// activations only ever encrypted).
	Conv *layers.Conv1D
	// Tail is the in-TA remainder: ReLU → global max pool → dense.
	Tail *layers.Sequential
	// SeqLen is the padded token-sequence length the head consumes.
	SeqLen int
}

// SplitText partitions a CNN text classifier for hybrid HE+TEE
// inference. Only ArchCNN splits: its prefix is exactly one embedding
// and one linear conv, which is what the leveled-HE depth budget
// supports.
func SplitText(c *Classifier) (*TextSplit, error) {
	if !c.isText || c.arch != ArchCNN {
		return nil, fmt.Errorf("%w: hybrid split needs the CNN text classifier, got %v", ErrBadArch, c.arch)
	}
	ls := c.model.Layers()
	embed, ok1 := ls[0].(*layers.Embedding)
	conv, ok2 := ls[1].(*layers.Conv1D)
	if !ok1 || !ok2 {
		return nil, fmt.Errorf("%w: unexpected CNN prefix %T/%T", ErrBadArch, ls[0], ls[1])
	}
	return &TextSplit{
		Embed:  embed,
		Conv:   conv,
		Tail:   layers.NewSequential(c.model.Name()+"-tail", ls[2:]...),
		SeqLen: c.seqLen,
	}, nil
}

// EmbedFeatures runs the normal-world head over one padded token
// sequence (as produced by TokensToFeatures), returning the flat
// embedding slots and their [SeqLen, D] shape — the plaintext the
// device encrypts under the provider's HE key. The slots are the
// embedding layer's own output buffer (the ownership rule of package
// layers): they stay valid until the next EmbedFeatures or forward pass
// of the classifier the split came from.
func (s *TextSplit) EmbedFeatures(features []float32) ([]float32, []int, error) {
	if len(features) != s.SeqLen {
		return nil, nil, fmt.Errorf("%w: %d features, head wants %d", ErrBadWeights, len(features), s.SeqLen)
	}
	x := tensor.New(1, s.SeqLen)
	copy(x.Data, features)
	out, err := s.Embed.Forward(x)
	if err != nil {
		return nil, nil, err
	}
	return out.Data, []int{s.SeqLen, s.Embed.D}, nil
}

// TailPredict runs the in-TA tail over one decrypted HE-layer output
// (flat slots plus per-sample shape); class 1 means "sensitive".
func (s *TextSplit) TailPredict(data []float32, shape []int) (int, error) {
	return PredictTail(s.Tail, data, shape)
}

// ImageSplit is the hybrid partition of the camera classifier.
type ImageSplit struct {
	// Conv is the provider's HE layer.
	Conv *layers.Conv2D
	// Tail is the in-TA remainder: ReLU → max pool → flatten → dense.
	Tail *layers.Sequential
	// H, W are the grayscale frame dimensions the pipeline consumes.
	H, W int
}

// SplitImage partitions the camera classifier for hybrid HE+TEE
// inference.
func SplitImage(c *Classifier) (*ImageSplit, error) {
	if c.isText || len(c.inShape) != 3 {
		return nil, fmt.Errorf("%w: hybrid split needs the image classifier", ErrBadArch)
	}
	ls := c.model.Layers()
	conv, ok := ls[0].(*layers.Conv2D)
	if !ok {
		return nil, fmt.Errorf("%w: unexpected image prefix %T", ErrBadArch, ls[0])
	}
	return &ImageSplit{
		Conv: conv,
		Tail: layers.NewSequential(c.model.Name()+"-tail", ls[1:]...),
		H:    c.inShape[0],
		W:    c.inShape[1],
	}, nil
}

// TailPredict runs the in-TA tail over one decrypted HE-layer output;
// class 1 means "person present".
func (s *ImageSplit) TailPredict(data []float32, shape []int) (int, error) {
	return PredictTail(s.Tail, data, shape)
}

// SplitTail returns the in-TA tail of the classifier's hybrid split: the
// TextSplit's for a text classifier, the ImageSplit's for an image one.
func SplitTail(c *Classifier) (*layers.Sequential, error) {
	if c.isText {
		s, err := SplitText(c)
		if err != nil {
			return nil, err
		}
		return s.Tail, nil
	}
	s, err := SplitImage(c)
	if err != nil {
		return nil, err
	}
	return s.Tail, nil
}

// PredictTail runs a split's in-TA tail over one decrypted HE-layer
// output of the given shape.
func PredictTail(tail *layers.Sequential, data []float32, shape []int) (int, error) {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		return 0, fmt.Errorf("%w: %d values for shape %v", ErrBadWeights, len(data), shape)
	}
	x := tensor.New(append([]int{1}, shape...)...)
	copy(x.Data, data)
	logits, err := tail.Forward(x)
	if err != nil {
		return 0, err
	}
	classes, err := tensor.ArgMaxRows(logits)
	if err != nil {
		return 0, err
	}
	return classes[0], nil
}
