package classify

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/ml/layers"
	"repro/internal/ml/tensor"
)

// reuseCase builds one classifier from a fixed seed and draws samples
// for it.
type reuseCase struct {
	name   string
	mk     func() (*Classifier, error)
	sample func(rng *rand.Rand, c *Classifier) []float32
}

func reuseCases() []reuseCase {
	pixels := func(rng *rand.Rand, c *Classifier) []float32 {
		f := make([]float32, c.FeatureLen())
		for i := range f {
			if rng.Float64() >= 0.2 { // a fifth stay exact zeros
				f[i] = float32(rng.NormFloat64())
			}
		}
		return f
	}
	tokens := func(rng *rand.Rand, c *Classifier) []float32 {
		ids := make([]int, rng.IntN(c.seqLen+1))
		for i := range ids {
			ids[i] = rng.IntN(22) - 1 // -1 and 20 are out of range
		}
		return c.TokensToFeatures(ids)
	}
	return []reuseCase{
		{"image", func() (*Classifier, error) { return NewImage(rand.New(rand.NewPCG(26, 1)), 10, 12) }, pixels},
		{"cnn-text", func() (*Classifier, error) { return NewText(ArchCNN, rand.New(rand.NewPCG(26, 2)), 20, 12) }, tokens},
	}
}

// TestLayerBufferReuseGolden drives one image classifier and one CNN
// text classifier through batch sizes 8, 1, 3, 8, two passes at each.
// The classes PredictBatch returns, and the logits, input gradient and
// every parameter gradient of a forward/backward pass through the model,
// must match bit for bit a fresh classifier holding the same parameters
// and gradients: no buffer the classifier or its layers keep may carry a
// stale element into the next call.
func TestLayerBufferReuseGolden(t *testing.T) {
	for i, tc := range reuseCases() {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewPCG(26, uint64(10+i)))
			reused, err := tc.mk()
			if err != nil {
				t.Fatal(err)
			}
			layers.EnableGrad(reused.Model())
			// Non-zero biases and prior gradients, as after training.
			for _, p := range reused.Model().Params() {
				for j := range p.Value.Data {
					p.Value.Data[j] = float32(rng.NormFloat64() * 0.5)
					p.Grad.Data[j] = float32(rng.NormFloat64())
				}
			}
			for _, b := range []int{8, 1, 3, 8} {
				for pass := 0; pass < 2; pass++ {
					name := fmt.Sprintf("batch %d pass %d", b, pass)
					fresh, err := tc.mk()
					if err != nil {
						t.Fatal(err)
					}
					copyClassifierState(reused, fresh)
					batch := make([][]float32, b)
					for j := range batch {
						batch[j] = tc.sample(rng, reused)
					}
					got, err := reused.PredictBatch(batch)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					want, err := fresh.PredictBatch(batch)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if !slices.Equal(got, want) {
						t.Fatalf("%s: classes %v, want %v", name, got, want)
					}
					x := tensor.New(append([]int{b}, reused.InputShape()...)...)
					for j, f := range batch {
						copy(x.Data[j*len(f):], f)
					}
					sameModelStep(t, name, rng, reused.Model(), fresh.Model(), x)
				}
			}
		})
	}
}

// copyClassifierState copies the parameter values and gradients of from
// into to, giving to's parameters gradients first.
func copyClassifierState(from, to *Classifier) {
	layers.EnableGrad(to.Model())
	tp := to.Model().Params()
	for i, p := range from.Model().Params() {
		copy(tp[i].Value.Data, p.Value.Data)
		copy(tp[i].Grad.Data, p.Grad.Data)
	}
}

// sameModelStep runs one forward/backward pair through reused and fresh
// on x, with dOut drawn from rng, and requires bit-identical logits,
// input gradients and parameter gradients.
func sameModelStep(t *testing.T, name string, rng *rand.Rand, reused, fresh *layers.Sequential, x *tensor.Tensor) {
	t.Helper()
	got, err := reused.Forward(x)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want, err := fresh.Forward(x)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	assertBits(t, name+" logits", got, want)
	dOut := tensor.New(want.Shape...)
	for i := range dOut.Data {
		dOut.Data[i] = float32(rng.NormFloat64())
	}
	gotIn, err := reused.Backward(dOut)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	wantIn, err := fresh.Backward(dOut)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	assertBits(t, name+" dIn", gotIn, wantIn)
	fp := fresh.Params()
	for i, p := range reused.Params() {
		assertBits(t, name+" "+p.Name+".Grad", p.Grad, fp[i].Grad)
	}
}

func assertBits(t *testing.T, what string, got, want *tensor.Tensor) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape %v, want %v", what, got.Shape, want.Shape)
	}
	for i := range want.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("%s[%d] = %v, want %v", what, i, got.Data[i], want.Data[i])
		}
	}
}

// TestPredictBatchAllocatesOnlyClasses: after a warm-up call at the same
// batch size, one frame through the image classifier (as each doorbell
// frame runs) and a group of eight utterances through the CNN text
// classifier allocate only the returned class slice, and the cycle
// charge allocates nothing.
func TestPredictBatchAllocatesOnlyClasses(t *testing.T) {
	rng := rand.New(rand.NewPCG(26, 3))
	for _, tc := range reuseCases() {
		c, err := tc.mk()
		if err != nil {
			t.Fatal(err)
		}
		n := 1
		if c.isText {
			n = 8
		}
		batch := make([][]float32, n)
		for i := range batch {
			batch[i] = tc.sample(rng, c)
		}
		if _, err := c.PredictBatch(batch); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := c.PredictBatch(batch); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 1 {
			t.Errorf("%s: PredictBatch at batch %d allocates %v times per call, want 1 (the classes)", tc.name, n, allocs)
		}
		if allocs := testing.AllocsPerRun(100, func() { _ = c.EstimateMACs() }); allocs != 0 {
			t.Errorf("%s: EstimateMACs allocates %v times per call, want 0", tc.name, allocs)
		}
	}
}
