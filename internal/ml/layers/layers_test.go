package layers

import (
	"errors"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/ml/tensor"
)

// gradCheck verifies a layer's Backward against central-difference
// numerical gradients of the scalar loss sum(Forward(x) .* R) for a fixed
// random R — both for the input gradient and every parameter gradient.
func gradCheck(t *testing.T, mk func() Layer, inShape []int) {
	t.Helper()
	const (
		eps = 1e-2
		tol = 2e-2
	)
	rng := rand.New(rand.NewPCG(42, 43))
	layer := mk()
	x := tensor.Randn(rng, 1, inShape...)

	out, err := layer.Forward(x.Clone())
	if err != nil {
		t.Fatalf("forward: %v", err)
	}
	r := tensor.Randn(rng, 1, out.Shape...)

	loss := func(o *tensor.Tensor) float64 {
		var s float64
		for i := range o.Data {
			s += float64(o.Data[i]) * float64(r.Data[i])
		}
		return s
	}

	// Analytic gradients.
	EnableGrad(layer)
	dIn, err := layer.Backward(r.Clone())
	if err != nil {
		t.Fatalf("backward: %v", err)
	}

	check := func(name string, analytic float64, perturb func(delta float32) float64) {
		t.Helper()
		plus := perturb(eps)
		minus := perturb(-eps)
		numeric := (plus - minus) / (2 * eps)
		scale := math.Max(1, math.Max(math.Abs(analytic), math.Abs(numeric)))
		if math.Abs(analytic-numeric)/scale > tol {
			t.Errorf("%s: analytic %v vs numeric %v", name, analytic, numeric)
		}
	}

	// Input gradient at a sample of coordinates.
	stride := len(x.Data)/8 + 1
	for i := 0; i < len(x.Data); i += stride {
		i := i
		check("dIn", float64(dIn.Data[i]), func(delta float32) float64 {
			fresh := mk() // re-created layer shares no cached state
			copyParams(t, layer, fresh)
			xp := x.Clone()
			xp.Data[i] += delta
			o, err := fresh.Forward(xp)
			if err != nil {
				t.Fatalf("perturbed forward: %v", err)
			}
			return loss(o)
		})
	}
	// Parameter gradients at a sample of coordinates.
	for pi, p := range layer.Params() {
		stride := len(p.Value.Data)/8 + 1
		for i := 0; i < len(p.Value.Data); i += stride {
			pi, i := pi, i
			check(p.Name, float64(p.Grad.Data[i]), func(delta float32) float64 {
				fresh := mk()
				copyParams(t, layer, fresh)
				fp := fresh.Params()[pi]
				fp.Value.Data[i] += delta
				o, err := fresh.Forward(x.Clone())
				if err != nil {
					t.Fatalf("perturbed forward: %v", err)
				}
				return loss(o)
			})
		}
	}
}

func copyParams(t *testing.T, from, to Layer) {
	t.Helper()
	fp, tp := from.Params(), to.Params()
	if len(fp) != len(tp) {
		t.Fatalf("param count mismatch: %d vs %d", len(fp), len(tp))
	}
	for i := range fp {
		copy(tp[i].Value.Data, fp[i].Value.Data)
	}
}

func TestDenseGradCheck(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	gradCheck(t, func() Layer { return NewDense(rand.New(rand.NewPCG(1, 1)), 5, 3) }, []int{4, 5})
	_ = rng
}

func TestReLUGradCheck(t *testing.T) {
	gradCheck(t, func() Layer { return NewReLU() }, []int{3, 6})
}

func TestGELUGradCheck(t *testing.T) {
	gradCheck(t, func() Layer { return NewGELU() }, []int{3, 6})
}

func TestConv1DGradCheck(t *testing.T) {
	gradCheck(t, func() Layer { return NewConv1D(rand.New(rand.NewPCG(2, 2)), 3, 2, 4) }, []int{2, 7, 2})
}

func TestConv2DGradCheck(t *testing.T) {
	gradCheck(t, func() Layer { return NewConv2D(rand.New(rand.NewPCG(3, 3)), 3, 1, 2) }, []int{1, 6, 6, 1})
}

func TestMaxPool2DGradCheck(t *testing.T) {
	gradCheck(t, func() Layer { return NewMaxPool2D(2) }, []int{1, 4, 4, 2})
}

func TestGlobalMaxPoolGradCheck(t *testing.T) {
	gradCheck(t, func() Layer { return NewGlobalMaxPool1D() }, []int{2, 5, 3})
}

func TestMeanPoolGradCheck(t *testing.T) {
	gradCheck(t, func() Layer { return NewMeanPool1D() }, []int{2, 5, 3})
}

func TestLayerNormGradCheck(t *testing.T) {
	gradCheck(t, func() Layer { return NewLayerNorm(6) }, []int{2, 3, 6})
}

func TestMHSAGradCheck(t *testing.T) {
	gradCheck(t, func() Layer {
		m, err := NewMultiHeadSelfAttention(rand.New(rand.NewPCG(4, 4)), 8, 2)
		if err != nil {
			t.Fatalf("NewMultiHeadSelfAttention: %v", err)
		}
		return m
	}, []int{1, 4, 8})
}

func TestSequentialGradCheck(t *testing.T) {
	gradCheck(t, func() Layer {
		rng := rand.New(rand.NewPCG(5, 5))
		return NewSequential("mlp",
			NewDense(rng, 6, 8),
			NewReLU(),
			NewDense(rng, 8, 2),
		)
	}, []int{3, 6})
}

func TestEmbeddingForwardBackward(t *testing.T) {
	rng := rand.New(rand.NewPCG(6, 6))
	emb := NewEmbedding(rng, 10, 4)
	ids, _ := tensor.FromSlice([]float32{1, 2, 2, 0, 9, 100}, 2, 3) // 100 -> padded to 0
	out, err := emb.Forward(ids)
	if err != nil {
		t.Fatalf("Forward: %v", err)
	}
	if out.Dims() != 3 || out.Dim(2) != 4 {
		t.Fatalf("out shape %v", out.Shape)
	}
	// Rows with the same id must embed identically.
	for j := 0; j < 4; j++ {
		if out.At(0, 1, j) != out.At(0, 2, j) {
			t.Error("same token embedded differently")
		}
	}
	// Backward accumulates per row; token 2 used twice gets double grad.
	g := tensor.New(2, 3, 4)
	g.Fill(1)
	EnableGrad(emb)
	if _, err := emb.Backward(g); err != nil {
		t.Fatalf("Backward: %v", err)
	}
	if got := emb.table.Grad.At(2, 0); got != 2 {
		t.Errorf("token-2 grad = %v, want 2", got)
	}
	if got := emb.table.Grad.At(5, 0); got != 0 {
		t.Errorf("unused token grad = %v, want 0", got)
	}
}

func TestPositionalEncodingAddsAndPassesGrad(t *testing.T) {
	pe := NewPositionalEncoding(16, 8)
	x := tensor.New(2, 4, 8)
	out, err := pe.Forward(x)
	if err != nil {
		t.Fatalf("Forward: %v", err)
	}
	// Position 0 dim 1 is cos(0)=1.
	if got := out.At(0, 0, 1); math.Abs(float64(got)-1) > 1e-6 {
		t.Errorf("pe[0,1] = %v, want 1", got)
	}
	// Different positions must differ.
	same := true
	for j := 0; j < 8; j++ {
		if out.At(0, 0, j) != out.At(0, 1, j) {
			same = false
			break
		}
	}
	if same {
		t.Error("positions 0 and 1 encoded identically")
	}
	g := tensor.New(2, 4, 8)
	g.Fill(3)
	dIn, err := pe.Backward(g)
	if err != nil {
		t.Fatalf("Backward: %v", err)
	}
	if dIn.At(1, 2, 3) != 3 {
		t.Error("posenc gradient not identity")
	}
	// Too-long input rejected.
	if _, err := pe.Forward(tensor.New(1, 17, 8)); !errors.Is(err, ErrShape) {
		t.Errorf("over-length input = %v", err)
	}
}

func TestLayerShapeErrors(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	d := NewDense(rng, 4, 2)
	if _, err := d.Forward(tensor.New(3, 5)); !errors.Is(err, ErrShape) {
		t.Errorf("dense bad input = %v", err)
	}
	if _, err := d.Backward(tensor.New(3, 2)); !errors.Is(err, ErrNoForward) {
		t.Errorf("dense backward-first = %v", err)
	}
	c := NewConv1D(rng, 3, 2, 2)
	if _, err := c.Forward(tensor.New(1, 2, 2)); !errors.Is(err, ErrShape) {
		t.Errorf("conv1d short input = %v", err)
	}
	if _, err := NewMultiHeadSelfAttention(rng, 7, 2); !errors.Is(err, ErrShape) {
		t.Error("mhsa accepted d not divisible by heads")
	}
	mp := NewMaxPool2D(2)
	if _, err := mp.Forward(tensor.New(1, 5, 4, 1)); !errors.Is(err, ErrShape) {
		t.Errorf("maxpool2d odd input = %v", err)
	}
}

func TestParamCount(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 8))
	seq := NewSequential("m",
		NewDense(rng, 10, 5), // 10*5 + 5 = 55
		NewReLU(),
		NewDense(rng, 5, 2), // 5*2 + 2 = 12
	)
	if got := ParamCount([]Layer{seq}); got != 67 {
		t.Errorf("ParamCount = %d, want 67", got)
	}
}

func TestFlattenRoundTrip(t *testing.T) {
	f := NewFlatten()
	x := tensor.New(2, 3, 4)
	out, err := f.Forward(x)
	if err != nil {
		t.Fatalf("Forward: %v", err)
	}
	if out.Dims() != 2 || out.Dim(1) != 12 {
		t.Errorf("flatten shape = %v", out.Shape)
	}
	back, err := f.Backward(out)
	if err != nil {
		t.Fatalf("Backward: %v", err)
	}
	if back.Dims() != 3 || back.Dim(2) != 4 {
		t.Errorf("unflatten shape = %v", back.Shape)
	}
}

func TestSequentialPropagatesLayerErrors(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 9))
	seq := NewSequential("bad", NewDense(rng, 4, 4), NewDense(rng, 5, 2))
	if _, err := seq.Forward(tensor.New(1, 4)); !errors.Is(err, ErrShape) {
		t.Errorf("sequential mismatched chain = %v", err)
	}
	if got := len(seq.Layers()); got != 2 {
		t.Errorf("Layers() = %d", got)
	}
}
