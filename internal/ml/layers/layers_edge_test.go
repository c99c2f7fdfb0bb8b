package layers

import (
	"errors"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/ml/tensor"
)

func TestBackwardShapeErrors(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))

	d := NewDense(rng, 3, 2)
	if _, err := d.Forward(tensor.New(2, 3)); err != nil {
		t.Fatalf("dense forward: %v", err)
	}
	if _, err := d.Backward(tensor.New(2, 5)); !errors.Is(err, ErrShape) {
		t.Errorf("dense bad backward = %v", err)
	}

	c := NewConv1D(rng, 3, 2, 2)
	if _, err := c.Forward(tensor.New(1, 5, 2)); err != nil {
		t.Fatalf("conv1d forward: %v", err)
	}
	if _, err := c.Backward(tensor.New(1, 9, 2)); !errors.Is(err, ErrShape) {
		t.Errorf("conv1d bad backward = %v", err)
	}
	if _, err := NewConv2D(rng, 3, 1, 1).Backward(tensor.New(1, 1, 1, 1)); !errors.Is(err, ErrNoForward) {
		t.Errorf("conv2d backward-first = %v", err)
	}

	ln := NewLayerNorm(4)
	if _, err := ln.Forward(tensor.New(2, 4)); err != nil {
		t.Fatalf("ln forward: %v", err)
	}
	if _, err := ln.Backward(tensor.New(2, 5)); !errors.Is(err, ErrShape) {
		t.Errorf("ln bad backward = %v", err)
	}
	if _, err := NewLayerNorm(5).Forward(tensor.New(2, 4)); !errors.Is(err, ErrShape) {
		t.Errorf("ln bad forward = %v", err)
	}

	m, err := NewMultiHeadSelfAttention(rng, 4, 2)
	if err != nil {
		t.Fatalf("mhsa: %v", err)
	}
	if _, err := m.Backward(tensor.New(1, 2, 4)); !errors.Is(err, ErrNoForward) {
		t.Errorf("mhsa backward-first = %v", err)
	}
	if _, err := m.Forward(tensor.New(1, 2, 4)); err != nil {
		t.Fatalf("mhsa forward: %v", err)
	}
	if _, err := m.Backward(tensor.New(1, 3, 4)); !errors.Is(err, ErrShape) {
		t.Errorf("mhsa bad backward = %v", err)
	}

	e := NewEmbedding(rng, 5, 3)
	if _, err := e.Backward(tensor.New(1, 2, 3)); !errors.Is(err, ErrNoForward) {
		t.Errorf("embedding backward-first = %v", err)
	}
	if _, err := e.Forward(tensor.New(1, 2, 3)); !errors.Is(err, ErrShape) {
		t.Errorf("embedding 3d input = %v", err)
	}

	p := NewGlobalMaxPool1D()
	if _, err := p.Backward(tensor.New(1, 2)); !errors.Is(err, ErrNoForward) {
		t.Errorf("pool backward-first = %v", err)
	}
	if _, err := p.Forward(tensor.New(2, 2)); !errors.Is(err, ErrShape) {
		t.Errorf("pool 2d input = %v", err)
	}

	mp := NewMeanPool1D()
	if _, err := mp.Backward(tensor.New(1, 2)); !errors.Is(err, ErrNoForward) {
		t.Errorf("meanpool backward-first = %v", err)
	}

	f := NewFlatten()
	if _, err := f.Backward(tensor.New(2, 2)); !errors.Is(err, ErrNoForward) {
		t.Errorf("flatten backward-first = %v", err)
	}
	if _, err := f.Forward(tensor.New(3)); !errors.Is(err, ErrShape) {
		t.Errorf("flatten 1d input = %v", err)
	}

	r := NewReLU()
	if _, err := r.Backward(tensor.New(3)); !errors.Is(err, ErrNoForward) {
		t.Errorf("relu backward-first = %v", err)
	}
	g := NewGELU()
	if _, err := g.Backward(tensor.New(3)); !errors.Is(err, ErrNoForward) {
		t.Errorf("gelu backward-first = %v", err)
	}
}

func TestGELUKnownValues(t *testing.T) {
	// GELU(0) = 0; GELU(x) -> x for large x; GELU(-large) -> 0.
	if v := geluFwd(0); v != 0 {
		t.Errorf("gelu(0) = %v", v)
	}
	if v := geluFwd(10); math.Abs(v-10) > 1e-3 {
		t.Errorf("gelu(10) = %v", v)
	}
	if v := geluFwd(-10); math.Abs(v) > 1e-3 {
		t.Errorf("gelu(-10) = %v", v)
	}
	// Standard reference point: gelu(1) ≈ 0.8412.
	if v := geluFwd(1); math.Abs(v-0.8412) > 1e-3 {
		t.Errorf("gelu(1) = %v", v)
	}
}

func TestLayerNormOutputStatistics(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	ln := NewLayerNorm(64)
	x := tensor.Randn(rng, 3, 4, 64)
	// Shift the input mean to verify normalization removes it.
	for i := range x.Data {
		x.Data[i] += 7
	}
	out, err := ln.Forward(x)
	if err != nil {
		t.Fatalf("Forward: %v", err)
	}
	for r := 0; r < 4; r++ {
		seg := out.Data[r*64 : (r+1)*64]
		var mean, variance float64
		for _, v := range seg {
			mean += float64(v)
		}
		mean /= 64
		for _, v := range seg {
			d := float64(v) - mean
			variance += d * d
		}
		variance /= 64
		if math.Abs(mean) > 1e-4 {
			t.Errorf("row %d mean = %v, want ~0", r, mean)
		}
		if math.Abs(variance-1) > 1e-2 {
			t.Errorf("row %d variance = %v, want ~1", r, variance)
		}
	}
}

func TestAttentionIsPermutationSensitiveWithPosenc(t *testing.T) {
	// With positional encoding, swapping two tokens must change the
	// pooled representation (the transformer can use order).
	rng := rand.New(rand.NewPCG(6, 6))
	emb := NewEmbedding(rng, 10, 8)
	pe := NewPositionalEncoding(16, 8)
	mhsa, err := NewMultiHeadSelfAttention(rng, 8, 2)
	if err != nil {
		t.Fatalf("mhsa: %v", err)
	}
	pool := NewMeanPool1D()
	runSeq := func(ids []float32) []float32 {
		x, err := tensor.FromSlice(ids, 1, len(ids))
		if err != nil {
			t.Fatalf("FromSlice: %v", err)
		}
		h, err := emb.Forward(x)
		if err != nil {
			t.Fatalf("emb: %v", err)
		}
		if h, err = pe.Forward(h); err != nil {
			t.Fatalf("pe: %v", err)
		}
		if h, err = mhsa.Forward(h); err != nil {
			t.Fatalf("mhsa: %v", err)
		}
		if h, err = pool.Forward(h); err != nil {
			t.Fatalf("pool: %v", err)
		}
		return append([]float32(nil), h.Data...)
	}
	a := runSeq([]float32{2, 3, 4, 5})
	b := runSeq([]float32{5, 3, 4, 2})
	same := true
	for i := range a {
		if math.Abs(float64(a[i]-b[i])) > 1e-6 {
			same = false
			break
		}
	}
	if same {
		t.Error("token order had no effect despite positional encoding")
	}
}

func TestOptimizersHandleFreshParams(t *testing.T) {
	// Both optimizers must lazily initialize state for unseen params.
	rng := rand.New(rand.NewPCG(7, 7))
	d := NewDense(rng, 2, 2)
	EnableGrad(d)
	for _, p := range d.Params() {
		p.Grad.Fill(1)
	}
	before := d.Params()[0].Value.Clone()
	sgdStep(d)
	after := d.Params()[0].Value
	changed := false
	for i := range after.Data {
		if after.Data[i] != before.Data[i] {
			changed = true
		}
	}
	if !changed {
		t.Error("sgd step changed nothing")
	}
}

// sgdStep applies a tiny hand-rolled update to confirm Param plumbing is
// usable outside the train package.
func sgdStep(l Layer) {
	for _, p := range l.Params() {
		for i := range p.Value.Data {
			p.Value.Data[i] -= 0.1 * p.Grad.Data[i]
		}
		p.Grad.Zero()
	}
}

// TestEnableGradOnlyForTraining: a built layer's parameters carry no
// gradient, and a nil rng draws nothing (the weights stay zero).
// EnableGrad gives each a zeroed accumulator of its shape, once.
func TestEnableGradOnlyForTraining(t *testing.T) {
	d := NewDense(nil, 3, 2)
	for _, p := range d.Params() {
		if p.Grad != nil {
			t.Fatalf("fresh %s carries a gradient", p.Name)
		}
		for _, v := range p.Value.Data {
			if v != 0 {
				t.Fatalf("nil-rng %s holds %v, want zero", p.Name, v)
			}
		}
	}
	EnableGrad(d)
	g := d.Params()[0].Grad
	if g == nil || !g.SameShape(d.Params()[0].Value) {
		t.Fatalf("EnableGrad gave %v", g)
	}
	EnableGrad(d)
	if d.Params()[0].Grad != g {
		t.Fatal("a second EnableGrad replaced the accumulator")
	}
}
