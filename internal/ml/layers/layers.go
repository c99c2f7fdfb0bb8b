// Package layers implements the neural-network building blocks of the
// paper's §IV.4 classifier menu — dense, 1-D/2-D convolution, pooling,
// embeddings, layer normalization and multi-head self-attention — each
// with explicit forward and backward passes so the models can be trained
// in-repo, then frozen and shipped into the TEE.
//
// Tensors flow as [batch, ...]; layers cache whatever the backward pass
// needs, so a Layer instance serves one forward/backward pair at a time
// (mini-batch training and single-stream inference, which is all the
// pipeline requires).
//
// A layer may keep the tensor it returns and reuse it on its next call:
// a returned tensor belongs to the layer and stays valid until that
// layer's next Forward or Backward. A caller that needs a result longer
// must copy it. The classifiers run one forward pass per batch, so in
// steady state their activations allocate nothing.
package layers

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/ml/tensor"
)

// Errors returned by the package.
var (
	// ErrShape is returned for inputs with unexpected shapes.
	ErrShape = errors.New("layers: shape mismatch")
	// ErrNoForward is returned by Backward before any Forward.
	ErrNoForward = errors.New("layers: backward before forward")
)

// Param is one trainable parameter; its gradient Grad is nil until EnableGrad.
type Param struct {
	Name  string
	Value *tensor.Tensor
	Grad  *tensor.Tensor
}

// EnableGrad gives every parameter of l that has none a zeroed gradient
// accumulator, as training must before its first Backward.
func EnableGrad(l Layer) {
	for _, p := range l.Params() {
		if p.Grad == nil {
			p.Grad = tensor.New(p.Value.Shape...)
		}
	}
}

// Layer is one differentiable block.
type Layer interface {
	// Name identifies the layer in diagnostics.
	Name() string
	// Forward computes the output and caches state for Backward. The
	// output may belong to the layer: it stays valid until the layer's
	// next Forward or Backward, and x must stay unchanged until then.
	Forward(x *tensor.Tensor) (*tensor.Tensor, error)
	// Backward consumes dOut and returns dIn, accumulating parameter
	// gradients (see EnableGrad). dIn follows Forward's ownership rule.
	Backward(dOut *tensor.Tensor) (*tensor.Tensor, error)
	// Params returns the trainable parameters (nil for stateless layers).
	Params() []*Param
}

// ParamCount sums the parameter element counts of a layer list.
func ParamCount(ls []Layer) int {
	n := 0
	for _, l := range ls {
		for _, p := range l.Params() {
			n += p.Value.Len()
		}
	}
	return n
}

// --- Dense --------------------------------------------------------------------

// Dense is a fully connected layer: y = xW + b, x [B,in] -> y [B,out].
type Dense struct {
	In, Out int
	w, b    *Param
	x, out  *tensor.Tensor
}

// NewDense creates a dense layer with Xavier-scaled weights.
func NewDense(rng *rand.Rand, in, out int) *Dense {
	std := math.Sqrt(2.0 / float64(in+out))
	return &Dense{
		In:  in,
		Out: out,
		w:   &Param{Name: "dense.w", Value: tensor.Randn(rng, std, in, out)},
		b:   &Param{Name: "dense.b", Value: tensor.New(out)},
	}
}

// Name implements Layer.
func (d *Dense) Name() string { return fmt.Sprintf("dense(%d->%d)", d.In, d.Out) }

// Params implements Layer.
func (d *Dense) Params() []*Param { return []*Param{d.w, d.b} }

// Forward implements Layer.
func (d *Dense) Forward(x *tensor.Tensor) (*tensor.Tensor, error) {
	if x.Dims() != 2 || x.Dim(1) != d.In {
		return nil, fmt.Errorf("%w: %s got %v", ErrShape, d.Name(), x.Shape)
	}
	d.x = x
	d.out = reuse(d.out, x.Dim(0), d.Out)
	if err := tensor.MatMulInto(d.out, x, d.w.Value); err != nil {
		return nil, err
	}
	b := d.b.Value.Data
	for i := 0; i < d.out.Dim(0); i++ {
		row := d.out.Row(i)
		for j := range row {
			row[j] += b[j]
		}
	}
	return d.out, nil
}

// Backward implements Layer.
func (d *Dense) Backward(dOut *tensor.Tensor) (*tensor.Tensor, error) {
	if d.x == nil {
		return nil, fmt.Errorf("%w: %s", ErrNoForward, d.Name())
	}
	if dOut.Dims() != 2 || dOut.Dim(1) != d.Out || dOut.Dim(0) != d.x.Dim(0) {
		return nil, fmt.Errorf("%w: %s backward got %v", ErrShape, d.Name(), dOut.Shape)
	}
	xt, err := tensor.Transpose(d.x)
	if err != nil {
		return nil, err
	}
	dw, err := tensor.MatMul(xt, dOut)
	if err != nil {
		return nil, err
	}
	if err := d.w.Grad.AddInPlace(dw); err != nil {
		return nil, err
	}
	for i := 0; i < dOut.Dim(0); i++ {
		row := dOut.Row(i)
		for j, v := range row {
			d.b.Grad.Data[j] += v
		}
	}
	wt, err := tensor.Transpose(d.w.Value)
	if err != nil {
		return nil, err
	}
	return tensor.MatMul(dOut, wt)
}

// --- Activations ------------------------------------------------------------------

// ReLU is the rectified linear activation.
type ReLU struct {
	mask     []bool
	out, dIn *tensor.Tensor
}

// NewReLU creates a ReLU layer.
func NewReLU() *ReLU { return &ReLU{} }

// Name implements Layer.
func (r *ReLU) Name() string { return "relu" }

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// Forward implements Layer.
func (r *ReLU) Forward(x *tensor.Tensor) (*tensor.Tensor, error) {
	r.out = reuse(r.out, x.Shape...)
	r.mask = resize(r.mask, len(x.Data))
	for i, v := range x.Data {
		// Every entry of the reused mask and output is written, so
		// neither keeps a stale value. NaN fails v > 0, so it maps to 0
		// like any non-positive.
		r.mask[i] = v > 0
		if r.mask[i] {
			r.out.Data[i] = v
		} else {
			r.out.Data[i] = 0
		}
	}
	return r.out, nil
}

// Backward implements Layer.
func (r *ReLU) Backward(dOut *tensor.Tensor) (*tensor.Tensor, error) {
	if r.mask == nil {
		return nil, fmt.Errorf("%w: relu", ErrNoForward)
	}
	if len(dOut.Data) != len(r.mask) {
		return nil, fmt.Errorf("%w: relu backward", ErrShape)
	}
	r.dIn = reuse(r.dIn, dOut.Shape...)
	for i, g := range dOut.Data {
		if r.mask[i] {
			r.dIn.Data[i] = g
		} else {
			r.dIn.Data[i] = 0
		}
	}
	return r.dIn, nil
}

// GELU is the Gaussian-error linear unit (tanh approximation), the
// transformer-standard activation.
type GELU struct {
	x *tensor.Tensor
}

// NewGELU creates a GELU layer.
func NewGELU() *GELU { return &GELU{} }

// Name implements Layer.
func (g *GELU) Name() string { return "gelu" }

// Params implements Layer.
func (g *GELU) Params() []*Param { return nil }

const geluC = 0.7978845608028654 // sqrt(2/pi)

func geluFwd(x float64) float64 {
	return 0.5 * x * (1 + math.Tanh(geluC*(x+0.044715*x*x*x)))
}

func geluGrad(x float64) float64 {
	t := math.Tanh(geluC * (x + 0.044715*x*x*x))
	dt := (1 - t*t) * geluC * (1 + 3*0.044715*x*x)
	return 0.5*(1+t) + 0.5*x*dt
}

// Forward implements Layer.
func (g *GELU) Forward(x *tensor.Tensor) (*tensor.Tensor, error) {
	g.x = x.Clone()
	out := x.Clone()
	for i, v := range out.Data {
		out.Data[i] = float32(geluFwd(float64(v)))
	}
	return out, nil
}

// Backward implements Layer.
func (g *GELU) Backward(dOut *tensor.Tensor) (*tensor.Tensor, error) {
	if g.x == nil {
		return nil, fmt.Errorf("%w: gelu", ErrNoForward)
	}
	dIn := dOut.Clone()
	for i := range dIn.Data {
		dIn.Data[i] *= float32(geluGrad(float64(g.x.Data[i])))
	}
	return dIn, nil
}

// --- Convolution kernels ----------------------------------------------------------------

// The Conv1D and Conv2D passes run on contiguous windows: xwin holds n
// input values and wwin their n×cout weights, row q being the weights of
// input q for every output channel. The output channel is the innermost
// loop, yet each output and gradient element receives its terms in the
// same order as a one-element-at-a-time loop over the window would, so
// results are bit-exact with it (golden_test.go keeps that loop).

// macForward adds the window's taps to acc, one output row of len(acc)
// channels already holding the bias.
func macForward(acc, xwin, wwin []float32) {
	cout := len(acc)
	for q, xv := range xwin {
		ws := wwin[q*cout:][:cout]
		for co, wv := range ws {
			acc[co] += xv * wv
		}
	}
}

// macBackward propagates one output row's gradient g through a window:
// wgrad gains g⊗xwin and iwin (the input gradient) gains wwin·g. A zero
// gradient contributes no terms, exactly as it is skipped for the bias.
func macBackward(g, xwin, iwin, wwin, wgrad []float32) {
	cout := len(g)
	for q, xv := range xwin {
		ws, gs := wwin[q*cout:][:cout], wgrad[q*cout:][:cout]
		acc := iwin[q]
		for co, gv := range g {
			if gv == 0 {
				continue
			}
			gs[co] += gv * xv
			acc += gv * ws[co]
		}
		iwin[q] = acc
	}
}

// addNonZero adds the non-zero entries of g to the bias gradient.
func addNonZero(bgrad, g []float32) {
	for co, gv := range g {
		if gv != 0 {
			bgrad[co] += gv
		}
	}
}

// resize returns s resliced to n elements when its capacity allows, so a
// layer's backward-pass cache is not reallocated on every forward pass.
// Callers overwrite every element.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// reuse returns t re-shaped to shape, its header and data resliced when
// their capacity allows: the buffer a layer returns from Forward or
// Backward and keeps for its next call. A nil t gets a new tensor.
// Callers overwrite (or clear) every element. Like tensor.New it panics
// on a non-positive dimension, but without formatting shape, which would
// make every caller's variadic shape escape to the heap.
func reuse(t *tensor.Tensor, shape ...int) *tensor.Tensor {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic("layers: invalid dim in shape")
		}
		n *= d
	}
	if t == nil {
		t = new(tensor.Tensor)
	}
	t.Shape = append(t.Shape[:0], shape...)
	t.Data = resize(t.Data, n)
	return t
}

// --- Conv1D ---------------------------------------------------------------------------

// Conv1D is a 1-D convolution over sequences: input [B, L, Cin] ->
// output [B, L-K+1, Cout] (valid padding, stride 1). Weight layout is
// [K, Cin, Cout].
type Conv1D struct {
	K, Cin, Cout int
	w, b         *Param
	x, out, dIn  *tensor.Tensor
}

// NewConv1D creates a 1-D convolution with He-scaled weights.
func NewConv1D(rng *rand.Rand, k, cin, cout int) *Conv1D {
	std := math.Sqrt(2.0 / float64(k*cin))
	return &Conv1D{
		K: k, Cin: cin, Cout: cout,
		w: &Param{Name: "conv1d.w", Value: tensor.Randn(rng, std, k, cin, cout)},
		b: &Param{Name: "conv1d.b", Value: tensor.New(cout)},
	}
}

// Name implements Layer.
func (c *Conv1D) Name() string { return fmt.Sprintf("conv1d(k%d,%d->%d)", c.K, c.Cin, c.Cout) }

// Params implements Layer.
func (c *Conv1D) Params() []*Param { return []*Param{c.w, c.b} }

// Forward implements Layer.
func (c *Conv1D) Forward(x *tensor.Tensor) (*tensor.Tensor, error) {
	if x.Dims() != 3 || x.Dim(2) != c.Cin || x.Dim(1) < c.K {
		return nil, fmt.Errorf("%w: %s got %v", ErrShape, c.Name(), x.Shape)
	}
	c.x = x
	B, L := x.Dim(0), x.Dim(1)
	Lout := L - c.K + 1
	c.out = reuse(c.out, B, Lout, c.Cout)
	// x is [B,L,Cin] and w is [K,Cin,Cout]: each output's whole input
	// window (k, ci) and the weights are contiguous.
	win := c.K * c.Cin
	for bi := 0; bi < B; bi++ {
		for t := 0; t < Lout; t++ {
			acc := c.out.Data[(bi*Lout+t)*c.Cout:][:c.Cout]
			copy(acc, c.b.Value.Data)
			macForward(acc, x.Data[(bi*L+t)*c.Cin:][:win], c.w.Value.Data)
		}
	}
	return c.out, nil
}

// Backward implements Layer.
func (c *Conv1D) Backward(dOut *tensor.Tensor) (*tensor.Tensor, error) {
	if c.x == nil {
		return nil, fmt.Errorf("%w: %s", ErrNoForward, c.Name())
	}
	x := c.x
	B, L := x.Dim(0), x.Dim(1)
	Lout := L - c.K + 1
	if dOut.Dims() != 3 || dOut.Dim(0) != B || dOut.Dim(1) != Lout || dOut.Dim(2) != c.Cout {
		return nil, fmt.Errorf("%w: %s backward got %v", ErrShape, c.Name(), dOut.Shape)
	}
	c.dIn = reuse(c.dIn, B, L, c.Cin)
	clear(c.dIn.Data)
	win := c.K * c.Cin
	for bi := 0; bi < B; bi++ {
		for t := 0; t < Lout; t++ {
			g := dOut.Data[(bi*Lout+t)*c.Cout:][:c.Cout]
			addNonZero(c.b.Grad.Data, g)
			off := (bi*L + t) * c.Cin
			macBackward(g, x.Data[off:][:win], c.dIn.Data[off:][:win], c.w.Value.Data, c.w.Grad.Data)
		}
	}
	return c.dIn, nil
}

// --- Pooling -------------------------------------------------------------------------------

// GlobalMaxPool1D reduces [B, L, C] -> [B, C] by max over time.
type GlobalMaxPool1D struct {
	arg      []int // flat argmax per (b, c)
	L        int
	C        int
	B        int
	out, dIn *tensor.Tensor
}

// NewGlobalMaxPool1D creates the pool.
func NewGlobalMaxPool1D() *GlobalMaxPool1D { return &GlobalMaxPool1D{} }

// Name implements Layer.
func (p *GlobalMaxPool1D) Name() string { return "gmaxpool1d" }

// Params implements Layer.
func (p *GlobalMaxPool1D) Params() []*Param { return nil }

// Forward implements Layer.
func (p *GlobalMaxPool1D) Forward(x *tensor.Tensor) (*tensor.Tensor, error) {
	if x.Dims() != 3 {
		return nil, fmt.Errorf("%w: gmaxpool1d got %v", ErrShape, x.Shape)
	}
	B, L, C := x.Dim(0), x.Dim(1), x.Dim(2)
	p.B, p.L, p.C = B, L, C
	p.arg = resize(p.arg, B*C)
	p.out = reuse(p.out, B, C)
	for b := 0; b < B; b++ {
		for c := 0; c < C; c++ {
			base := b * L * C
			best, bestT := x.Data[base+c], 0
			for t := 1; t < L; t++ {
				if v := x.Data[base+t*C+c]; v > best {
					best, bestT = v, t
				}
			}
			p.out.Data[b*C+c] = best
			p.arg[b*C+c] = bestT
		}
	}
	return p.out, nil
}

// Backward implements Layer.
func (p *GlobalMaxPool1D) Backward(dOut *tensor.Tensor) (*tensor.Tensor, error) {
	if p.arg == nil {
		return nil, fmt.Errorf("%w: gmaxpool1d", ErrNoForward)
	}
	if dOut.Dims() != 2 || dOut.Dim(0) != p.B || dOut.Dim(1) != p.C {
		return nil, fmt.Errorf("%w: gmaxpool1d backward got %v", ErrShape, dOut.Shape)
	}
	p.dIn = reuse(p.dIn, p.B, p.L, p.C)
	clear(p.dIn.Data)
	for b := 0; b < p.B; b++ {
		for c := 0; c < p.C; c++ {
			p.dIn.Set(dOut.At(b, c), b, p.arg[b*p.C+c], c)
		}
	}
	return p.dIn, nil
}

// MeanPool1D reduces [B, L, C] -> [B, C] by averaging over time.
type MeanPool1D struct {
	B, L, C int
}

// NewMeanPool1D creates the pool.
func NewMeanPool1D() *MeanPool1D { return &MeanPool1D{} }

// Name implements Layer.
func (p *MeanPool1D) Name() string { return "meanpool1d" }

// Params implements Layer.
func (p *MeanPool1D) Params() []*Param { return nil }

// Forward implements Layer.
func (p *MeanPool1D) Forward(x *tensor.Tensor) (*tensor.Tensor, error) {
	if x.Dims() != 3 {
		return nil, fmt.Errorf("%w: meanpool1d got %v", ErrShape, x.Shape)
	}
	p.B, p.L, p.C = x.Dim(0), x.Dim(1), x.Dim(2)
	out := tensor.New(p.B, p.C)
	for b := 0; b < p.B; b++ {
		for c := 0; c < p.C; c++ {
			base := b * p.L * p.C
			var s float32
			for t := 0; t < p.L; t++ {
				s += x.Data[base+t*p.C+c]
			}
			out.Data[b*p.C+c] = s / float32(p.L)
		}
	}
	return out, nil
}

// Backward implements Layer.
func (p *MeanPool1D) Backward(dOut *tensor.Tensor) (*tensor.Tensor, error) {
	if p.L == 0 {
		return nil, fmt.Errorf("%w: meanpool1d", ErrNoForward)
	}
	if dOut.Dims() != 2 || dOut.Dim(0) != p.B || dOut.Dim(1) != p.C {
		return nil, fmt.Errorf("%w: meanpool1d backward got %v", ErrShape, dOut.Shape)
	}
	dIn := tensor.New(p.B, p.L, p.C)
	inv := 1 / float32(p.L)
	for b := 0; b < p.B; b++ {
		for c := 0; c < p.C; c++ {
			g := dOut.At(b, c) * inv
			for t := 0; t < p.L; t++ {
				dIn.Set(g, b, t, c)
			}
		}
	}
	return dIn, nil
}

// --- Embedding ----------------------------------------------------------------------------------

// Embedding maps token ids (carried as a float tensor [B, L] of integral
// values) to vectors [B, L, D]. Out-of-range ids map to the padding row 0.
type Embedding struct {
	Vocab, D int
	table    *Param
	ids      []int
	B, L     int
	out      *tensor.Tensor
}

// NewEmbedding creates an embedding table.
func NewEmbedding(rng *rand.Rand, vocab, d int) *Embedding {
	return &Embedding{
		Vocab: vocab, D: d,
		table: &Param{Name: "embedding", Value: tensor.Randn(rng, 0.1, vocab, d)},
	}
}

// Name implements Layer.
func (e *Embedding) Name() string { return fmt.Sprintf("embedding(%dx%d)", e.Vocab, e.D) }

// Params implements Layer.
func (e *Embedding) Params() []*Param { return []*Param{e.table} }

// Forward implements Layer.
func (e *Embedding) Forward(x *tensor.Tensor) (*tensor.Tensor, error) {
	if x.Dims() != 2 {
		return nil, fmt.Errorf("%w: embedding got %v", ErrShape, x.Shape)
	}
	e.B, e.L = x.Dim(0), x.Dim(1)
	e.ids = resize(e.ids, e.B*e.L)
	e.out = reuse(e.out, e.B, e.L, e.D)
	for i, v := range x.Data {
		id := int(v)
		if id < 0 || id >= e.Vocab {
			id = 0
		}
		e.ids[i] = id
		copy(e.out.Data[i*e.D:(i+1)*e.D], e.table.Value.Data[id*e.D:(id+1)*e.D])
	}
	return e.out, nil
}

// Backward implements Layer. Token-id inputs receive no gradient; the
// returned dIn is a zero tensor of the input shape.
func (e *Embedding) Backward(dOut *tensor.Tensor) (*tensor.Tensor, error) {
	if e.ids == nil {
		return nil, fmt.Errorf("%w: embedding", ErrNoForward)
	}
	if dOut.Dims() != 3 || dOut.Dim(0) != e.B || dOut.Dim(1) != e.L || dOut.Dim(2) != e.D {
		return nil, fmt.Errorf("%w: embedding backward got %v", ErrShape, dOut.Shape)
	}
	for i, id := range e.ids {
		grow := e.table.Grad.Data[id*e.D : (id+1)*e.D]
		drow := dOut.Data[i*e.D : (i+1)*e.D]
		for j := range grow {
			grow[j] += drow[j]
		}
	}
	return tensor.New(e.B, e.L), nil
}

// --- Positional encoding -----------------------------------------------------------------------------

// PositionalEncoding adds fixed sinusoidal position information to
// [B, L, D] inputs (Vaswani et al. layout).
type PositionalEncoding struct {
	MaxLen, D int
	pe        *tensor.Tensor
}

// NewPositionalEncoding precomputes encodings up to maxLen.
func NewPositionalEncoding(maxLen, d int) *PositionalEncoding {
	pe := tensor.New(maxLen, d)
	for pos := 0; pos < maxLen; pos++ {
		for i := 0; i < d; i++ {
			angle := float64(pos) / math.Pow(10000, float64(2*(i/2))/float64(d))
			if i%2 == 0 {
				pe.Set(float32(math.Sin(angle)), pos, i)
			} else {
				pe.Set(float32(math.Cos(angle)), pos, i)
			}
		}
	}
	return &PositionalEncoding{MaxLen: maxLen, D: d, pe: pe}
}

// Name implements Layer.
func (p *PositionalEncoding) Name() string { return "posenc" }

// Params implements Layer.
func (p *PositionalEncoding) Params() []*Param { return nil }

// Forward implements Layer.
func (p *PositionalEncoding) Forward(x *tensor.Tensor) (*tensor.Tensor, error) {
	if x.Dims() != 3 || x.Dim(2) != p.D || x.Dim(1) > p.MaxLen {
		return nil, fmt.Errorf("%w: posenc got %v (max len %d)", ErrShape, x.Shape, p.MaxLen)
	}
	out := x.Clone()
	B, L, D := x.Dim(0), x.Dim(1), x.Dim(2)
	for b := 0; b < B; b++ {
		for t := 0; t < L; t++ {
			row := out.Data[(b*L+t)*D : (b*L+t+1)*D]
			perow := p.pe.Data[t*D : (t+1)*D]
			for i := range row {
				row[i] += perow[i]
			}
		}
	}
	return out, nil
}

// Backward implements Layer (identity gradient).
func (p *PositionalEncoding) Backward(dOut *tensor.Tensor) (*tensor.Tensor, error) {
	return dOut.Clone(), nil
}

// --- LayerNorm ------------------------------------------------------------------------------------------

// LayerNorm normalizes the last axis of [B, L, D] (or [B, D]) inputs.
type LayerNorm struct {
	D           int
	gamma, beta *Param
	x, xhat     *tensor.Tensor
	invStd      []float32
	eps         float32
}

// NewLayerNorm creates a layer norm over dimension d.
func NewLayerNorm(d int) *LayerNorm {
	gamma := tensor.New(d)
	gamma.Fill(1)
	return &LayerNorm{
		D:     d,
		gamma: &Param{Name: "ln.gamma", Value: gamma},
		beta:  &Param{Name: "ln.beta", Value: tensor.New(d)},
		eps:   1e-5,
	}
}

// Name implements Layer.
func (l *LayerNorm) Name() string { return fmt.Sprintf("layernorm(%d)", l.D) }

// Params implements Layer.
func (l *LayerNorm) Params() []*Param { return []*Param{l.gamma, l.beta} }

// Forward implements Layer.
func (l *LayerNorm) Forward(x *tensor.Tensor) (*tensor.Tensor, error) {
	if x.Dim(x.Dims()-1) != l.D {
		return nil, fmt.Errorf("%w: layernorm got %v", ErrShape, x.Shape)
	}
	l.x = x
	rows := x.Len() / l.D
	out := x.Clone()
	l.xhat = tensor.New(x.Shape...)
	l.invStd = make([]float32, rows)
	for r := 0; r < rows; r++ {
		seg := x.Data[r*l.D : (r+1)*l.D]
		var mean float64
		for _, v := range seg {
			mean += float64(v)
		}
		mean /= float64(l.D)
		var varSum float64
		for _, v := range seg {
			d := float64(v) - mean
			varSum += d * d
		}
		invStd := 1 / math.Sqrt(varSum/float64(l.D)+float64(l.eps))
		l.invStd[r] = float32(invStd)
		oseg := out.Data[r*l.D : (r+1)*l.D]
		hseg := l.xhat.Data[r*l.D : (r+1)*l.D]
		for i, v := range seg {
			h := float32((float64(v) - mean) * invStd)
			hseg[i] = h
			oseg[i] = h*l.gamma.Value.Data[i] + l.beta.Value.Data[i]
		}
	}
	return out, nil
}

// Backward implements Layer.
func (l *LayerNorm) Backward(dOut *tensor.Tensor) (*tensor.Tensor, error) {
	if l.xhat == nil {
		return nil, fmt.Errorf("%w: layernorm", ErrNoForward)
	}
	if !dOut.SameShape(l.x) {
		return nil, fmt.Errorf("%w: layernorm backward got %v", ErrShape, dOut.Shape)
	}
	rows := dOut.Len() / l.D
	dIn := tensor.New(l.x.Shape...)
	for r := 0; r < rows; r++ {
		dseg := dOut.Data[r*l.D : (r+1)*l.D]
		hseg := l.xhat.Data[r*l.D : (r+1)*l.D]
		// Parameter grads.
		for i := 0; i < l.D; i++ {
			l.gamma.Grad.Data[i] += dseg[i] * hseg[i]
			l.beta.Grad.Data[i] += dseg[i]
		}
		// dxhat = dOut * gamma; dIn via the layer-norm backward identity.
		var sumD, sumDH float64
		dxhat := make([]float64, l.D)
		for i := 0; i < l.D; i++ {
			dx := float64(dseg[i]) * float64(l.gamma.Value.Data[i])
			dxhat[i] = dx
			sumD += dx
			sumDH += dx * float64(hseg[i])
		}
		inv := float64(l.invStd[r])
		iseg := dIn.Data[r*l.D : (r+1)*l.D]
		n := float64(l.D)
		for i := 0; i < l.D; i++ {
			iseg[i] = float32(inv * (dxhat[i] - sumD/n - float64(hseg[i])*sumDH/n))
		}
	}
	return dIn, nil
}
