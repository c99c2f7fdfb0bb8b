package layers

import (
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/ml/tensor"
)

// Conv2D is a 2-D convolution for the camera path: input [B, H, W, Cin] ->
// output [B, H-K+1, W-K+1, Cout] (valid padding, stride 1, square kernel).
// Weight layout is [K, K, Cin, Cout].
type Conv2D struct {
	K, Cin, Cout int
	w, b         *Param
	x, out, dIn  *tensor.Tensor
}

// NewConv2D creates a 2-D convolution with He-scaled weights.
func NewConv2D(rng *rand.Rand, k, cin, cout int) *Conv2D {
	std := math.Sqrt(2.0 / float64(k*k*cin))
	return &Conv2D{
		K: k, Cin: cin, Cout: cout,
		w: &Param{Name: "conv2d.w", Value: tensor.Randn(rng, std, k, k, cin, cout)},
		b: &Param{Name: "conv2d.b", Value: tensor.New(cout)},
	}
}

// Name implements Layer.
func (c *Conv2D) Name() string { return fmt.Sprintf("conv2d(k%d,%d->%d)", c.K, c.Cin, c.Cout) }

// Params implements Layer.
func (c *Conv2D) Params() []*Param { return []*Param{c.w, c.b} }

// Forward implements Layer.
func (c *Conv2D) Forward(x *tensor.Tensor) (*tensor.Tensor, error) {
	if x.Dims() != 4 || x.Dim(3) != c.Cin || x.Dim(1) < c.K || x.Dim(2) < c.K {
		return nil, fmt.Errorf("%w: %s got %v", ErrShape, c.Name(), x.Shape)
	}
	c.x = x
	B, H, W := x.Dim(0), x.Dim(1), x.Dim(2)
	Ho, Wo := H-c.K+1, W-c.K+1
	c.out = reuse(c.out, B, Ho, Wo, c.Cout)
	// x is [B,H,W,Cin] and w is [K,K,Cin,Cout], so for a fixed kernel row
	// ki both the input window (kj, ci) and its weights are contiguous.
	win := c.K * c.Cin
	xd, wd, od := x.Data, c.w.Value.Data, c.out.Data
	for b := 0; b < B; b++ {
		for i := 0; i < Ho; i++ {
			for j := 0; j < Wo; j++ {
				acc := od[((b*Ho+i)*Wo+j)*c.Cout:][:c.Cout]
				copy(acc, c.b.Value.Data)
				for ki := 0; ki < c.K; ki++ {
					macForward(acc, xd[((b*H+i+ki)*W+j)*c.Cin:][:win], wd[ki*win*c.Cout:][:win*c.Cout])
				}
			}
		}
	}
	return c.out, nil
}

// Backward implements Layer.
func (c *Conv2D) Backward(dOut *tensor.Tensor) (*tensor.Tensor, error) {
	if c.x == nil {
		return nil, fmt.Errorf("%w: %s", ErrNoForward, c.Name())
	}
	x := c.x
	B, H, W := x.Dim(0), x.Dim(1), x.Dim(2)
	Ho, Wo := H-c.K+1, W-c.K+1
	if dOut.Dims() != 4 || dOut.Dim(0) != B || dOut.Dim(1) != Ho || dOut.Dim(2) != Wo || dOut.Dim(3) != c.Cout {
		return nil, fmt.Errorf("%w: %s backward got %v", ErrShape, c.Name(), dOut.Shape)
	}
	c.dIn = reuse(c.dIn, B, H, W, c.Cin)
	clear(c.dIn.Data)
	win := c.K * c.Cin
	for b := 0; b < B; b++ {
		for i := 0; i < Ho; i++ {
			for j := 0; j < Wo; j++ {
				g := dOut.Data[((b*Ho+i)*Wo+j)*c.Cout:][:c.Cout]
				addNonZero(c.b.Grad.Data, g)
				for ki := 0; ki < c.K; ki++ {
					off := ((b*H+i+ki)*W + j) * c.Cin
					wOff := ki * win * c.Cout
					macBackward(g, x.Data[off:][:win], c.dIn.Data[off:][:win],
						c.w.Value.Data[wOff:][:win*c.Cout], c.w.Grad.Data[wOff:][:win*c.Cout])
				}
			}
		}
	}
	return c.dIn, nil
}

// MaxPool2D is a non-overlapping 2-D max pool with a square window:
// [B, H, W, C] -> [B, H/P, W/P, C]. H and W must divide by P.
type MaxPool2D struct {
	P        int
	arg      []int
	dims     [4]int
	out, dIn *tensor.Tensor
}

// NewMaxPool2D creates a pool with window p.
func NewMaxPool2D(p int) *MaxPool2D { return &MaxPool2D{P: p} }

// Name implements Layer.
func (m *MaxPool2D) Name() string { return fmt.Sprintf("maxpool2d(%d)", m.P) }

// Params implements Layer.
func (m *MaxPool2D) Params() []*Param { return nil }

// Forward implements Layer.
func (m *MaxPool2D) Forward(x *tensor.Tensor) (*tensor.Tensor, error) {
	if x.Dims() != 4 || x.Dim(1)%m.P != 0 || x.Dim(2)%m.P != 0 {
		return nil, fmt.Errorf("%w: %s got %v", ErrShape, m.Name(), x.Shape)
	}
	B, H, W, C := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	m.dims = [4]int{B, H, W, C}
	Ho, Wo := H/m.P, W/m.P
	m.out = reuse(m.out, B, Ho, Wo, C)
	m.arg = resize(m.arg, B*Ho*Wo*C)
	// Each output row of C channels takes the strict maximum over its
	// window in (pi, pj) order; a channel no element beats -Inf (only
	// NaN or -Inf) keeps -Inf and its window's first element, so the
	// gradient stays inside the window.
	negInf := float32(math.Inf(-1))
	for b := 0; b < B; b++ {
		for i := 0; i < Ho; i++ {
			for j := 0; j < Wo; j++ {
				o := ((b*Ho+i)*Wo + j) * C
				first := ((b*H+i*m.P)*W + j*m.P) * C
				best, arg := m.out.Data[o:][:C], m.arg[o:][:C]
				for c := range best {
					best[c], arg[c] = negInf, first+c
				}
				for pi := 0; pi < m.P; pi++ {
					for pj := 0; pj < m.P; pj++ {
						idx := ((b*H+i*m.P+pi)*W + j*m.P + pj) * C
						for c, v := range x.Data[idx:][:C] {
							if v > best[c] {
								best[c], arg[c] = v, idx+c
							}
						}
					}
				}
			}
		}
	}
	return m.out, nil
}

// Backward implements Layer.
func (m *MaxPool2D) Backward(dOut *tensor.Tensor) (*tensor.Tensor, error) {
	if m.arg == nil {
		return nil, fmt.Errorf("%w: %s", ErrNoForward, m.Name())
	}
	B, H, W, C := m.dims[0], m.dims[1], m.dims[2], m.dims[3]
	Ho, Wo := H/m.P, W/m.P
	if dOut.Dims() != 4 || dOut.Dim(0) != B || dOut.Dim(1) != Ho || dOut.Dim(2) != Wo || dOut.Dim(3) != C {
		return nil, fmt.Errorf("%w: %s backward got %v", ErrShape, m.Name(), dOut.Shape)
	}
	m.dIn = reuse(m.dIn, B, H, W, C)
	clear(m.dIn.Data)
	for i, srcIdx := range m.arg {
		m.dIn.Data[srcIdx] += dOut.Data[i]
	}
	return m.dIn, nil
}

// Flatten reshapes [B, ...] -> [B, prod(rest)].
type Flatten struct {
	inShape []int
	out     tensor.Tensor // view header over the input's data
}

// NewFlatten creates a flatten layer.
func NewFlatten() *Flatten { return &Flatten{} }

// Name implements Layer.
func (f *Flatten) Name() string { return "flatten" }

// Params implements Layer.
func (f *Flatten) Params() []*Param { return nil }

// Forward implements Layer.
func (f *Flatten) Forward(x *tensor.Tensor) (*tensor.Tensor, error) {
	if x.Dims() < 2 {
		return nil, fmt.Errorf("%w: flatten got %v", ErrShape, x.Shape)
	}
	f.inShape = append(f.inShape[:0], x.Shape...)
	rest := 1
	for _, d := range x.Shape[1:] {
		rest *= d
	}
	f.out.Shape = append(f.out.Shape[:0], x.Dim(0), rest)
	f.out.Data = x.Data
	return &f.out, nil
}

// Backward implements Layer.
func (f *Flatten) Backward(dOut *tensor.Tensor) (*tensor.Tensor, error) {
	if f.inShape == nil {
		return nil, fmt.Errorf("%w: flatten", ErrNoForward)
	}
	return dOut.Reshape(f.inShape...)
}

// Sequential chains layers.
type Sequential struct {
	label  string
	layers []Layer
}

// NewSequential creates a named chain.
func NewSequential(label string, ls ...Layer) *Sequential {
	return &Sequential{label: label, layers: ls}
}

// Name implements Layer.
func (s *Sequential) Name() string { return s.label }

// Layers returns the chain (for introspection).
func (s *Sequential) Layers() []Layer { return s.layers }

// Params implements Layer.
func (s *Sequential) Params() []*Param {
	var out []*Param
	for _, l := range s.layers {
		out = append(out, l.Params()...)
	}
	return out
}

// Forward implements Layer.
func (s *Sequential) Forward(x *tensor.Tensor) (*tensor.Tensor, error) {
	var err error
	for _, l := range s.layers {
		if x, err = l.Forward(x); err != nil {
			return nil, fmt.Errorf("%s/%s: %w", s.label, l.Name(), err)
		}
	}
	return x, nil
}

// Backward implements Layer.
func (s *Sequential) Backward(dOut *tensor.Tensor) (*tensor.Tensor, error) {
	var err error
	for i := len(s.layers) - 1; i >= 0; i-- {
		if dOut, err = s.layers[i].Backward(dOut); err != nil {
			return nil, fmt.Errorf("%s/%s: %w", s.label, s.layers[i].Name(), err)
		}
	}
	return dOut, nil
}
