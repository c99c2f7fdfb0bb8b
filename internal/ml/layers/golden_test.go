package layers

// Bit-exact goldens for the convolution, pooling and ReLU kernels. The
// ref* functions are the pre-rewrite Forward/Backward loops kept
// verbatim: one output element at a time, output channel outermost.
// The production kernels run the output channel innermost, but every
// element must still receive the same float32 operations in the same
// order, because the camera and voice TAs' verdicts — and with them the
// fleet audit and every pinned fingerprint — depend on exact values.

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/ml/tensor"
)

func refConv2DForward(c *Conv2D, x *tensor.Tensor) *tensor.Tensor {
	B, H, W := x.Dim(0), x.Dim(1), x.Dim(2)
	Ho, Wo := H-c.K+1, W-c.K+1
	out := tensor.New(B, Ho, Wo, c.Cout)
	xd, wd, bd, od := x.Data, c.w.Value.Data, c.b.Value.Data, out.Data
	for b := 0; b < B; b++ {
		for i := 0; i < Ho; i++ {
			for j := 0; j < Wo; j++ {
				for co := 0; co < c.Cout; co++ {
					acc := bd[co]
					for ki := 0; ki < c.K; ki++ {
						for kj := 0; kj < c.K; kj++ {
							xrow := xd[((b*H+i+ki)*W+j+kj)*c.Cin:]
							wrow := wd[(ki*c.K+kj)*c.Cin*c.Cout+co:]
							for ci := 0; ci < c.Cin; ci++ {
								acc += xrow[ci] * wrow[ci*c.Cout]
							}
						}
					}
					od[((b*Ho+i)*Wo+j)*c.Cout+co] = acc
				}
			}
		}
	}
	return out
}

// refConv2DBackward accumulates into wGrad and bGrad and returns dIn.
func refConv2DBackward(c *Conv2D, x, dOut *tensor.Tensor, wGrad, bGrad []float32) *tensor.Tensor {
	B, H, W := x.Dim(0), x.Dim(1), x.Dim(2)
	Ho, Wo := H-c.K+1, W-c.K+1
	dIn := tensor.New(B, H, W, c.Cin)
	for b := 0; b < B; b++ {
		for i := 0; i < Ho; i++ {
			for j := 0; j < Wo; j++ {
				for co := 0; co < c.Cout; co++ {
					g := dOut.Data[((b*Ho+i)*Wo+j)*c.Cout+co]
					if g == 0 {
						continue
					}
					bGrad[co] += g
					for ki := 0; ki < c.K; ki++ {
						for kj := 0; kj < c.K; kj++ {
							xrow := x.Data[((b*H+i+ki)*W+j+kj)*c.Cin:]
							irow := dIn.Data[((b*H+i+ki)*W+j+kj)*c.Cin:]
							for ci := 0; ci < c.Cin; ci++ {
								wIdx := ((ki*c.K+kj)*c.Cin+ci)*c.Cout + co
								wGrad[wIdx] += g * xrow[ci]
								irow[ci] += g * c.w.Value.Data[wIdx]
							}
						}
					}
				}
			}
		}
	}
	return dIn
}

func refConv1DForward(c *Conv1D, x *tensor.Tensor) *tensor.Tensor {
	B, L := x.Dim(0), x.Dim(1)
	Lout := L - c.K + 1
	out := tensor.New(B, Lout, c.Cout)
	xd, wd, bd, od := x.Data, c.w.Value.Data, c.b.Value.Data, out.Data
	for bi := 0; bi < B; bi++ {
		for t := 0; t < Lout; t++ {
			for co := 0; co < c.Cout; co++ {
				acc := bd[co]
				for k := 0; k < c.K; k++ {
					xrow := xd[(bi*L+t+k)*c.Cin:]
					wrow := wd[k*c.Cin*c.Cout+co:]
					for ci := 0; ci < c.Cin; ci++ {
						acc += xrow[ci] * wrow[ci*c.Cout]
					}
				}
				od[(bi*Lout+t)*c.Cout+co] = acc
			}
		}
	}
	return out
}

// refConv1DBackward accumulates into wGrad and bGrad and returns dIn.
func refConv1DBackward(c *Conv1D, x, dOut *tensor.Tensor, wGrad, bGrad []float32) *tensor.Tensor {
	B, L := x.Dim(0), x.Dim(1)
	Lout := L - c.K + 1
	dIn := tensor.New(B, L, c.Cin)
	xd, wd := x.Data, c.w.Value.Data
	for bi := 0; bi < B; bi++ {
		for t := 0; t < Lout; t++ {
			for co := 0; co < c.Cout; co++ {
				g := dOut.Data[(bi*Lout+t)*c.Cout+co]
				if g == 0 {
					continue
				}
				bGrad[co] += g
				for k := 0; k < c.K; k++ {
					xrow := xd[(bi*L+t+k)*c.Cin:]
					irow := dIn.Data[(bi*L+t+k)*c.Cin:]
					for ci := 0; ci < c.Cin; ci++ {
						wIdx := (k*c.Cin+ci)*c.Cout + co
						wGrad[wIdx] += g * xrow[ci]
						irow[ci] += g * wd[wIdx]
					}
				}
			}
		}
	}
	return dIn
}

// refMaxPool2DForward returns the pooled output and the flat argmax map.
// A window no element beats -Inf in (only NaN or -Inf) keeps its first
// element as the argmax.
func refMaxPool2DForward(p int, x *tensor.Tensor) (*tensor.Tensor, []int) {
	B, H, W, C := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	Ho, Wo := H/p, W/p
	out := tensor.New(B, Ho, Wo, C)
	arg := make([]int, B*Ho*Wo*C)
	for b := 0; b < B; b++ {
		for i := 0; i < Ho; i++ {
			for j := 0; j < Wo; j++ {
				for c := 0; c < C; c++ {
					best := float32(math.Inf(-1))
					bestIdx := ((b*H+i*p)*W+j*p)*C + c
					for pi := 0; pi < p; pi++ {
						for pj := 0; pj < p; pj++ {
							idx := ((b*H+i*p+pi)*W+j*p+pj)*C + c
							if v := x.Data[idx]; v > best {
								best, bestIdx = v, idx
							}
						}
					}
					out.Set(best, b, i, j, c)
					arg[((b*Ho+i)*Wo+j)*C+c] = bestIdx
				}
			}
		}
	}
	return out, arg
}

// refReLUForward returns the activated output and the pass-through mask.
func refReLUForward(x *tensor.Tensor) (*tensor.Tensor, []bool) {
	out := x.Clone()
	mask := make([]bool, len(out.Data))
	for i, v := range out.Data {
		if v > 0 {
			mask[i] = true
		} else {
			out.Data[i] = 0
		}
	}
	return out, mask
}

// goldenTensor fills a tensor with normal values, about a fifth of them
// exact zeros and a tenth negative zeros, so the kernels' zero-gradient
// skips and signed-zero sums are exercised.
func goldenTensor(rng *rand.Rand, shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	for i := range t.Data {
		switch r := rng.Float64(); {
		case r < 0.2:
			t.Data[i] = 0
		case r < 0.3:
			t.Data[i] = float32(math.Copysign(0, -1))
		default:
			t.Data[i] = float32(rng.NormFloat64())
		}
	}
	return t
}

// randomizeParams gives a layer gradient accumulators and gives them and
// its values random contents, so biases are non-zero and gradients
// accumulate onto prior values as they do across mini-batches.
func randomizeParams(rng *rand.Rand, l Layer) {
	EnableGrad(l)
	for _, p := range l.Params() {
		copy(p.Value.Data, goldenTensor(rng, p.Value.Shape...).Data)
		copy(p.Grad.Data, goldenTensor(rng, p.Grad.Shape...).Data)
	}
}

func assertBitsEqual(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s[%d] = %v (%#08x), want %v (%#08x)", what, i,
				got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

var (
	goldenKs    = []int{1, 2, 3}
	goldenCins  = []int{1, 3, 16}
	goldenCouts = []int{1, 4, 5, 32}
)

func TestConv2DGolden(t *testing.T) {
	rng := rand.New(rand.NewPCG(24, 1))
	for _, B := range []int{1, 3} {
		for _, k := range goldenKs {
			for _, cin := range goldenCins {
				for _, cout := range goldenCouts {
					H, W := k+4, k+2
					name := fmt.Sprintf("B%d_%dx%d_k%d_%d->%d", B, H, W, k, cin, cout)
					c := NewConv2D(rng, k, cin, cout)
					randomizeParams(rng, c)
					wGrad := append([]float32(nil), c.w.Grad.Data...)
					bGrad := append([]float32(nil), c.b.Grad.Data...)
					// Two passes: the second accumulates onto the first's
					// gradients, as successive mini-batches do.
					for pass := 0; pass < 2; pass++ {
						x := goldenTensor(rng, B, H, W, cin)
						got, err := c.Forward(x)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						assertBitsEqual(t, name+" forward", got.Data, refConv2DForward(c, x).Data)
						dOut := goldenTensor(rng, got.Shape...)
						dIn, err := c.Backward(dOut)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						wantIn := refConv2DBackward(c, x, dOut, wGrad, bGrad)
						assertBitsEqual(t, name+" dIn", dIn.Data, wantIn.Data)
						assertBitsEqual(t, name+" w.Grad", c.w.Grad.Data, wGrad)
						assertBitsEqual(t, name+" b.Grad", c.b.Grad.Data, bGrad)
					}
				}
			}
		}
	}
}

func TestConv1DGolden(t *testing.T) {
	rng := rand.New(rand.NewPCG(24, 2))
	for _, B := range []int{1, 3} {
		for _, k := range goldenKs {
			for _, cin := range goldenCins {
				for _, cout := range goldenCouts {
					L := k + 6
					name := fmt.Sprintf("B%d_L%d_k%d_%d->%d", B, L, k, cin, cout)
					c := NewConv1D(rng, k, cin, cout)
					randomizeParams(rng, c)
					wGrad := append([]float32(nil), c.w.Grad.Data...)
					bGrad := append([]float32(nil), c.b.Grad.Data...)
					for pass := 0; pass < 2; pass++ {
						x := goldenTensor(rng, B, L, cin)
						got, err := c.Forward(x)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						assertBitsEqual(t, name+" forward", got.Data, refConv1DForward(c, x).Data)
						dOut := goldenTensor(rng, got.Shape...)
						dIn, err := c.Backward(dOut)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						wantIn := refConv1DBackward(c, x, dOut, wGrad, bGrad)
						assertBitsEqual(t, name+" dIn", dIn.Data, wantIn.Data)
						assertBitsEqual(t, name+" w.Grad", c.w.Grad.Data, wGrad)
						assertBitsEqual(t, name+" b.Grad", c.b.Grad.Data, bGrad)
					}
				}
			}
		}
	}
}

// specialTensor is goldenTensor with NaNs and infinities mixed in, for
// the comparison-only kernels.
func specialTensor(rng *rand.Rand, shape ...int) *tensor.Tensor {
	t := goldenTensor(rng, shape...)
	specials := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))}
	for i := range t.Data {
		if rng.Float64() < 0.05 {
			t.Data[i] = specials[rng.IntN(len(specials))]
		}
	}
	return t
}

func TestMaxPool2DGolden(t *testing.T) {
	rng := rand.New(rand.NewPCG(24, 3))
	for _, B := range []int{1, 3} {
		for _, p := range []int{1, 2, 3} {
			for _, C := range []int{1, 4, 5} {
				name := fmt.Sprintf("B%d_p%d_C%d", B, p, C)
				shape := []int{B, 3 * p, 2 * p, C}
				x := specialTensor(rng, shape...)
				// One window of NaNs only: no element beats -Inf, so
				// the output is -Inf and the argmax is the window's
				// first element.
				for pi := 0; pi < p; pi++ {
					for pj := 0; pj < p; pj++ {
						x.Set(float32(math.NaN()), B-1, p+pi, pj, C-1)
					}
				}
				m := NewMaxPool2D(p)
				got, err := m.Forward(x)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				want, arg := refMaxPool2DForward(p, x)
				assertBitsEqual(t, name+" forward", got.Data, want.Data)
				for i := range arg {
					if m.arg[i] != arg[i] {
						t.Fatalf("%s: arg[%d] = %d, want %d", name, i, m.arg[i], arg[i])
					}
				}
				// Each output's gradient must land inside its own
				// window: pools do not overlap, so every window of
				// dIn sums to exactly its one output gradient.
				dOut := goldenTensor(rng, got.Shape...)
				dIn, err := m.Backward(dOut)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				assertWindowGradients(t, name, p, dIn, dOut)
			}
		}
	}
}

// assertWindowGradients checks that each pooling window of dIn holds
// exactly the gradient of its output element and nothing else.
func assertWindowGradients(t *testing.T, name string, p int, dIn, dOut *tensor.Tensor) {
	t.Helper()
	B, Ho, Wo, C := dOut.Dim(0), dOut.Dim(1), dOut.Dim(2), dOut.Dim(3)
	for b := 0; b < B; b++ {
		for i := 0; i < Ho; i++ {
			for j := 0; j < Wo; j++ {
				for c := 0; c < C; c++ {
					var sum float32
					for pi := 0; pi < p; pi++ {
						for pj := 0; pj < p; pj++ {
							sum += dIn.At(b, i*p+pi, j*p+pj, c)
						}
					}
					// Compared by value: a cleared +0 plus a -0
					// gradient reads +0.
					if want := dOut.At(b, i, j, c); sum != want {
						t.Fatalf("%s: window (%d,%d,%d,%d) holds gradient %v, want %v", name, b, i, j, c, sum, want)
					}
				}
			}
		}
	}
}

func TestReLUGolden(t *testing.T) {
	rng := rand.New(rand.NewPCG(24, 4))
	for _, n := range []int{1, 7, 64} {
		x := specialTensor(rng, 2, n)
		r := NewReLU()
		got, err := r.Forward(x)
		if err != nil {
			t.Fatal(err)
		}
		want, mask := refReLUForward(x)
		assertBitsEqual(t, fmt.Sprintf("n%d forward", n), got.Data, want.Data)
		for i := range mask {
			if r.mask[i] != mask[i] {
				t.Fatalf("n%d: mask[%d] = %v, want %v", n, i, r.mask[i], mask[i])
			}
		}
	}
}

// TestPoolReLUReuseGolden drives one ReLU→MaxPool stack through several
// inputs. Each forward/backward pair must match a freshly built stack,
// so no cache the layers keep between calls may leak a stale entry.
func TestPoolReLUReuseGolden(t *testing.T) {
	rng := rand.New(rand.NewPCG(24, 5))
	reused := NewSequential("reuse", NewReLU(), NewMaxPool2D(2))
	shapes := [][]int{{2, 6, 4, 3}, {2, 6, 4, 3}, {1, 4, 2, 3}, {3, 6, 4, 3}}
	for step, shape := range shapes {
		x := specialTensor(rng, shape...)
		fresh := NewSequential("fresh", NewReLU(), NewMaxPool2D(2))
		want, err := fresh.Forward(x)
		if err != nil {
			t.Fatal(err)
		}
		got, err := reused.Forward(x)
		if err != nil {
			t.Fatal(err)
		}
		assertBitsEqual(t, fmt.Sprintf("step %d forward", step), got.Data, want.Data)
		dOut := goldenTensor(rng, want.Shape...)
		wantIn, err := fresh.Backward(dOut)
		if err != nil {
			t.Fatal(err)
		}
		gotIn, err := reused.Backward(dOut)
		if err != nil {
			t.Fatal(err)
		}
		assertBitsEqual(t, fmt.Sprintf("step %d dIn", step), gotIn.Data, wantIn.Data)
	}
}

// reuseCase builds one layer from a seeded generator and draws its
// inputs for a batch size.
type reuseCase struct {
	name string
	mk   func(rng *rand.Rand) Layer
	in   func(rng *rand.Rand, b int) *tensor.Tensor
}

// TestLayerBufferReuseGolden drives one instance of each layer that keeps
// its output and input-gradient buffers through batch sizes 8, 1, 3, 8
// (the buffers shrink, grow within their capacity, then return to full
// size), two forward/backward passes at each. Every output, dIn and parameter
// gradient must match, bit for bit, a fresh instance holding the same
// parameters and gradients, so no reused buffer may keep a stale element.
func TestLayerBufferReuseGolden(t *testing.T) {
	cases := []reuseCase{
		{"conv2d", func(rng *rand.Rand) Layer { return NewConv2D(rng, 3, 2, 4) },
			func(rng *rand.Rand, b int) *tensor.Tensor { return goldenTensor(rng, b, 6, 5, 2) }},
		{"maxpool2d", func(*rand.Rand) Layer { return NewMaxPool2D(2) },
			func(rng *rand.Rand, b int) *tensor.Tensor { return specialTensor(rng, b, 4, 6, 3) }},
		{"flatten", func(*rand.Rand) Layer { return NewFlatten() },
			func(rng *rand.Rand, b int) *tensor.Tensor { return goldenTensor(rng, b, 3, 2, 2) }},
		{"relu", func(*rand.Rand) Layer { return NewReLU() },
			func(rng *rand.Rand, b int) *tensor.Tensor { return specialTensor(rng, b, 5, 3) }},
		{"conv1d", func(rng *rand.Rand) Layer { return NewConv1D(rng, 3, 4, 5) },
			func(rng *rand.Rand, b int) *tensor.Tensor { return goldenTensor(rng, b, 7, 4) }},
		{"gmaxpool1d", func(*rand.Rand) Layer { return NewGlobalMaxPool1D() },
			func(rng *rand.Rand, b int) *tensor.Tensor { return specialTensor(rng, b, 6, 3) }},
		{"embedding", func(rng *rand.Rand) Layer { return NewEmbedding(rng, 10, 4) },
			func(rng *rand.Rand, b int) *tensor.Tensor {
				// Ids -1 and 10 are out of range and map to row 0.
				x := tensor.New(b, 5)
				for i := range x.Data {
					x.Data[i] = float32(rng.IntN(12) - 1)
				}
				return x
			}},
		{"dense", func(rng *rand.Rand) Layer { return NewDense(rng, 6, 3) },
			func(rng *rand.Rand, b int) *tensor.Tensor { return goldenTensor(rng, b, 6) }},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewPCG(26, uint64(i)))
			reused := tc.mk(rng)
			randomizeParams(rng, reused)
			for _, b := range []int{8, 1, 3, 8} {
				for pass := 0; pass < 2; pass++ {
					name := fmt.Sprintf("batch %d pass %d", b, pass)
					fresh := tc.mk(rng)
					copyParamState(t, reused, fresh)
					x := tc.in(rng, b)
					sameStep(t, name, rng, reused, fresh, x)
				}
			}
		})
	}
}

// sameStep runs one forward/backward pair through reused and fresh on x
// and requires bit-identical outputs, input gradients and parameter
// gradients. dOut is drawn from rng.
func sameStep(t *testing.T, name string, rng *rand.Rand, reused, fresh Layer, x *tensor.Tensor) {
	t.Helper()
	got, err := reused.Forward(x)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want, err := fresh.Forward(x)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	assertShape(t, name+" forward", got, want)
	assertBitsEqual(t, name+" forward", got.Data, want.Data)
	dOut := goldenTensor(rng, want.Shape...)
	gotIn, err := reused.Backward(dOut)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	wantIn, err := fresh.Backward(dOut)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	assertShape(t, name+" dIn", gotIn, wantIn)
	assertBitsEqual(t, name+" dIn", gotIn.Data, wantIn.Data)
	for i, p := range reused.Params() {
		assertBitsEqual(t, name+" "+p.Name+".Grad", p.Grad.Data, fresh.Params()[i].Grad.Data)
	}
}

func assertShape(t *testing.T, what string, got, want *tensor.Tensor) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape %v, want %v", what, got.Shape, want.Shape)
	}
}

// copyParamState copies the parameter values and gradients of from
// into to, giving to's parameters gradients first.
func copyParamState(t *testing.T, from, to Layer) {
	t.Helper()
	EnableGrad(to)
	fp, tp := from.Params(), to.Params()
	if len(fp) != len(tp) {
		t.Fatalf("param count mismatch: %d vs %d", len(fp), len(tp))
	}
	for i := range fp {
		copy(tp[i].Value.Data, fp[i].Value.Data)
		copy(tp[i].Grad.Data, fp[i].Grad.Data)
	}
}

var benchSink *tensor.Tensor

// BenchmarkConv2DForward times one doorbell frame (24×24 grayscale
// through the camera classifier's 3×3, 1→4 convolution) with the
// production kernel and with the reference loops above.
func BenchmarkConv2DForward(b *testing.B) {
	rng := rand.New(rand.NewPCG(24, 6))
	c := NewConv2D(rng, 3, 1, 4)
	x := goldenTensor(rng, 1, 24, 24, 1)
	b.Run("kernel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink, _ = c.Forward(x)
		}
	})
	b.Run("reference", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink = refConv2DForward(c, x)
		}
	})
}
