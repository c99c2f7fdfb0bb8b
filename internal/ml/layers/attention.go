package layers

import (
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/ml/tensor"
)

// MultiHeadSelfAttention is the transformer attention block over [B, L, D]:
// per head h, A = softmax(Q K^T / sqrt(dk)), output = concat(A V) Wo.
type MultiHeadSelfAttention struct {
	D, Heads, dk   int
	wq, wk, wv, wo *Param

	// Cached forward state, per batch element.
	x       *tensor.Tensor
	q, k, v *tensor.Tensor   // [B*L, D] projections
	attn    []*tensor.Tensor // per (b, h): [L, L] softmax matrices
	concat  *tensor.Tensor   // [B*L, D] pre-Wo
}

// NewMultiHeadSelfAttention creates an attention block; d must divide by
// heads.
func NewMultiHeadSelfAttention(rng *rand.Rand, d, heads int) (*MultiHeadSelfAttention, error) {
	if heads <= 0 || d%heads != 0 {
		return nil, fmt.Errorf("%w: d=%d heads=%d", ErrShape, d, heads)
	}
	std := math.Sqrt(2.0 / float64(2*d))
	return &MultiHeadSelfAttention{
		D: d, Heads: heads, dk: d / heads,
		wq: &Param{Name: "mhsa.wq", Value: tensor.Randn(rng, std, d, d)},
		wk: &Param{Name: "mhsa.wk", Value: tensor.Randn(rng, std, d, d)},
		wv: &Param{Name: "mhsa.wv", Value: tensor.Randn(rng, std, d, d)},
		wo: &Param{Name: "mhsa.wo", Value: tensor.Randn(rng, std, d, d)},
	}, nil
}

// Name implements Layer.
func (m *MultiHeadSelfAttention) Name() string {
	return fmt.Sprintf("mhsa(d%d,h%d)", m.D, m.Heads)
}

// Params implements Layer.
func (m *MultiHeadSelfAttention) Params() []*Param {
	return []*Param{m.wq, m.wk, m.wv, m.wo}
}

// Forward implements Layer.
func (m *MultiHeadSelfAttention) Forward(x *tensor.Tensor) (*tensor.Tensor, error) {
	if x.Dims() != 3 || x.Dim(2) != m.D {
		return nil, fmt.Errorf("%w: %s got %v", ErrShape, m.Name(), x.Shape)
	}
	B, L, D := x.Dim(0), x.Dim(1), x.Dim(2)
	m.x = x
	flat, err := x.Reshape(B*L, D)
	if err != nil {
		return nil, err
	}
	if m.q, err = tensor.MatMul(flat, m.wq.Value); err != nil {
		return nil, err
	}
	if m.k, err = tensor.MatMul(flat, m.wk.Value); err != nil {
		return nil, err
	}
	if m.v, err = tensor.MatMul(flat, m.wv.Value); err != nil {
		return nil, err
	}
	m.attn = make([]*tensor.Tensor, B*m.Heads)
	m.concat = tensor.New(B*L, D)
	scale := float32(1 / math.Sqrt(float64(m.dk)))
	for b := 0; b < B; b++ {
		for h := 0; h < m.Heads; h++ {
			// Scores S = Qh Kh^T * scale, Qh rows are q[b*L+t][h*dk:(h+1)*dk].
			s := tensor.New(L, L)
			for i := 0; i < L; i++ {
				qi := m.q.Data[(b*L+i)*D+h*m.dk : (b*L+i)*D+(h+1)*m.dk]
				for j := 0; j < L; j++ {
					kj := m.k.Data[(b*L+j)*D+h*m.dk : (b*L+j)*D+(h+1)*m.dk]
					var acc float32
					for p := 0; p < m.dk; p++ {
						acc += qi[p] * kj[p]
					}
					s.Set(acc*scale, i, j)
				}
			}
			a, err := tensor.SoftmaxRows(s)
			if err != nil {
				return nil, err
			}
			m.attn[b*m.Heads+h] = a
			// Oh = A Vh into the concat buffer.
			for i := 0; i < L; i++ {
				orow := m.concat.Data[(b*L+i)*D+h*m.dk : (b*L+i)*D+(h+1)*m.dk]
				for j := 0; j < L; j++ {
					av := a.At(i, j)
					if av == 0 {
						continue
					}
					vj := m.v.Data[(b*L+j)*D+h*m.dk : (b*L+j)*D+(h+1)*m.dk]
					for p := 0; p < m.dk; p++ {
						orow[p] += av * vj[p]
					}
				}
			}
		}
	}
	out2d, err := tensor.MatMul(m.concat, m.wo.Value)
	if err != nil {
		return nil, err
	}
	return out2d.Reshape(B, L, D)
}

// Backward implements Layer.
func (m *MultiHeadSelfAttention) Backward(dOut *tensor.Tensor) (*tensor.Tensor, error) {
	if m.x == nil {
		return nil, fmt.Errorf("%w: %s", ErrNoForward, m.Name())
	}
	B, L, D := m.x.Dim(0), m.x.Dim(1), m.x.Dim(2)
	if dOut.Dims() != 3 || dOut.Dim(0) != B || dOut.Dim(1) != L || dOut.Dim(2) != D {
		return nil, fmt.Errorf("%w: %s backward got %v", ErrShape, m.Name(), dOut.Shape)
	}
	dOut2d, err := dOut.Reshape(B*L, D)
	if err != nil {
		return nil, err
	}
	// Out = concat Wo.
	concatT, err := tensor.Transpose(m.concat)
	if err != nil {
		return nil, err
	}
	dWo, err := tensor.MatMul(concatT, dOut2d)
	if err != nil {
		return nil, err
	}
	if err := m.wo.Grad.AddInPlace(dWo); err != nil {
		return nil, err
	}
	woT, err := tensor.Transpose(m.wo.Value)
	if err != nil {
		return nil, err
	}
	dConcat, err := tensor.MatMul(dOut2d, woT)
	if err != nil {
		return nil, err
	}

	dQ := tensor.New(B*L, D)
	dK := tensor.New(B*L, D)
	dV := tensor.New(B*L, D)
	scale := float32(1 / math.Sqrt(float64(m.dk)))
	for b := 0; b < B; b++ {
		for h := 0; h < m.Heads; h++ {
			a := m.attn[b*m.Heads+h]
			// dA = dOh Vh^T ; dVh = A^T dOh
			dA := tensor.New(L, L)
			for i := 0; i < L; i++ {
				dohi := dConcat.Data[(b*L+i)*D+h*m.dk : (b*L+i)*D+(h+1)*m.dk]
				for j := 0; j < L; j++ {
					vj := m.v.Data[(b*L+j)*D+h*m.dk : (b*L+j)*D+(h+1)*m.dk]
					var acc float32
					for p := 0; p < m.dk; p++ {
						acc += dohi[p] * vj[p]
					}
					dA.Set(acc, i, j)
					// dVh[j] += A[i,j] * dOh[i]
					av := a.At(i, j)
					if av != 0 {
						dvj := dV.Data[(b*L+j)*D+h*m.dk : (b*L+j)*D+(h+1)*m.dk]
						for p := 0; p < m.dk; p++ {
							dvj[p] += av * dohi[p]
						}
					}
				}
			}
			// Softmax backward: dS_ij = A_ij * (dA_ij - sum_k dA_ik A_ik).
			dS := tensor.New(L, L)
			for i := 0; i < L; i++ {
				var dot float64
				for j := 0; j < L; j++ {
					dot += float64(dA.At(i, j)) * float64(a.At(i, j))
				}
				for j := 0; j < L; j++ {
					dS.Set(a.At(i, j)*(dA.At(i, j)-float32(dot)), i, j)
				}
			}
			// dQh = dS Kh * scale ; dKh = dS^T Qh * scale.
			for i := 0; i < L; i++ {
				dqi := dQ.Data[(b*L+i)*D+h*m.dk : (b*L+i)*D+(h+1)*m.dk]
				for j := 0; j < L; j++ {
					g := dS.At(i, j) * scale
					if g == 0 {
						continue
					}
					kj := m.k.Data[(b*L+j)*D+h*m.dk : (b*L+j)*D+(h+1)*m.dk]
					for p := 0; p < m.dk; p++ {
						dqi[p] += g * kj[p]
					}
					dkj := dK.Data[(b*L+j)*D+h*m.dk : (b*L+j)*D+(h+1)*m.dk]
					qi := m.q.Data[(b*L+i)*D+h*m.dk : (b*L+i)*D+(h+1)*m.dk]
					for p := 0; p < m.dk; p++ {
						dkj[p] += g * qi[p]
					}
				}
			}
		}
	}
	// Project back through Wq/Wk/Wv.
	flat, err := m.x.Reshape(B*L, D)
	if err != nil {
		return nil, err
	}
	flatT, err := tensor.Transpose(flat)
	if err != nil {
		return nil, err
	}
	dIn := tensor.New(B*L, D)
	for _, step := range []struct {
		w  *Param
		dp *tensor.Tensor
	}{{m.wq, dQ}, {m.wk, dK}, {m.wv, dV}} {
		dw, err := tensor.MatMul(flatT, step.dp)
		if err != nil {
			return nil, err
		}
		if err := step.w.Grad.AddInPlace(dw); err != nil {
			return nil, err
		}
		wT, err := tensor.Transpose(step.w.Value)
		if err != nil {
			return nil, err
		}
		dx, err := tensor.MatMul(step.dp, wT)
		if err != nil {
			return nil, err
		}
		if err := dIn.AddInPlace(dx); err != nil {
			return nil, err
		}
	}
	return dIn.Reshape(B, L, D)
}
