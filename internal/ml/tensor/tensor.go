// Package tensor provides the dense float32 tensors underneath the
// from-scratch neural network stack. Shapes are row-major; the first axis
// is the batch dimension by convention.
//
// The stack is stdlib-only on purpose: the paper's TEE-resident classifier
// must be small and dependency-free, and parameter/byte accounting (for the
// TEE memory-fit experiment) needs full visibility into every buffer.
package tensor

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
)

// ErrShape is returned for operations on incompatible shapes.
var ErrShape = errors.New("tensor: shape mismatch")

// Tensor is a dense row-major float32 array.
type Tensor struct {
	Shape []int
	Data  []float32
}

// New allocates a zeroed tensor of the given shape.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: invalid dim %d in %v", d, shape))
		}
		n *= d
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float32, n)}
}

// FromSlice wraps data (not copied) with the given shape.
func FromSlice(data []float32, shape ...int) (*Tensor, error) {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		return nil, fmt.Errorf("%w: %d elements for shape %v", ErrShape, len(data), shape)
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: data}, nil
}

// Randn fills a new tensor with N(0, std) values from rng (nil: zeros).
func Randn(rng *rand.Rand, std float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := 0; rng != nil && i < len(t.Data); i++ {
		t.Data[i] = float32(rng.NormFloat64() * std)
	}
	return t
}

// Len returns the number of elements.
func (t *Tensor) Len() int { return len(t.Data) }

// Dims returns the number of axes.
func (t *Tensor) Dims() int { return len(t.Shape) }

// Dim returns the size of axis i.
func (t *Tensor) Dim(i int) int { return t.Shape[i] }

// SameShape reports whether two tensors have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.Shape) != len(o.Shape) {
		return false
	}
	for i := range t.Shape {
		if t.Shape[i] != o.Shape[i] {
			return false
		}
	}
	return true
}

// Clone deep-copies the tensor.
func (t *Tensor) Clone() *Tensor {
	out := &Tensor{Shape: append([]int(nil), t.Shape...), Data: make([]float32, len(t.Data))}
	copy(out.Data, t.Data)
	return out
}

// Reshape returns a view with a new shape (same backing data).
func (t *Tensor) Reshape(shape ...int) (*Tensor, error) {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(t.Data) {
		return nil, fmt.Errorf("%w: reshape %v -> %v", ErrShape, t.Shape, shape)
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: t.Data}, nil
}

// At returns the element at the multi-index.
func (t *Tensor) At(idx ...int) float32 { return t.Data[t.offset(idx)] }

// Set writes the element at the multi-index.
func (t *Tensor) Set(v float32, idx ...int) { t.Data[t.offset(idx)] = v }

// offset keeps its panic messages free of the index slice on purpose:
// formatting idx forces every variadic At/Set call to heap-allocate its
// index, which used to dominate the conv-layer hot loops.
func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.Shape) {
		panic("tensor: index rank mismatch for shape")
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.Shape[i] {
			panic("tensor: index out of shape")
		}
		off = off*t.Shape[i] + x
	}
	return off
}

// Zero clears all elements in place.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// Fill sets all elements to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// AddInPlace adds o element-wise into t.
func (t *Tensor) AddInPlace(o *Tensor) error {
	if !t.SameShape(o) {
		return fmt.Errorf("%w: %v + %v", ErrShape, t.Shape, o.Shape)
	}
	for i := range t.Data {
		t.Data[i] += o.Data[i]
	}
	return nil
}

// ScaleInPlace multiplies all elements by s.
func (t *Tensor) ScaleInPlace(s float32) {
	for i := range t.Data {
		t.Data[i] *= s
	}
}

// Add returns t + o as a new tensor.
func Add(a, b *Tensor) (*Tensor, error) {
	if !a.SameShape(b) {
		return nil, fmt.Errorf("%w: %v + %v", ErrShape, a.Shape, b.Shape)
	}
	out := a.Clone()
	for i := range out.Data {
		out.Data[i] += b.Data[i]
	}
	return out, nil
}

// Mul returns the element-wise product as a new tensor.
func Mul(a, b *Tensor) (*Tensor, error) {
	if !a.SameShape(b) {
		return nil, fmt.Errorf("%w: %v * %v", ErrShape, a.Shape, b.Shape)
	}
	out := a.Clone()
	for i := range out.Data {
		out.Data[i] *= b.Data[i]
	}
	return out, nil
}

// MatMul multiplies two 2-D tensors: [m,k] x [k,n] -> [m,n].
func MatMul(a, b *Tensor) (*Tensor, error) {
	if a.Dims() != 2 || b.Dims() != 2 || a.Shape[1] != b.Shape[0] {
		return nil, fmt.Errorf("%w: matmul %v x %v", ErrShape, a.Shape, b.Shape)
	}
	out := New(a.Shape[0], b.Shape[1])
	return out, MatMulInto(out, a, b)
}

// MatMulInto writes a x b into out, an [m,n] tensor whose previous
// contents are cleared first, so a caller can reuse one output buffer.
func MatMulInto(out, a, b *Tensor) error {
	if a.Dims() != 2 || b.Dims() != 2 || a.Shape[1] != b.Shape[0] {
		return fmt.Errorf("%w: matmul %v x %v", ErrShape, a.Shape, b.Shape)
	}
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	if out.Dims() != 2 || out.Shape[0] != m || out.Shape[1] != n {
		return fmt.Errorf("%w: matmul %v x %v into %v", ErrShape, a.Shape, b.Shape, out.Shape)
	}
	clear(out.Data)
	for i := 0; i < m; i++ {
		arow := a.Data[i*k : (i+1)*k]
		orow := out.Data[i*n : (i+1)*n]
		for p := 0; p < k; p++ {
			av := arow[p]
			if av == 0 {
				continue
			}
			brow := b.Data[p*n : (p+1)*n]
			for j := 0; j < n; j++ {
				orow[j] += av * brow[j]
			}
		}
	}
	return nil
}

// Transpose returns the transpose of a 2-D tensor.
func Transpose(a *Tensor) (*Tensor, error) {
	if a.Dims() != 2 {
		return nil, fmt.Errorf("%w: transpose of %v", ErrShape, a.Shape)
	}
	m, n := a.Shape[0], a.Shape[1]
	out := New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out.Data[j*m+i] = a.Data[i*n+j]
		}
	}
	return out, nil
}

// SoftmaxRows applies softmax along the last axis of a 2-D tensor in a new
// tensor, with the usual max-subtraction for stability.
func SoftmaxRows(a *Tensor) (*Tensor, error) {
	if a.Dims() != 2 {
		return nil, fmt.Errorf("%w: softmax of %v", ErrShape, a.Shape)
	}
	m, n := a.Shape[0], a.Shape[1]
	out := New(m, n)
	for i := 0; i < m; i++ {
		row := a.Data[i*n : (i+1)*n]
		maxV := row[0]
		for _, v := range row[1:] {
			if v > maxV {
				maxV = v
			}
		}
		var sum float64
		orow := out.Data[i*n : (i+1)*n]
		for j, v := range row {
			e := math.Exp(float64(v - maxV))
			orow[j] = float32(e)
			sum += e
		}
		for j := range orow {
			orow[j] = float32(float64(orow[j]) / sum)
		}
	}
	return out, nil
}

// ArgMaxRows returns the index of the maximum in each row of a 2-D tensor.
func ArgMaxRows(a *Tensor) ([]int, error) {
	if a.Dims() != 2 {
		return nil, fmt.Errorf("%w: argmax of %v", ErrShape, a.Shape)
	}
	m, n := a.Shape[0], a.Shape[1]
	out := make([]int, m)
	for i := 0; i < m; i++ {
		row := a.Data[i*n : (i+1)*n]
		best := 0
		for j, v := range row {
			if v > row[best] {
				best = j
			}
		}
		out[i] = best
	}
	return out, nil
}

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float64 {
	var s float64
	for _, v := range t.Data {
		s += float64(v)
	}
	return s
}

// Mean returns the mean of all elements.
func (t *Tensor) Mean() float64 {
	if len(t.Data) == 0 {
		return 0
	}
	return t.Sum() / float64(len(t.Data))
}

// MaxAbs returns the largest absolute element value.
func (t *Tensor) MaxAbs() float64 {
	var m float64
	for _, v := range t.Data {
		if a := math.Abs(float64(v)); a > m {
			m = a
		}
	}
	return m
}

// Row returns row i of a 2-D tensor as a mutable slice view.
func (t *Tensor) Row(i int) []float32 {
	n := t.Shape[len(t.Shape)-1]
	return t.Data[i*n : (i+1)*n]
}

// String renders a compact description.
func (t *Tensor) String() string {
	return fmt.Sprintf("Tensor%v(%d elems)", t.Shape, len(t.Data))
}
