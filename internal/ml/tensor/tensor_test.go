package tensor

import (
	"errors"
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestNewAndAccessors(t *testing.T) {
	x := New(2, 3)
	if x.Len() != 6 || x.Dims() != 2 || x.Dim(0) != 2 || x.Dim(1) != 3 {
		t.Fatalf("bad tensor: %v", x)
	}
	x.Set(5, 1, 2)
	if x.At(1, 2) != 5 {
		t.Error("Set/At mismatch")
	}
	if x.String() == "" {
		t.Error("empty String()")
	}
}

func TestFromSlice(t *testing.T) {
	x, err := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	if err != nil {
		t.Fatalf("FromSlice: %v", err)
	}
	if x.At(1, 0) != 3 {
		t.Error("layout wrong")
	}
	if _, err := FromSlice([]float32{1, 2, 3}, 2, 2); !errors.Is(err, ErrShape) {
		t.Errorf("bad FromSlice = %v", err)
	}
}

func TestCloneIndependence(t *testing.T) {
	x := New(2, 2)
	x.Fill(1)
	y := x.Clone()
	y.Data[0] = 9
	if x.Data[0] != 1 {
		t.Error("Clone shares data")
	}
}

func TestReshapeSharesData(t *testing.T) {
	x := New(2, 3)
	y, err := x.Reshape(3, 2)
	if err != nil {
		t.Fatalf("Reshape: %v", err)
	}
	y.Data[0] = 7
	if x.Data[0] != 7 {
		t.Error("Reshape copied data")
	}
	if _, err := x.Reshape(4, 2); !errors.Is(err, ErrShape) {
		t.Errorf("bad Reshape = %v", err)
	}
}

func TestMatMulKnown(t *testing.T) {
	a, _ := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b, _ := FromSlice([]float32{7, 8, 9, 10, 11, 12}, 3, 2)
	c, err := MatMul(a, b)
	if err != nil {
		t.Fatalf("MatMul: %v", err)
	}
	want := []float32{58, 64, 139, 154}
	for i, v := range want {
		if c.Data[i] != v {
			t.Errorf("c[%d] = %v, want %v", i, c.Data[i], v)
		}
	}
	if _, err := MatMul(a, a); !errors.Is(err, ErrShape) {
		t.Errorf("bad MatMul = %v", err)
	}
	// MatMulInto clears a reused output before accumulating into it.
	c.Fill(100)
	if err := MatMulInto(c, a, b); err != nil {
		t.Fatalf("MatMulInto: %v", err)
	}
	for i, v := range want {
		if c.Data[i] != v {
			t.Errorf("reused c[%d] = %v, want %v", i, c.Data[i], v)
		}
	}
	if err := MatMulInto(New(3, 3), a, b); !errors.Is(err, ErrShape) {
		t.Errorf("MatMulInto into a wrong shape = %v", err)
	}
}

func TestMatMulIdentityProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	prop := func(seed uint32) bool {
		n := int(seed%5) + 2
		a := Randn(rng, 1, n, n)
		eye := New(n, n)
		for i := 0; i < n; i++ {
			eye.Set(1, i, i)
		}
		out, err := MatMul(a, eye)
		if err != nil {
			return false
		}
		for i := range a.Data {
			if math.Abs(float64(out.Data[i]-a.Data[i])) > 1e-5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	a := Randn(rng, 1, 3, 5)
	at, err := Transpose(a)
	if err != nil {
		t.Fatalf("Transpose: %v", err)
	}
	att, err := Transpose(at)
	if err != nil {
		t.Fatalf("Transpose: %v", err)
	}
	for i := range a.Data {
		if a.Data[i] != att.Data[i] {
			t.Fatal("double transpose != identity")
		}
	}
	if at.Dim(0) != 5 || at.Dim(1) != 3 {
		t.Errorf("transpose shape = %v", at.Shape)
	}
}

func TestSoftmaxRows(t *testing.T) {
	a, _ := FromSlice([]float32{1, 2, 3, 1000, 1000, 1000}, 2, 3)
	s, err := SoftmaxRows(a)
	if err != nil {
		t.Fatalf("SoftmaxRows: %v", err)
	}
	for i := 0; i < 2; i++ {
		var sum float64
		for j := 0; j < 3; j++ {
			v := float64(s.At(i, j))
			if v < 0 || v > 1 || math.IsNaN(v) {
				t.Fatalf("softmax[%d,%d] = %v", i, j, v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-5 {
			t.Errorf("row %d sums to %v", i, sum)
		}
	}
	if s.At(0, 2) <= s.At(0, 0) {
		t.Error("softmax not monotonic")
	}
}

func TestArgMaxRows(t *testing.T) {
	a, _ := FromSlice([]float32{1, 5, 2, 9, 0, 3}, 2, 3)
	idx, err := ArgMaxRows(a)
	if err != nil {
		t.Fatalf("ArgMaxRows: %v", err)
	}
	if idx[0] != 1 || idx[1] != 0 {
		t.Errorf("argmax = %v", idx)
	}
}

func TestElementwiseOps(t *testing.T) {
	a, _ := FromSlice([]float32{1, 2}, 2)
	b, _ := FromSlice([]float32{3, 4}, 2)
	sum, err := Add(a, b)
	if err != nil || sum.Data[0] != 4 || sum.Data[1] != 6 {
		t.Errorf("Add = %v, %v", sum, err)
	}
	prod, err := Mul(a, b)
	if err != nil || prod.Data[0] != 3 || prod.Data[1] != 8 {
		t.Errorf("Mul = %v, %v", prod, err)
	}
	c := New(3)
	if _, err := Add(a, c); !errors.Is(err, ErrShape) {
		t.Errorf("shape-mismatched Add = %v", err)
	}
	if err := a.AddInPlace(b); err != nil || a.Data[0] != 4 {
		t.Errorf("AddInPlace = %v", err)
	}
	a.ScaleInPlace(2)
	if a.Data[0] != 8 {
		t.Error("ScaleInPlace wrong")
	}
}

func TestReductions(t *testing.T) {
	a, _ := FromSlice([]float32{1, -2, 3}, 3)
	if a.Sum() != 2 {
		t.Errorf("Sum = %v", a.Sum())
	}
	if math.Abs(a.Mean()-2.0/3) > 1e-9 {
		t.Errorf("Mean = %v", a.Mean())
	}
	if a.MaxAbs() != 3 {
		t.Errorf("MaxAbs = %v", a.MaxAbs())
	}
	empty := &Tensor{}
	if empty.Mean() != 0 {
		t.Error("empty Mean should be 0")
	}
}

func TestRandnDeterminism(t *testing.T) {
	a := Randn(rand.New(rand.NewPCG(9, 9)), 1, 4, 4)
	b := Randn(rand.New(rand.NewPCG(9, 9)), 1, 4, 4)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("same seed produced different tensors")
		}
	}
}

func TestRowView(t *testing.T) {
	a, _ := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	r := a.Row(1)
	r[0] = 9
	if a.At(1, 0) != 9 {
		t.Error("Row is not a view")
	}
}

func TestSameShape(t *testing.T) {
	if !New(2, 3).SameShape(New(2, 3)) {
		t.Error("equal shapes reported different")
	}
	if New(2, 3).SameShape(New(3, 2)) || New(2).SameShape(New(2, 1)) {
		t.Error("different shapes reported same")
	}
}
