package cloud

import (
	"bytes"
	"testing"

	"repro/internal/he"
	"repro/internal/tz"
)

// TestAppendEvalAuditsAppendedBytes: AppendEvalText and AppendEvalImage
// onto a non-empty dst keep it, append exactly EvalText's and
// EvalImage's result, and audit the same bytes in and out.
func TestAppendEvalAuditsAppendedBytes(t *testing.T) {
	p := he.DefaultParams()
	kp, err := he.KeyGen(p, 7)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := he.NewEvaluator(p, nil, tz.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	newService := func() *HEService {
		s := NewHEService(ev)
		s.ProvisionText(&he.Conv1D{K: 2, Cin: 2, Cout: 3, W: ramp(2 * 2 * 3), B: ramp(3)})
		s.ProvisionImage(&he.Conv2D{K: 2, Cin: 1, Cout: 2, W: ramp(2 * 2 * 2), B: ramp(2)})
		return s
	}
	wire := func(shape ...int) []byte {
		n := 1
		for _, d := range shape {
			n *= d
		}
		ct, err := ev.Encrypt(kp.Public, ramp(n), shape)
		if err != nil {
			t.Fatal(err)
		}
		return ct.Marshal(p)
	}
	for _, tc := range []struct {
		name       string
		wire       []byte
		eval       func(s *HEService, wire []byte) ([]byte, error)
		appendEval func(s *HEService, dst, wire []byte) ([]byte, error)
	}{
		{"text", wire(4, 2), (*HEService).EvalText, (*HEService).AppendEvalText},
		{"image", wire(3, 3, 1), (*HEService).EvalImage, (*HEService).AppendEvalImage},
	} {
		plain, appended := newService(), newService()
		want, err := tc.eval(plain, tc.wire)
		if err != nil {
			t.Fatal(err)
		}
		prefix := []byte{1, 2, 3, 4}
		got, err := tc.appendEval(appended, append([]byte(nil), prefix...), tc.wire)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) {
			t.Errorf("%s: appended result differs from the standalone one", tc.name)
		}
		if a, b := appended.Audit(), plain.Audit(); a != b || a.CiphertextBytesOut != uint64(len(want)) {
			t.Errorf("%s: audit with a non-empty dst %+v, want %+v (out %d)", tc.name, a, b, len(want))
		}
	}
}

func ramp(n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = float32(i%7)*0.25 - 0.5
	}
	return out
}
