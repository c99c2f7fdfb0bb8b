package he

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/ml/layers"
	"repro/internal/ml/tensor"
	"repro/internal/tz"
)

func testEvaluator(t *testing.T, p Params) *Evaluator {
	t.Helper()
	ev, err := NewEvaluator(p, nil, tz.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

func randomVec(rng *rand.Rand, n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = float32(rng.NormFloat64())
	}
	return out
}

// TestNoiseBudgetOverDepth is the noise-budget property test: across a
// sweep of parameter sets, evaluating up to MaxDepth linear layers
// succeeds, and the first operation past the supported depth — or past
// the noise budget, whichever binds first — always fails with the
// typed ErrNoiseBudget, never a silently wrong result.
func TestNoiseBudgetOverDepth(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	for _, maxDepth := range []int{1, 2, 3, 5} {
		for _, fresh := range []int{200, 60, 24} {
			p := DefaultParams()
			p.MaxDepth = maxDepth
			p.FreshNoise = fresh
			ev := testEvaluator(t, p)
			kp, err := KeyGen(p, 42)
			if err != nil {
				t.Fatal(err)
			}
			op := &Dense{In: 8, Out: 8, W: randomVec(rng, 64), B: randomVec(rng, 8)}
			ct, err := ev.Encrypt(kp.Public, randomVec(rng, 8), []int{8})
			if err != nil {
				t.Fatal(err)
			}
			perOp := p.MulNoise + p.RescaleNoise + p.AddNoise
			// The budget supports floor((fresh-1)/perOp) multiplies; the
			// depth cap binds at maxDepth. Whichever is smaller, every op
			// up to it succeeds and the next one fails typed.
			byNoise := (fresh - 1) / perOp
			supported := maxDepth
			if byNoise < supported {
				supported = byNoise
			}
			for d := 0; d < supported; d++ {
				next, err := ev.Dense(op, ct)
				if err != nil {
					t.Fatalf("depth=%d fresh=%d: op %d failed early: %v", maxDepth, fresh, d+1, err)
				}
				if next.Level() != d+1 || next.NoiseBudget() >= ct.NoiseBudget() {
					t.Fatalf("op %d: level %d noise %d (from %d)", d+1, next.Level(), next.NoiseBudget(), ct.NoiseBudget())
				}
				ct = next
			}
			if _, err := ev.Dense(op, ct); !errors.Is(err, ErrNoiseBudget) {
				t.Fatalf("depth=%d fresh=%d: over-depth op returned %v, want ErrNoiseBudget", maxDepth, fresh, err)
			}
		}
	}
}

// TestConvParityWithLayers: the encrypted conv layers are bit-identical
// to internal/ml/layers' cleartext forward passes.
func TestConvParityWithLayers(t *testing.T) {
	p := DefaultParams()
	ev := testEvaluator(t, p)
	kp, err := KeyGen(p, 99)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(3, 5))

	t.Run("conv1d", func(t *testing.T) {
		const L, Cin, Cout, K = 12, 16, 32, 3
		ref := layers.NewConv1D(rand.New(rand.NewPCG(1, 2)), K, Cin, Cout)
		w, b := ref.Params()[0].Value, ref.Params()[1].Value
		x := tensor.New(1, L, Cin)
		copy(x.Data, randomVec(rng, L*Cin))
		want, err := ref.Forward(x)
		if err != nil {
			t.Fatal(err)
		}
		ct, err := ev.Encrypt(kp.Public, x.Data, []int{L, Cin})
		if err != nil {
			t.Fatal(err)
		}
		out, err := ev.Conv1D(&Conv1D{K: K, Cin: Cin, Cout: Cout, W: w.Data, B: b.Data}, ct)
		if err != nil {
			t.Fatal(err)
		}
		got, shape, err := ev.Decrypt(kp.Secret, out)
		if err != nil {
			t.Fatal(err)
		}
		if shape[0] != L-K+1 || shape[1] != Cout {
			t.Fatalf("shape %v", shape)
		}
		for i := range got {
			if got[i] != want.Data[i] {
				t.Fatalf("slot %d: %v != %v", i, got[i], want.Data[i])
			}
		}
	})

	t.Run("conv2d", func(t *testing.T) {
		const H, W, Cin, Cout, K = 10, 10, 1, 4, 3
		ref := layers.NewConv2D(rand.New(rand.NewPCG(4, 6)), K, Cin, Cout)
		w, b := ref.Params()[0].Value, ref.Params()[1].Value
		x := tensor.New(1, H, W, Cin)
		copy(x.Data, randomVec(rng, H*W*Cin))
		want, err := ref.Forward(x)
		if err != nil {
			t.Fatal(err)
		}
		ct, err := ev.Encrypt(kp.Public, x.Data, []int{H, W, Cin})
		if err != nil {
			t.Fatal(err)
		}
		out, err := ev.Conv2D(&Conv2D{K: K, Cin: Cin, Cout: Cout, W: w.Data, B: b.Data}, ct)
		if err != nil {
			t.Fatal(err)
		}
		got, shape, err := ev.Decrypt(kp.Secret, out)
		if err != nil {
			t.Fatal(err)
		}
		if shape[0] != H-K+1 || shape[1] != W-K+1 || shape[2] != Cout {
			t.Fatalf("shape %v", shape)
		}
		for i := range got {
			if got[i] != want.Data[i] {
				t.Fatalf("slot %d: %v != %v", i, got[i], want.Data[i])
			}
		}
	})
}

// TestMarshalRoundTripAndExpansion: the wire form round-trips exactly,
// is Expansion× the plaintext size plus a fixed header, and never
// contains the raw feature bytes it encrypts.
func TestMarshalRoundTripAndExpansion(t *testing.T) {
	p := DefaultParams()
	ev := testEvaluator(t, p)
	kp, err := KeyGen(p, 1234)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(9, 13))
	data := randomVec(rng, 24)
	ct, err := ev.Encrypt(kp.Public, data, []int{6, 4})
	if err != nil {
		t.Fatal(err)
	}
	wire := ct.Marshal(p)
	if len(wire) != ct.Size(p) {
		t.Fatalf("wire %d bytes, Size says %d", len(wire), ct.Size(p))
	}
	if payload := len(data) * 4 * p.Expansion; len(wire) < payload {
		t.Fatalf("wire %d bytes < expansion payload %d", len(wire), payload)
	}
	// The raw little-endian feature bytes must not appear in the wire.
	raw := make([]byte, 4*len(data))
	for i, v := range data {
		binary.LittleEndian.PutUint32(raw[4*i:], math.Float32bits(v))
	}
	if bytes.Contains(wire, raw[:8]) {
		t.Fatal("wire bytes contain raw feature bytes")
	}
	back, err := ev.Unmarshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	got, shape, err := ev.Decrypt(kp.Secret, back)
	if err != nil {
		t.Fatal(err)
	}
	if shape[0] != 6 || shape[1] != 4 {
		t.Fatalf("shape %v", shape)
	}
	for i := range got {
		if got[i] != data[i] {
			t.Fatalf("slot %d: %v != %v", i, got[i], data[i])
		}
	}
	if _, err := ev.Unmarshal(wire[:len(wire)-3]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated wire returned %v, want ErrCorrupt", err)
	}
}

// TestKeyMismatchAndSecretKeySeal: decrypting under the wrong key is a
// typed error, and the secret key survives the seal round trip.
func TestKeyMismatchAndSecretKeySeal(t *testing.T) {
	p := DefaultParams()
	ev := testEvaluator(t, p)
	kpA, _ := KeyGen(p, 1)
	kpB, _ := KeyGen(p, 2)
	ct, err := ev.Encrypt(kpA.Public, []float32{1, 2, 3}, []int{3})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ev.Decrypt(kpB.Secret, ct); !errors.Is(err, ErrKeyMismatch) {
		t.Fatalf("wrong-key decrypt returned %v, want ErrKeyMismatch", err)
	}
	sk, err := ParseSecretKey(kpA.Secret.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if sk != kpA.Secret {
		t.Fatalf("sealed round trip %+v != %+v", sk, kpA.Secret)
	}
	if _, err := ParseSecretKey([]byte("junk")); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("junk blob returned %v, want ErrCorrupt", err)
	}
}

// TestCostCharging: evaluator operations advance the device clock by
// the per-slot model, and a nil clock runs uncharged.
func TestCostCharging(t *testing.T) {
	p := DefaultParams()
	clk := tz.NewClock()
	cost := tz.DefaultCostModel()
	ev, err := NewEvaluator(p, clk, cost)
	if err != nil {
		t.Fatal(err)
	}
	kp, _ := KeyGen(p, 5)
	ct, err := ev.Encrypt(kp.Public, []float32{1, 2, 3, 4}, []int{4})
	if err != nil {
		t.Fatal(err)
	}
	if want := 4 * cost.HEEncryptPerSlot; clk.Now() != want {
		t.Fatalf("encrypt charged %d, want %d", clk.Now(), want)
	}
	before := clk.Now()
	op := &Dense{In: 4, Out: 2, W: make([]float32, 8), B: make([]float32, 2)}
	if _, err := ev.Dense(op, ct); err != nil {
		t.Fatal(err)
	}
	macs := tz.Cycles(2 * 4)
	want := before + macs*cost.HEMulPerSlot + macs*cost.HEAddPerSlot + 2*cost.HERescalePerSlot
	if clk.Now() != want {
		t.Fatalf("dense charged to %d, want %d", clk.Now(), want)
	}
	if _, _, err := ev.Decrypt(kp.Secret, ct); err != nil {
		t.Fatal(err)
	}
	if want := want + 4*cost.HEDecryptPerSlot; clk.Now() != want {
		t.Fatalf("decrypt charged to %d, want %d", clk.Now(), want)
	}
}

// TestMarshalGolden pins the wire bytes of Marshal for fixed ciphertexts,
// including an odd expansion factor whose mask block ends mid-word.
func TestMarshalGolden(t *testing.T) {
	for _, tc := range []struct {
		expansion int
		want      string
	}{
		{32, "dd78405f0f64249f7fb4459a367f9ddf940a2c77d079985a9ca8611ef6762b66"},
		{3, "b2cfee800b5f3925c6495d625916cbd5b380eca79e005006d3fbd37f76f24a4c"},
	} {
		p := DefaultParams()
		p.Expansion = tc.expansion
		kp, err := KeyGen(p, 4242)
		if err != nil {
			t.Fatal(err)
		}
		ev := testEvaluator(t, p)
		data := make([]float32, 12)
		for i := range data {
			data[i] = float32(i)*0.37 - 1
		}
		ct, err := ev.Encrypt(kp.Public, data, []int{4, 3})
		if err != nil {
			t.Fatal(err)
		}
		wire := ct.Marshal(p)
		if got := fmt.Sprintf("%x", sha256.Sum256(wire)); got != tc.want {
			t.Errorf("expansion %d: Marshal sha256 = %s, want %s", tc.expansion, got, tc.want)
		}
		back, err := ev.Unmarshal(wire)
		if err != nil {
			t.Fatalf("expansion %d: Unmarshal: %v", tc.expansion, err)
		}
		got, _, err := ev.Decrypt(kp.Secret, back)
		if err != nil {
			t.Fatal(err)
		}
		for i := range data {
			if got[i] != data[i] {
				t.Fatalf("expansion %d: slot %d = %v, want %v", tc.expansion, i, got[i], data[i])
			}
		}
	}
}

// TestAppendMarshalKeepsPrefix: AppendMarshal onto a non-empty prefix,
// with and without spare capacity, keeps the prefix and appends exactly
// the bytes TestMarshalGolden pins.
func TestAppendMarshalKeepsPrefix(t *testing.T) {
	for _, tc := range []struct {
		expansion int
		want      string
	}{
		{32, "dd78405f0f64249f7fb4459a367f9ddf940a2c77d079985a9ca8611ef6762b66"},
		{3, "b2cfee800b5f3925c6495d625916cbd5b380eca79e005006d3fbd37f76f24a4c"},
	} {
		p := DefaultParams()
		p.Expansion = tc.expansion
		kp, err := KeyGen(p, 4242)
		if err != nil {
			t.Fatal(err)
		}
		data := make([]float32, 12)
		for i := range data {
			data[i] = float32(i)*0.37 - 1
		}
		ct, err := testEvaluator(t, p).Encrypt(kp.Public, data, []int{4, 3})
		if err != nil {
			t.Fatal(err)
		}
		prefix := []byte("prefix")
		// A dirty buffer with room to spare must not leak its old bytes.
		roomy := bytes.Repeat([]byte{0xff}, len(prefix)+ct.Size(p)+64)
		copy(roomy, prefix)
		for _, dst := range [][]byte{append([]byte(nil), prefix...), roomy[:len(prefix)]} {
			out := ct.AppendMarshal(dst, p)
			if !bytes.Equal(out[:len(prefix)], prefix) {
				t.Fatalf("expansion %d: prefix overwritten: %q", tc.expansion, out[:len(prefix)])
			}
			if len(out)-len(prefix) != ct.Size(p) {
				t.Fatalf("expansion %d: appended %d bytes, want Size %d", tc.expansion, len(out)-len(prefix), ct.Size(p))
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(out[len(prefix):])); got != tc.want {
				t.Errorf("expansion %d (cap %d): appended sha256 = %s, want %s", tc.expansion, cap(dst), got, tc.want)
			}
		}
	}
}
