// Package he is a deterministic simulation of leveled homomorphic
// encryption, the cryptographic half of the hybrid HE+TEE split-
// inference mode. It models the three properties the system design
// actually depends on — ciphertext expansion, per-operation cost, and
// a finite noise budget — without implementing lattice cryptography:
//
//   - Ciphertexts are opaque objects Expansion× larger than their
//     plaintexts; their wire encoding carries key-stream-masked slot
//     blocks, so raw feature bytes never appear in provider-visible
//     traffic and byte counters measure honest ciphertext sizes.
//   - Every operation charges calibrated per-slot virtual cycles to
//     the device clock (tz.CostModel's HE*PerSlot fields), so hybrid
//     mode pays the real relative cost of encrypted linear algebra.
//   - Each ciphertext tracks a multiplicative level and a noise
//     budget. A multiply+rescale consumes one level and a fixed noise
//     slice; exceeding Params.MaxDepth or exhausting the budget is a
//     hard typed error (ErrNoiseBudget) — never a silently wrong
//     result, exactly like a real leveled scheme past its parameters.
//
// The evaluator supports the linear operations (conv, matmul, bias
// add) needed for the first layer(s) of the speaker and camera
// classifiers; the non-linear tail (ReLU, pooling, argmax) runs
// inside the TA after the HE→TEE handoff decrypts under the sealed
// secret key. Arithmetic mirrors internal/ml/layers' accumulation
// order exactly, so an encrypted layer is bit-identical to its
// cleartext counterpart.
package he

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/tz"
)

// Typed errors. Callers gate on these with errors.Is.
var (
	// ErrNoiseBudget is returned when an operation would exceed the
	// parameter set's multiplicative depth or exhaust the ciphertext's
	// noise budget. A leveled scheme past its parameters decrypts to
	// garbage; the simulation refuses instead.
	ErrNoiseBudget = errors.New("he: noise budget exhausted")
	// ErrKeyMismatch is returned when a ciphertext was produced under a
	// different key than the operation supplies.
	ErrKeyMismatch = errors.New("he: key mismatch")
	// ErrShape is returned when a ciphertext's shape does not fit the
	// requested operation.
	ErrShape = errors.New("he: shape mismatch")
	// ErrCorrupt is returned for undecodable ciphertext bytes.
	ErrCorrupt = errors.New("he: corrupt ciphertext")
)

// Params is a leveled-HE parameter set.
type Params struct {
	// MaxDepth is the multiplicative depth the parameters support; an
	// operation that would take a ciphertext past it fails with
	// ErrNoiseBudget.
	MaxDepth int
	// Expansion is the ciphertext expansion factor: bytes on the wire
	// per plaintext slot byte.
	Expansion int
	// FreshNoise is the noise budget of a fresh encryption; MulNoise,
	// RescaleNoise and AddNoise are the per-operation decrements.
	FreshNoise   int
	MulNoise     int
	RescaleNoise int
	AddNoise     int
}

// DefaultParams returns the parameter set the hybrid mode ships with:
// depth 2 (one encrypted linear layer plus headroom), 32× expansion,
// and a noise budget sized so the supported depth always succeeds and
// depth+1 always fails.
func DefaultParams() Params {
	return Params{
		MaxDepth:     2,
		Expansion:    32,
		FreshNoise:   60,
		MulNoise:     18,
		RescaleNoise: 4,
		AddNoise:     1,
	}
}

func (p Params) validate() error {
	if p.MaxDepth < 1 || p.Expansion < 2 || p.FreshNoise <= 0 ||
		p.MulNoise <= 0 || p.RescaleNoise < 0 || p.AddNoise < 0 {
		return fmt.Errorf("he: invalid params %+v", p)
	}
	return nil
}

// PublicKey encrypts; it is provisioned to devices in the clear (it is
// the provider's key).
type PublicKey struct {
	ID     uint64
	Params Params
}

// SecretKey decrypts; it travels only sealed (TA secure storage).
type SecretKey struct {
	ID     uint64
	Params Params
}

// KeyPair is one provider HE key pair.
type KeyPair struct {
	Public PublicKey
	Secret SecretKey
}

// KeyGen derives a key pair deterministically from a seed. The key ID
// binds ciphertexts to the pair.
func KeyGen(p Params, seed uint64) (KeyPair, error) {
	if err := p.validate(); err != nil {
		return KeyPair{}, err
	}
	id := splitmix64(seed ^ 0x48452d4b45590a0d) // "HE-KEY"
	if id == 0 {
		id = 1
	}
	return KeyPair{
		Public: PublicKey{ID: id, Params: p},
		Secret: SecretKey{ID: id, Params: p},
	}, nil
}

// secretKeyMagic guards sealed secret-key blobs.
const secretKeyMagic = 0x48454b31 // "HEK1"

// Marshal encodes the secret key for sealing into TA secure storage.
func (sk SecretKey) Marshal() []byte {
	buf := make([]byte, 4+8+6*4)
	binary.LittleEndian.PutUint32(buf[0:], secretKeyMagic)
	binary.LittleEndian.PutUint64(buf[4:], sk.ID)
	p := sk.Params
	for i, v := range []int{p.MaxDepth, p.Expansion, p.FreshNoise, p.MulNoise, p.RescaleNoise, p.AddNoise} {
		binary.LittleEndian.PutUint32(buf[12+4*i:], uint32(v))
	}
	return buf
}

// ParseSecretKey decodes a sealed secret-key blob.
func ParseSecretKey(b []byte) (SecretKey, error) {
	if len(b) != 4+8+6*4 || binary.LittleEndian.Uint32(b) != secretKeyMagic {
		return SecretKey{}, fmt.Errorf("%w: secret key blob", ErrCorrupt)
	}
	var vals [6]int
	for i := range vals {
		vals[i] = int(binary.LittleEndian.Uint32(b[12+4*i:]))
	}
	sk := SecretKey{
		ID: binary.LittleEndian.Uint64(b[4:]),
		Params: Params{
			MaxDepth: vals[0], Expansion: vals[1], FreshNoise: vals[2],
			MulNoise: vals[3], RescaleNoise: vals[4], AddNoise: vals[5],
		},
	}
	if err := sk.Params.validate(); err != nil {
		return SecretKey{}, fmt.Errorf("%w: secret key params", ErrCorrupt)
	}
	return sk, nil
}

// Ciphertext is one encrypted tensor. The plaintext slots are private
// to the package — provider-side code holds ciphertexts and wire bytes
// only, and the audit trail counts what it observed.
type Ciphertext struct {
	keyID uint64
	shape []int
	level int
	noise int
	data  []float32
}

// Shape returns a copy of the encrypted tensor's shape.
func (c *Ciphertext) Shape() []int { return append([]int(nil), c.shape...) }

// Level returns the multiplicative depth consumed so far.
func (c *Ciphertext) Level() int { return c.level }

// NoiseBudget returns the remaining noise budget.
func (c *Ciphertext) NoiseBudget() int { return c.noise }

// Evaluator performs HE operations, charging per-slot virtual cycles
// to Clock (a nil Clock runs uncharged — unit tests). One evaluator is
// bound to one parameter set.
type Evaluator struct {
	Params Params
	Clock  *tz.Clock
	Cost   tz.CostModel
}

// NewEvaluator returns an evaluator over p charging clk.
func NewEvaluator(p Params, clk *tz.Clock, cost tz.CostModel) (*Evaluator, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	return &Evaluator{Params: p, Clock: clk, Cost: cost}, nil
}

func (e *Evaluator) charge(slots int, per tz.Cycles) {
	if e.Clock != nil && slots > 0 {
		e.Clock.Advance(tz.Cycles(slots) * per)
	}
}

func numel(shape []int) (int, error) {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			return 0, fmt.Errorf("%w: dimension %d", ErrShape, d)
		}
		n *= d
	}
	return n, nil
}

// Encrypt packs data (with the given shape) into a fresh ciphertext
// under pk. Runs in the device's normal world; cost is per slot.
func (e *Evaluator) Encrypt(pk PublicKey, data []float32, shape []int) (*Ciphertext, error) {
	if pk.Params != e.Params {
		return nil, fmt.Errorf("%w: public key params differ from evaluator params", ErrKeyMismatch)
	}
	n, err := numel(shape)
	if err != nil {
		return nil, err
	}
	if n != len(data) {
		return nil, fmt.Errorf("%w: %d values for shape %v", ErrShape, len(data), shape)
	}
	e.charge(n, e.Cost.HEEncryptPerSlot)
	return &Ciphertext{
		keyID: pk.ID,
		shape: append([]int(nil), shape...),
		level: 0,
		noise: e.Params.FreshNoise,
		data:  append([]float32(nil), data...),
	}, nil
}

// Decrypt opens ct under sk, returning the plaintext slots and shape.
// Runs inside the TA after the HE→TEE handoff; cost is per slot.
func (e *Evaluator) Decrypt(sk SecretKey, ct *Ciphertext) ([]float32, []int, error) {
	if sk.ID != ct.keyID {
		return nil, nil, fmt.Errorf("%w: ciphertext key %#x, secret key %#x", ErrKeyMismatch, ct.keyID, sk.ID)
	}
	if ct.noise <= 0 {
		return nil, nil, fmt.Errorf("%w: decrypt with empty budget", ErrNoiseBudget)
	}
	e.charge(len(ct.data), e.Cost.HEDecryptPerSlot)
	return append([]float32(nil), ct.data...), ct.Shape(), nil
}

// spend models one linear layer's noise cost: a multiply+rescale pair
// (one level) plus a bias addition. It fails *before* computing when
// the parameters cannot support the depth — the typed-error guarantee.
func (e *Evaluator) spend(ct *Ciphertext) (level, noise int, err error) {
	if ct.level+1 > e.Params.MaxDepth {
		return 0, 0, fmt.Errorf("%w: depth %d exceeds max depth %d",
			ErrNoiseBudget, ct.level+1, e.Params.MaxDepth)
	}
	noise = ct.noise - e.Params.MulNoise - e.Params.RescaleNoise - e.Params.AddNoise
	if noise <= 0 {
		return 0, 0, fmt.Errorf("%w: %d noise left, multiply needs %d",
			ErrNoiseBudget, ct.noise, e.Params.MulNoise+e.Params.RescaleNoise+e.Params.AddNoise)
	}
	return ct.level + 1, noise, nil
}

// Conv1D is a 1-D convolution over an encrypted [L, Cin] tensor with
// cleartext weights (the provider's model half). W is laid out
// [K, Cin, Cout] and B [Cout], matching internal/ml/layers.Conv1D.
type Conv1D struct {
	K, Cin, Cout int
	W, B         []float32
}

// Conv1D evaluates op over ct homomorphically: output [L-K+1, Cout],
// one multiplicative level consumed.
func (e *Evaluator) Conv1D(op *Conv1D, ct *Ciphertext) (*Ciphertext, error) {
	if len(ct.shape) != 2 || ct.shape[1] != op.Cin || ct.shape[0] < op.K {
		return nil, fmt.Errorf("%w: conv1d(k=%d,cin=%d) over %v", ErrShape, op.K, op.Cin, ct.shape)
	}
	if len(op.W) != op.K*op.Cin*op.Cout || len(op.B) != op.Cout {
		return nil, fmt.Errorf("%w: conv1d weights %d bias %d", ErrShape, len(op.W), len(op.B))
	}
	level, noise, err := e.spend(ct)
	if err != nil {
		return nil, err
	}
	L, Cin, Cout, K := ct.shape[0], op.Cin, op.Cout, op.K
	Lout := L - K + 1
	out := make([]float32, Lout*Cout)
	xd, wd, bd := ct.data, op.W, op.B
	// Accumulation order mirrors layers.Conv1D.Forward (batch index 0)
	// so the encrypted layer is bit-identical to the cleartext one.
	for t := 0; t < Lout; t++ {
		for co := 0; co < Cout; co++ {
			acc := bd[co]
			for k := 0; k < K; k++ {
				xrow := xd[(t+k)*Cin:]
				wrow := wd[k*Cin*Cout+co:]
				for ci := 0; ci < Cin; ci++ {
					acc += xrow[ci] * wrow[ci*Cout]
				}
			}
			out[t*Cout+co] = acc
		}
	}
	e.chargeLinear(Lout*Cout, K*Cin)
	return &Ciphertext{keyID: ct.keyID, shape: []int{Lout, Cout}, level: level, noise: noise, data: out}, nil
}

// Conv2D is a 2-D convolution over an encrypted [H, W, Cin] tensor
// with cleartext weights. W is laid out [K, K, Cin, Cout] and B
// [Cout], matching internal/ml/layers.Conv2D.
type Conv2D struct {
	K, Cin, Cout int
	W, B         []float32
}

// Conv2D evaluates op over ct homomorphically: output
// [H-K+1, W-K+1, Cout], one multiplicative level consumed.
func (e *Evaluator) Conv2D(op *Conv2D, ct *Ciphertext) (*Ciphertext, error) {
	if len(ct.shape) != 3 || ct.shape[2] != op.Cin || ct.shape[0] < op.K || ct.shape[1] < op.K {
		return nil, fmt.Errorf("%w: conv2d(k=%d,cin=%d) over %v", ErrShape, op.K, op.Cin, ct.shape)
	}
	if len(op.W) != op.K*op.K*op.Cin*op.Cout || len(op.B) != op.Cout {
		return nil, fmt.Errorf("%w: conv2d weights %d bias %d", ErrShape, len(op.W), len(op.B))
	}
	level, noise, err := e.spend(ct)
	if err != nil {
		return nil, err
	}
	H, W, Cin, Cout, K := ct.shape[0], ct.shape[1], op.Cin, op.Cout, op.K
	Hout, Wout := H-K+1, W-K+1
	out := make([]float32, Hout*Wout*Cout)
	xd, wd, bd := ct.data, op.W, op.B
	// Accumulation order mirrors layers.Conv2D.Forward (batch index 0).
	for i := 0; i < Hout; i++ {
		for j := 0; j < Wout; j++ {
			for co := 0; co < Cout; co++ {
				acc := bd[co]
				for ki := 0; ki < K; ki++ {
					for kj := 0; kj < K; kj++ {
						xrow := xd[((i+ki)*W+j+kj)*Cin:]
						wrow := wd[(ki*K+kj)*Cin*Cout+co:]
						for ci := 0; ci < Cin; ci++ {
							acc += xrow[ci] * wrow[ci*Cout]
						}
					}
				}
				out[(i*Wout+j)*Cout+co] = acc
			}
		}
	}
	e.chargeLinear(Hout*Wout*Cout, K*K*Cin)
	return &Ciphertext{keyID: ct.keyID, shape: []int{Hout, Wout, Cout}, level: level, noise: noise, data: out}, nil
}

// Dense is a fully connected layer over an encrypted [In] vector with
// cleartext weights. W is laid out [In, Out] and B [Out].
type Dense struct {
	In, Out int
	W, B    []float32
}

// Dense evaluates op over ct homomorphically: output [Out], one
// multiplicative level consumed.
func (e *Evaluator) Dense(op *Dense, ct *Ciphertext) (*Ciphertext, error) {
	n, err := numel(ct.shape)
	if err != nil || n != op.In {
		return nil, fmt.Errorf("%w: dense(in=%d) over %v", ErrShape, op.In, ct.shape)
	}
	if len(op.W) != op.In*op.Out || len(op.B) != op.Out {
		return nil, fmt.Errorf("%w: dense weights %d bias %d", ErrShape, len(op.W), len(op.B))
	}
	level, noise, err := e.spend(ct)
	if err != nil {
		return nil, err
	}
	out := make([]float32, op.Out)
	for o := 0; o < op.Out; o++ {
		acc := op.B[o]
		for i := 0; i < op.In; i++ {
			acc += ct.data[i] * op.W[i*op.Out+o]
		}
		out[o] = acc
	}
	e.chargeLinear(op.Out, op.In)
	return &Ciphertext{keyID: ct.keyID, shape: []int{op.Out}, level: level, noise: noise, data: out}, nil
}

// chargeLinear charges one linear layer: macs multiplies+adds per
// output slot, then one rescale per output slot.
func (e *Evaluator) chargeLinear(outSlots, macsPerSlot int) {
	e.charge(outSlots*macsPerSlot, e.Cost.HEMulPerSlot)
	e.charge(outSlots*macsPerSlot, e.Cost.HEAddPerSlot)
	e.charge(outSlots, e.Cost.HERescalePerSlot)
}

// ciphertextMagic guards wire blobs.
const ciphertextMagic = 0x48454331 // "HEC1"

// Size returns the marshaled wire size in bytes: header plus
// Expansion bytes per plaintext slot byte — the honest ciphertext
// byte count provider-side audits record.
func (c *Ciphertext) Size(p Params) int {
	return 4 + 8 + 4 + 4 + 4 + 4*len(c.shape) + 4 + len(c.data)*4*p.Expansion
}

// Marshal encodes the ciphertext for the wire. Slot blocks are masked
// with a key-stream derived from the key ID, then padded to the
// expansion factor with deterministic filler: the encoding is
// reproducible, Expansion× the plaintext size, and never contains the
// raw feature bytes.
func (c *Ciphertext) Marshal(p Params) []byte { return c.AppendMarshal(nil, p) }

// AppendMarshal appends the bytes Marshal encodes to dst, growing it at
// most once, and returns the extended slice.
func (c *Ciphertext) AppendMarshal(dst []byte, p Params) []byte {
	size := c.Size(p)
	buf := slices.Grow(dst, size)
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[:4], ciphertextMagic)
	buf = append(buf, hdr[:4]...)
	binary.LittleEndian.PutUint64(hdr[:], c.keyID)
	buf = append(buf, hdr[:]...)
	binary.LittleEndian.PutUint32(hdr[:4], uint32(c.level))
	buf = append(buf, hdr[:4]...)
	binary.LittleEndian.PutUint32(hdr[:4], uint32(c.noise))
	buf = append(buf, hdr[:4]...)
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(c.shape)))
	buf = append(buf, hdr[:4]...)
	for _, d := range c.shape {
		binary.LittleEndian.PutUint32(hdr[:4], uint32(d))
		buf = append(buf, hdr[:4]...)
	}
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(c.data)))
	buf = append(buf, hdr[:4]...)
	off := len(buf)
	buf = buf[:len(dst)+size]
	for i, v := range c.data {
		block := buf[off : off+4*p.Expansion]
		keystreamInto(block, c.keyID, uint64(i))
		binary.LittleEndian.PutUint32(block, math.Float32bits(v)^binary.LittleEndian.Uint32(block))
		off += len(block)
	}
	return buf
}

// Unmarshal decodes wire bytes produced by Marshal under the
// evaluator's parameter set.
func (e *Evaluator) Unmarshal(b []byte) (*Ciphertext, error) {
	if len(b) < 4+8+4+4+4 || binary.LittleEndian.Uint32(b) != ciphertextMagic {
		return nil, fmt.Errorf("%w: bad header", ErrCorrupt)
	}
	off := 4
	keyID := binary.LittleEndian.Uint64(b[off:])
	off += 8
	level := int(binary.LittleEndian.Uint32(b[off:]))
	off += 4
	noise := int(binary.LittleEndian.Uint32(b[off:]))
	off += 4
	ndims := int(binary.LittleEndian.Uint32(b[off:]))
	off += 4
	if ndims < 1 || ndims > 8 || len(b) < off+4*ndims+4 {
		return nil, fmt.Errorf("%w: %d dims", ErrCorrupt, ndims)
	}
	shape := make([]int, ndims)
	for i := range shape {
		shape[i] = int(binary.LittleEndian.Uint32(b[off:]))
		off += 4
	}
	n, err := numel(shape)
	if err != nil {
		return nil, fmt.Errorf("%w: shape %v", ErrCorrupt, shape)
	}
	slots := int(binary.LittleEndian.Uint32(b[off:]))
	off += 4
	if slots != n || len(b) != off+slots*4*e.Params.Expansion {
		return nil, fmt.Errorf("%w: %d slots, %d bytes", ErrCorrupt, slots, len(b))
	}
	data := make([]float32, slots)
	for i := range data {
		bits := binary.LittleEndian.Uint32(b[off:]) ^ firstMaskWord(keyID, uint64(i))
		data[i] = math.Float32frombits(bits)
		off += 4 * e.Params.Expansion
	}
	return &Ciphertext{keyID: keyID, shape: shape, level: level, noise: noise, data: data}, nil
}

// keystreamInto fills one slot's mask block (Expansion×4 bytes) from the
// key ID and slot index via splitmix64, eight little-endian bytes per
// step; a block that ends mid-word takes that word's leading bytes.
func keystreamInto(block []byte, keyID, slot uint64) {
	x := keystreamSeed(keyID, slot)
	for i := 0; i < len(block); i += 8 {
		x = splitmix64(x)
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], x)
		copy(block[i:], w[:])
	}
}

// firstMaskWord is the first 32-bit word of a slot's mask block, the
// only one that covers plaintext bits (Expansion ≥ 2, so the block's
// first eight bytes always come from one splitmix64 step).
func firstMaskWord(keyID, slot uint64) uint32 {
	return uint32(splitmix64(keystreamSeed(keyID, slot)))
}

func keystreamSeed(keyID, slot uint64) uint64 {
	return splitmix64(keyID ^ (slot+1)*0x9e3779b97f4a7c15)
}

// splitmix64 is the standard 64-bit mixer (public-domain constants).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
