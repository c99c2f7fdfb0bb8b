package cloud

// HEService is the provider's homomorphic-evaluation endpoint for the
// hybrid HE+TEE split-inference mode. The provider holds the first
// linear layer's weights in the clear (it trained the model) and
// evaluates it over ciphertexts the device encrypted under the
// provider's public key — it operates on opaque wire blobs and never
// holds a plaintext activation, which HEAudit makes checkable: the
// audit counts every byte the service observed, and
// CleartextFeatureBytes is zero by construction of this file (there is
// no code path that decrypts — the service has no secret key).

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/he"
)

// ErrNoModel is returned when an HE evaluation arrives before the
// provider provisioned the corresponding layer.
var ErrNoModel = errors.New("cloud: no HE layer provisioned")

// HEAudit summarizes what the provider observed on the HE path. The
// leakage experiment pins these: ciphertext bytes grow with the
// expansion factor, cleartext feature bytes stay zero.
type HEAudit struct {
	// Evals counts homomorphic layer evaluations served.
	Evals int
	// CiphertextBytesIn/Out count the opaque wire bytes crossing the
	// service, in each direction.
	CiphertextBytesIn  uint64
	CiphertextBytesOut uint64
	// CleartextFeatureBytes counts plaintext activation bytes the
	// provider saw. The hybrid design keeps this zero; the field exists
	// so the claim is an assertion, not an assumption.
	CleartextFeatureBytes uint64
}

// HEService evaluates provisioned linear layers over ciphertexts.
type HEService struct {
	mu    sync.Mutex
	eval  *he.Evaluator
	text  *he.Conv1D
	image *he.Conv2D
	audit HEAudit
}

// NewHEService creates the provider endpoint around an evaluator
// (whose clock charges the HE compute into the run's virtual time).
func NewHEService(eval *he.Evaluator) *HEService {
	return &HEService{eval: eval}
}

// Params returns the evaluator's HE parameter set.
func (s *HEService) Params() he.Params { return s.eval.Params }

// ProvisionText installs the speaker classifier's first conv layer.
func (s *HEService) ProvisionText(op *he.Conv1D) {
	s.mu.Lock()
	s.text = op
	s.mu.Unlock()
}

// ProvisionImage installs the camera classifier's first conv layer.
func (s *HEService) ProvisionImage(op *he.Conv2D) {
	s.mu.Lock()
	s.image = op
	s.mu.Unlock()
}

// EvalText evaluates the provisioned text conv over one ciphertext
// blob, returning the result blob.
func (s *HEService) EvalText(wire []byte) ([]byte, error) { return s.AppendEvalText(nil, wire) }

// AppendEvalText is EvalText appending the result blob to dst; on error
// it returns dst unchanged.
func (s *HEService) AppendEvalText(dst, wire []byte) ([]byte, error) {
	s.mu.Lock()
	op := s.text
	s.mu.Unlock()
	if op == nil {
		return dst, fmt.Errorf("%w: text", ErrNoModel)
	}
	return s.evalBlob(dst, wire, func(ct *he.Ciphertext) (*he.Ciphertext, error) {
		return s.eval.Conv1D(op, ct)
	})
}

// EvalImage evaluates the provisioned image conv over one ciphertext
// blob, returning the result blob.
func (s *HEService) EvalImage(wire []byte) ([]byte, error) { return s.AppendEvalImage(nil, wire) }

// AppendEvalImage is EvalImage appending the result blob to dst; on
// error it returns dst unchanged.
func (s *HEService) AppendEvalImage(dst, wire []byte) ([]byte, error) {
	s.mu.Lock()
	op := s.image
	s.mu.Unlock()
	if op == nil {
		return dst, fmt.Errorf("%w: image", ErrNoModel)
	}
	return s.evalBlob(dst, wire, func(ct *he.Ciphertext) (*he.Ciphertext, error) {
		return s.eval.Conv2D(op, ct)
	})
}

// evalBlob decodes wire, evaluates f over it and appends the marshalled
// result to dst. The audit counts the appended bytes only.
func (s *HEService) evalBlob(dst, wire []byte, f func(*he.Ciphertext) (*he.Ciphertext, error)) ([]byte, error) {
	ct, err := s.eval.Unmarshal(wire)
	if err != nil {
		return dst, err
	}
	out, err := f(ct)
	if err != nil {
		return dst, err
	}
	res := out.AppendMarshal(dst, s.eval.Params)
	s.mu.Lock()
	s.audit.Evals++
	s.audit.CiphertextBytesIn += uint64(len(wire))
	s.audit.CiphertextBytesOut += uint64(len(res) - len(dst))
	s.mu.Unlock()
	return res, nil
}

// Audit returns the provider's accumulated HE-path view.
func (s *HEService) Audit() HEAudit {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.audit
}

// Reset clears the audit counters (between experiment runs).
func (s *HEService) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.audit = HEAudit{}
}
