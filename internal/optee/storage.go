// Secure storage: the TEE-side persistent object store (GlobalPlatform
// Trusted Storage in real OP-TEE). Objects are sealed with AES-256-GCM
// under a key derived from the device's hardware unique key, giving two
// properties the rest of the system leans on: confidentiality (a
// normal-world attacker who steals the backing bytes learns nothing —
// SealedBytes is the test hook for exactly that view) and tamper
// evidence (any bit flip fails authentication on Get — Tamper is the
// matching hook).
//
// TAs use it for the assets that must survive reboots without ever
// existing in normal-world plaintext: the pre-trained classifier
// weights unsealed on first use, and — since the rollout subsystem —
// every provisioned model pack, stored both as a versioned history
// object ("voice-ta/model-pack-vN") and as the current-weights object
// the next unseal picks up. The sealing key never leaves the
// type; callers only see plaintext on the secure-world side of Get.
// (The package-level doc lives in optee.go; this header documents the
// storage subsystem.)

package optee

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"
)

// Secure storage errors.
var (
	// ErrObjectNotFound is returned for missing storage objects.
	ErrObjectNotFound = errors.New("optee: storage object not found")
	// ErrCorruptObject is returned when authentication fails on load.
	ErrCorruptObject = errors.New("optee: storage object corrupt")
)

// Storage is the TEE secure object store: objects are sealed with a
// device-unique key (AES-256-GCM) so that even if the backing bytes leak
// to the normal world, they are confidential and tamper-evident. TAs use
// it for persistent assets — here, the pre-trained classifier weights.
type Storage struct {
	aead cipher.AEAD

	mu      sync.Mutex
	objects map[string][]byte // sealed blobs
	nonce   uint64
}

// NewStorage derives the sealing key from the device-unique secret
// (the hardware unique key real OP-TEE reads from fuses).
func NewStorage(deviceSecret []byte) (*Storage, error) {
	key := sha256.Sum256(append([]byte("optee-storage-v1:"), deviceSecret...))
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, fmt.Errorf("storage cipher: %w", err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("storage gcm: %w", err)
	}
	return &Storage{aead: aead, objects: make(map[string][]byte)}, nil
}

// Put seals and stores an object under id. The stored blob is the
// nonce (a little-endian counter in its first 8 bytes) followed by the
// ciphertext, sealed straight into the blob after its nonce prefix.
func (s *Storage) Put(id string, data []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ns := s.aead.NonceSize()
	blob := make([]byte, ns, ns+len(data)+s.aead.Overhead())
	s.nonce++
	putUint64(blob, s.nonce)
	s.objects[id] = s.aead.Seal(blob, blob[:ns], data, []byte(id))
}

// Get unseals the object stored under id.
func (s *Storage) Get(id string) ([]byte, error) {
	s.mu.Lock()
	blob, ok := s.objects[id]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrObjectNotFound, id)
	}
	ns := s.aead.NonceSize()
	if len(blob) < ns {
		return nil, fmt.Errorf("%w: %q truncated", ErrCorruptObject, id)
	}
	data, err := s.aead.Open(nil, blob[:ns], blob[ns:], []byte(id))
	if err != nil {
		return nil, fmt.Errorf("%w: %q: %v", ErrCorruptObject, id, err)
	}
	return data, nil
}

// Delete removes an object; deleting a missing object is not an error.
func (s *Storage) Delete(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.objects, id)
}

// List returns the stored object ids (unordered).
func (s *Storage) List() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.objects))
	for id := range s.objects {
		out = append(out, id)
	}
	return out
}

// SealedBytes returns the raw sealed blob (what a normal-world attacker
// stealing the backing store would see). Used by tests to verify
// confidentiality.
func (s *Storage) SealedBytes(id string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	blob, ok := s.objects[id]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), blob...), true
}

// Tamper flips a byte inside the sealed blob (test hook for the
// tamper-evidence property).
func (s *Storage) Tamper(id string, offset int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	blob, ok := s.objects[id]
	if !ok || offset >= len(blob) {
		return false
	}
	blob[offset] ^= 0xff
	return true
}

func putUint64(b []byte, v uint64) {
	for i := 0; i < 8 && i < len(b); i++ {
		b[i] = byte(v >> (8 * uint(i)))
	}
}
