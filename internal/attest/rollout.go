package attest

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sync"
)

// Pack is one published model-pack version: the provider-trained
// classifier weights a device unseals into its TA. Payloads are opaque
// here — Text carries the speaker text-classifier weights, Image the
// doorbell person-detector weights — and the pack is addressed by the
// digest of its canonical encoding, which the per-device ManifestToken
// authenticates.
type Pack struct {
	// Version is the monotonically increasing pack version.
	Version uint64
	// ModelSeed is the training seed the weights were produced with. It
	// is provenance only: a device builds its classifier from the
	// weights alone, and nothing reads the seed back.
	ModelSeed uint64
	// Text and Image are the serialized classifier weights per device
	// class (either may be empty for a single-class fleet).
	Text  []byte
	Image []byte
}

// Encode renders the canonical wire form:
// version(8) | seed(8) | lenText(4) | text | lenImage(4) | image.
func (p Pack) Encode() []byte {
	out := make([]byte, 0, 8+8+4+len(p.Text)+4+len(p.Image))
	out = binary.LittleEndian.AppendUint64(out, p.Version)
	out = binary.LittleEndian.AppendUint64(out, p.ModelSeed)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(p.Text)))
	out = append(out, p.Text...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(p.Image)))
	out = append(out, p.Image...)
	return out
}

// DecodePack parses an Encode-d pack.
func DecodePack(b []byte) (Pack, error) {
	var p Pack
	if len(b) < 8+8+4 {
		return p, fmt.Errorf("%w: %d bytes", ErrBadPack, len(b))
	}
	p.Version = binary.LittleEndian.Uint64(b[:8])
	p.ModelSeed = binary.LittleEndian.Uint64(b[8:16])
	rest := b[16:]
	take := func() ([]byte, error) {
		if len(rest) < 4 {
			return nil, fmt.Errorf("%w: truncated payload", ErrBadPack)
		}
		n := int(binary.LittleEndian.Uint32(rest))
		rest = rest[4:]
		if len(rest) < n {
			return nil, fmt.Errorf("%w: truncated payload", ErrBadPack)
		}
		out := rest[:n:n]
		rest = rest[n:]
		return out, nil
	}
	var err error
	if p.Text, err = take(); err != nil {
		return p, err
	}
	if p.Image, err = take(); err != nil {
		return p, err
	}
	if len(rest) != 0 {
		return p, fmt.Errorf("%w: %d trailing bytes", ErrBadPack, len(rest))
	}
	return p, nil
}

// Digest hashes the canonical encoding; this is the identity the
// manifest authenticates.
func (p Pack) Digest() Digest {
	return Digest(sha256.Sum256(p.Encode()))
}

// ManifestToken authorizes one pack version for one device; see
// Verifier.Manifest and Attestor.VerifyManifest.
type ManifestToken struct {
	DeviceID string
	Version  uint64
	Digest   Digest
	MAC      [32]byte
}

// Marshal serializes the token for transport through a TEE memref
// parameter: version(8) | digest(32) | idlen(2) | id | mac(32).
func (t ManifestToken) Marshal() []byte {
	out := make([]byte, 0, 8+32+2+len(t.DeviceID)+32)
	out = binary.LittleEndian.AppendUint64(out, t.Version)
	out = append(out, t.Digest[:]...)
	out = binary.LittleEndian.AppendUint16(out, uint16(len(t.DeviceID)))
	out = append(out, t.DeviceID...)
	out = append(out, t.MAC[:]...)
	return out
}

// UnmarshalManifestToken parses a Marshal-ed token.
func UnmarshalManifestToken(b []byte) (ManifestToken, error) {
	var t ManifestToken
	const fixed = 8 + 32 + 2
	if len(b) < fixed+32 {
		return t, fmt.Errorf("%w: %d bytes", ErrBadManifest, len(b))
	}
	t.Version = binary.LittleEndian.Uint64(b[:8])
	copy(t.Digest[:], b[8:40])
	idLen := int(binary.LittleEndian.Uint16(b[40:42]))
	if len(b) != fixed+idLen+32 {
		return t, fmt.Errorf("%w: length mismatch", ErrBadManifest)
	}
	t.DeviceID = string(b[fixed : fixed+idLen])
	copy(t.MAC[:], b[fixed+idLen:])
	return t, nil
}

// Rollout is the provider's staged model-distribution service. The
// fleet starts on a base pack; Publish stages a newer pack behind a
// canary quota: the first `canary` devices to ask for a target are
// granted the new version, everyone else keeps the base until every
// canary device has reported success, at which point the rollout opens
// to the full fleet (OnSettled waiters fire). Grant order is admission
// order, which makes the canary cohort the earliest-served devices.
// The caller decides who participates in staging: the fleet routes only
// classifier-exercising (secure-filter) devices through Target, so a
// canary success always means the new model actually ran.
type Rollout struct {
	mu sync.Mutex

	packs       map[uint64]Pack
	base        uint64
	latest      uint64
	canary      int
	granted     map[string]uint64 // device -> granted latest version
	succOK      map[string]bool   // canary devices that completed on latest
	full        bool
	aborted     bool
	abortReason string
	waiters     []func(full bool)
}

// NewRollout creates the service with the fleet's base (already
// provisioned at build time) pack; with nothing published it hands the
// base pack to everyone.
func NewRollout(base Pack) *Rollout {
	return &Rollout{
		packs:   map[uint64]Pack{base.Version: base},
		base:    base.Version,
		latest:  base.Version,
		full:    true,
		granted: make(map[string]uint64),
		succOK:  make(map[string]bool),
	}
}

// Publish stages pack p behind a canary quota (floored at 1). A quota
// of 0 or less opens the rollout to the full fleet immediately.
func (r *Rollout) Publish(p Pack, canary int) error {
	r.mu.Lock()
	if p.Version <= r.latest {
		r.mu.Unlock()
		return fmt.Errorf("%w: version %d not newer than %d", ErrBadPack, p.Version, r.latest)
	}
	r.packs[p.Version] = p
	r.latest = p.Version
	r.canary = canary
	r.full = canary <= 0
	r.granted = make(map[string]uint64)
	r.succOK = make(map[string]bool)
	r.settle()
	return nil
}

// LatestVersion returns the newest published version.
func (r *Rollout) LatestVersion() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.latest
}

// Target returns the pack the device should be running right now: the
// latest pack once the rollout is full (so a device joining mid-rollout
// gets the newest version), the latest pack if the device holds (or is
// granted) a canary slot, the base pack otherwise.
func (r *Rollout) Target(deviceID string) Pack {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.full {
		return r.packs[r.latest]
	}
	if _, ok := r.granted[deviceID]; ok {
		return r.packs[r.latest]
	}
	if len(r.granted) < r.canary {
		r.granted[deviceID] = r.latest
		return r.packs[r.latest]
	}
	return r.packs[r.base]
}

// ReportSuccess records that the device completed its workload on the
// version it was granted. When every canary slot has reported, the
// rollout opens to the full fleet.
func (r *Rollout) ReportSuccess(deviceID string) {
	r.mu.Lock()
	if _, ok := r.granted[deviceID]; ok && !r.full {
		r.succOK[deviceID] = true
		r.full = len(r.succOK) >= r.canary
	}
	r.settle()
}

// Full reports whether the rollout is open to the whole fleet.
func (r *Rollout) Full() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.full
}

// OnSettled registers a one-shot notification for the canary verdict:
// fn runs once, with true when the rollout opens to the full fleet or
// false when it is aborted first. If the rollout has already settled,
// fn runs at once on the caller's goroutine. The fleet parks devices
// that finished their workload on the base pack on it before they
// converge, and holds later admissions on it; fn always runs off the
// rollout lock, so it may call back into the rollout.
func (r *Rollout) OnSettled(fn func(full bool)) {
	r.mu.Lock()
	if !r.full && !r.aborted {
		r.waiters = append(r.waiters, fn)
		r.mu.Unlock()
		return
	}
	full := r.full
	r.mu.Unlock()
	fn(full)
}

// settle fires the registered waiters if the rollout has settled, and
// releases r.mu, which the caller holds.
func (r *Rollout) settle() {
	var waiters []func(bool)
	if r.full || r.aborted {
		waiters, r.waiters = r.waiters, nil
	}
	full := r.full
	r.mu.Unlock()
	for _, fn := range waiters {
		fn(full)
	}
}

// Abort settles the rollout without opening it (a canary device failed,
// or the run is shutting down). The reason is recorded so every device
// held on the base pack can be attributed to it — an aborted rollout
// must leave a structured trail, not a silently stale fleet. The first
// reason wins; Abort after the rollout opened notifies nobody (every
// waiter already heard true) but still records the reason.
func (r *Rollout) Abort(reason string) {
	r.mu.Lock()
	if reason == "" {
		reason = "aborted"
	}
	if !r.aborted {
		r.aborted = true
		r.abortReason = reason
	}
	r.settle()
}

// Aborted reports whether the rollout was aborted, and why.
func (r *Rollout) Aborted() (bool, string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.aborted, r.abortReason
}
