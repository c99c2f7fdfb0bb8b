package core

// Deterministic randomness for the whole simulation. Every random stream
// in core is a PCG derived from an explicit (seed, stream) pair — there is
// no package-level randomness anywhere in the pipeline — so a fleet of
// thousands of devices can be reproduced bit-for-bit from one root seed,
// down to the relay keys and every sealed byte (relay.NewIdentity reads a
// fixed 32 bytes of its seeded stream; TestSealedTrafficGolden pins it).
//
// Streams are labelled with salts so independent consumers (identity
// generation, classifier init, per-device seeds, workload synthesis)
// never share a PCG state even when they share the root seed.

import (
	"io"
	"math/rand/v2"
)

// Stream salts used by core and the fleet layer. Values are arbitrary but
// fixed: changing them changes every derived stream.
const (
	// SaltClassifier seeds text-classifier weight init (must match between
	// offline training and in-TA unsealing).
	SaltClassifier uint64 = 0x7a57
	// SaltImage seeds image-classifier weight init.
	SaltImage uint64 = 0xca3e
	// SaltDeviceSeed derives per-device seeds from a fleet root seed.
	SaltDeviceSeed uint64 = 0xf1ee7
	// SaltWorkload derives per-device workload seeds.
	SaltWorkload uint64 = 0x40ad
	// SaltAttestKey derives per-device attestation-key seeds (the
	// simulated hardware unique key both the device TEE and the
	// provisioning authority expand into the shared attestation key).
	SaltAttestKey uint64 = 0xa77e57
	// SaltModelRollout derives the training seed of a published model-pack
	// version from the fleet root seed and the pack version.
	SaltModelRollout uint64 = 0x70115
	// SaltChurn derives the fleet churn arrival stream (joiner arrival
	// placement, leaver selection) from the fleet root seed.
	SaltChurn uint64 = 0xc40a9
	// SaltLifecycle derives the attestation-lifecycle selection stream
	// (which devices rotate keys or are revoked mid-run).
	SaltLifecycle uint64 = 0x11f3c
	// SaltTrace derives per-device telemetry sampling seeds (internal/obs
	// decides from this seed alone whether a device's frames are traced).
	SaltTrace uint64 = 0x7ace
	// SaltFault derives the fault-plan streams (which devices a chaos plan
	// touches, their per-frame injection decisions, retry jitter) so a
	// fault run replays bit-for-bit from the root seed.
	SaltFault uint64 = 0xfa17
)

// NewRNG returns the deterministic PCG stream for the pair. It is the
// single constructor behind all randomness in core; callers outside the
// package (fleet, experiments) use it so their derived streams line up
// with the device-side ones.
func NewRNG(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// NewSeedReader adapts the (seed, stream) PCG to io.Reader for key
// generation and other byte-oriented consumers.
func NewSeedReader(seed, stream uint64) io.Reader {
	return seededReader{NewRNG(seed, stream)}
}

// DeriveSeed folds an index into a root seed, giving each fleet member an
// independent but reproducible seed.
func DeriveSeed(root uint64, salt uint64, index int) uint64 {
	r := NewRNG(root^salt, uint64(index)*0x9e3779b97f4a7c15+1)
	return r.Uint64() | 1 // never zero: zero means "default seed" to callers
}
