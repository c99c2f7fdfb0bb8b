package core

import (
	"encoding/binary"
	"errors"
	"sync"
	"testing"

	"repro/internal/attest"
)

// TestRotateKeySealsEpochAndReattests: the TA redeems a rotation token
// (CmdRotateKey, under either profile), seals the new epoch next to its
// model weights, and signs subsequent evidence under the new epoch key —
// while a handshake minted before the rotation still verifies inside the
// grace window.
func TestRotateKeySealsEpochAndReattests(t *testing.T) {
	for _, r := range lifecycleRigs(t) {
		t.Run(r.kind, func(t *testing.T) {
			const id = "dev-under-test"

			// Evidence signed at epoch 0, before the rotation is issued...
			nonce := r.verifier.Challenge(id)
			inFlight, err := r.dev.Attest(nonce)
			if err != nil {
				t.Fatal(err)
			}
			tok, err := r.verifier.Rotate(id)
			if err != nil {
				t.Fatalf("Rotate: %v", err)
			}
			// ...is still honored after it (the grace window).
			if err := r.verifier.Verify(inFlight); err != nil {
				t.Fatalf("in-flight handshake across a rotation: %v", err)
			}

			epoch, err := r.dev.RotateKey(tok)
			if err != nil {
				t.Fatalf("RotateKey: %v", err)
			}
			if epoch != 1 || r.dev.KeyEpoch() != 1 {
				t.Fatalf("key epoch = %d/%d, want 1", epoch, r.dev.KeyEpoch())
			}
			// The epoch record is sealed into secure storage next to the model
			// objects: present, confidential, and unsealing to the new epoch.
			sealed, ok := r.storage.SealedBytes(r.prefix + "/key-epoch")
			if !ok {
				t.Fatal("key-epoch record not persisted in secure storage")
			}
			var plain [8]byte
			binary.LittleEndian.PutUint64(plain[:], 1)
			if len(sealed) <= len(plain) {
				t.Fatalf("key-epoch record not sealed: %d bytes", len(sealed))
			}
			blob, err := r.storage.Get(r.prefix + "/key-epoch")
			if err != nil {
				t.Fatal(err)
			}
			if binary.LittleEndian.Uint64(blob) != 1 {
				t.Fatalf("sealed epoch = %d, want 1", binary.LittleEndian.Uint64(blob))
			}

			// Re-attestation at the new epoch verifies and closes the window.
			rep, err := r.dev.Attest(r.verifier.Challenge(id))
			if err != nil {
				t.Fatal(err)
			}
			if rep.KeyEpoch != 1 {
				t.Fatalf("report epoch %d, want 1", rep.KeyEpoch)
			}
			if err := r.verifier.Verify(rep); err != nil {
				t.Fatalf("re-attest at new epoch: %v", err)
			}

			// A replayed (stale) token no longer redeems, nor does a forged
			// one (wrong key); the epoch stays put.
			if _, err := r.dev.RotateKey(tok); !errors.Is(err, attest.ErrBadRotation) {
				t.Fatalf("stale token: got %v, want ErrBadRotation", err)
			}
			forged := attest.RotationToken{DeviceID: id, NewEpoch: 2}
			if _, err := r.dev.RotateKey(forged); !errors.Is(err, attest.ErrBadRotation) {
				t.Fatalf("forged token: got %v, want ErrBadRotation", err)
			}
			if r.dev.KeyEpoch() != 1 {
				t.Fatalf("epoch moved to %d on a rejected token", r.dev.KeyEpoch())
			}
		})
	}
}

// TestRotateKeyRestoredOnRestart: a TA constructed over a storage that
// holds a sealed key-epoch record resumes signing at the rotated epoch
// — the record is not write-only provenance.
func TestRotateKeyRestoredOnRestart(t *testing.T) {
	for _, r := range lifecycleRigs(t) {
		t.Run(r.kind, func(t *testing.T) {
			tok, err := r.verifier.Rotate("dev-under-test")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := r.dev.RotateKey(tok); err != nil {
				t.Fatal(err)
			}
			// "Restart": rebuild the TA over the same sealed storage with a
			// fresh provisioning-epoch attestor, as a reboot would.
			restarted := r.restart(t, attest.NewAttestor("dev-under-test", r.key))
			if got := restarted.KeyEpoch(); got != 1 {
				t.Fatalf("restarted TA signs at epoch %d, want the sealed epoch 1", got)
			}
			// Its evidence verifies at the rotated epoch without a new redeem.
			rep, err := restarted.attestReport(r.verifier.Challenge("dev-under-test"))
			if err != nil {
				t.Fatal(err)
			}
			if err := r.verifier.Verify(rep); err != nil {
				t.Fatalf("restarted TA evidence: %v", err)
			}
		})
	}
}

// TestRotateKeyDuringBatchedInference: a key rotation lands through a
// management session while an inference session is mid-run — a batched
// speaker session, or a doorbell's frame session. Run with -race. No
// batch or frame may be dropped, and the device must end signing at the
// new epoch.
func TestRotateKeyDuringBatchedInference(t *testing.T) {
	for _, r := range lifecycleRigs(t) {
		t.Run(r.kind, func(t *testing.T) {
			tok, err := r.verifier.Rotate("dev-under-test")
			if err != nil {
				t.Fatal(err)
			}

			var (
				wg        sync.WaitGroup
				got, want int
				runErr    error
			)
			wg.Add(1)
			go func() {
				defer wg.Done()
				got, want, runErr = r.runSession(4)
			}()
			if _, err := r.dev.RotateKey(tok); err != nil {
				t.Errorf("concurrent RotateKey: %v", err)
			}
			wg.Wait()
			if runErr != nil {
				t.Fatalf("session during rotation: %v", runErr)
			}
			if got != want {
				t.Fatalf("dropped batches: %d/%d items processed", got, want)
			}
			if r.dev.KeyEpoch() != 1 {
				t.Fatalf("key epoch = %d after rotation, want 1", r.dev.KeyEpoch())
			}
		})
	}
}
