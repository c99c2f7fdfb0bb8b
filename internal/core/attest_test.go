package core

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"repro/internal/attest"
	"repro/internal/ml/classify"
	"repro/internal/optee"
)

// attestRig is an attested device enrolled with a test verifier: a
// speaker (sys) or a doorbell (cam). dev, storage, profile and prefix
// reach its TA whichever kind it is, so the lifecycle contract tests run
// over both TAs.
type attestRig struct {
	kind     string
	sys      *System
	cam      *CameraSystem
	dev      *taClient
	storage  *optee.Storage
	profile  *taProfile
	prefix   string // sealed-storage object prefix
	code     attest.Digest
	verifier *attest.Verifier
	key      attest.DeviceKey
}

func newAttestRig(t *testing.T, mode Mode) *attestRig {
	t.Helper()
	const keySeed = 777
	sys, err := NewSystem(Config{
		Mode:          mode,
		Seed:          42,
		DeviceID:      "dev-under-test",
		AttestKeySeed: keySeed,
	})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	r := &attestRig{kind: "speaker", sys: sys, dev: &sys.taClient, storage: sys.Storage,
		profile: voiceProfile, prefix: "voice-ta"}
	r.enroll(keySeed, VoiceTADigest)
	return r
}

// newCameraAttestRig is newAttestRig's secure-filter doorbell.
func newCameraAttestRig(t *testing.T) *attestRig {
	t.Helper()
	const keySeed = 888
	cam, err := NewCameraSystem(CameraConfig{
		Mode:          ModeSecureFilter,
		Seed:          42,
		DeviceID:      "dev-under-test",
		AttestKeySeed: keySeed,
	})
	if err != nil {
		t.Fatalf("NewCameraSystem: %v", err)
	}
	r := &attestRig{kind: "doorbell", cam: cam, dev: &cam.taClient, storage: cam.Storage,
		profile: cameraProfile, prefix: "camera-ta"}
	r.enroll(keySeed, CameraTADigest)
	return r
}

// lifecycleRigs are the TAs every lifecycle contract test runs over.
func lifecycleRigs(t *testing.T) []*attestRig {
	return []*attestRig{newAttestRig(t, ModeSecureFilter), newCameraAttestRig(t)}
}

func (r *attestRig) enroll(keySeed uint64, code attest.Digest) {
	r.key, r.code = attest.KeyFromSeed(keySeed), code
	r.verifier = attest.NewVerifier(1, func(id string) (attest.DeviceKey, bool) {
		return r.key, id == "dev-under-test"
	})
	r.verifier.AllowMeasurement(code, true)
}

// weights is the pack field the rig's TA runs.
func (r *attestRig) weights(p attest.Pack) []byte {
	if r.cam != nil {
		return p.Image
	}
	return p.Text
}

// withWeights sets the pack field the rig's TA runs.
func (r *attestRig) withWeights(p attest.Pack, w []byte) attest.Pack {
	if r.cam != nil {
		p.Image = w
	} else {
		p.Text = w
	}
	return p
}

// packV2 publishes a version-2 pack for the rig's TA, with a manifest
// token authorizing it for the device.
func (r *attestRig) packV2(t *testing.T) (attest.Pack, attest.ManifestToken) {
	t.Helper()
	const v2Seed = 4242
	var clf *classify.Classifier
	var err error
	if r.cam != nil {
		clf, err = TrainImageClassifier(v2Seed)
	} else {
		clf, err = TrainClassifier(classify.ArchCNN, r.sys.Vocab, v2Seed, 2)
	}
	if err != nil {
		t.Fatalf("train v2: %v", err)
	}
	pack := r.withWeights(attest.Pack{Version: 2, ModelSeed: v2Seed}, clf.SerializeWeights())
	tok, err := r.verifier.Manifest("dev-under-test", pack)
	if err != nil {
		t.Fatalf("manifest: %v", err)
	}
	return pack, tok
}

// restart rebuilds the rig's TA over the same sealed storage with the
// given attestor, as a reboot would, and returns its lifecycle.
func (r *attestRig) restart(t *testing.T, a *attest.Attestor) *taLifecycle {
	t.Helper()
	var ta *DeviceTA
	if r.cam != nil {
		ta = r.cam.TA
	} else {
		ta = r.sys.VoiceTA
	}
	cfg := ta.cfg
	cfg.Attestor = a
	restarted, err := newDeviceTA(r.profile, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &restarted.taLifecycle
}

// runSession runs a session on the rig's device: 12 utterances in
// groups of batch on a speaker (per utterance when batch is 1), 8 frames
// on a doorbell. It returns how many items the device processed and how
// many it was given.
func (r *attestRig) runSession(batch int) (got, want int, err error) {
	if r.cam != nil {
		before := len(r.cam.TA.Processed())
		scenes := daySenes()
		if _, err := r.cam.RunSession(scenes); err != nil {
			return 0, len(scenes), err
		}
		return len(r.cam.TA.Processed()) - before, len(scenes), nil
	}
	utts := append(testUtterances(), testUtterances()...)
	res, err := r.sys.RunSessionBatched(utts, batch)
	if err != nil {
		return 0, len(utts), err
	}
	return len(res.Utterances), len(utts), nil
}

func TestSystemAttestReportVerifies(t *testing.T) {
	for _, r := range lifecycleRigs(t) {
		t.Run(r.kind, func(t *testing.T) {
			nonce := r.verifier.Challenge("dev-under-test")
			rep, err := r.dev.Attest(nonce)
			if err != nil {
				t.Fatalf("Attest: %v", err)
			}
			if rep.Code != r.code || rep.ModelVersion != 1 || rep.DeviceID != "dev-under-test" {
				t.Fatalf("unexpected measurement: %+v", rep)
			}
			if err := r.verifier.Verify(rep); err != nil {
				t.Fatalf("Verify: %v", err)
			}
			// A bit-flipped report is rejected (and the nonce burns).
			nonce = r.verifier.Challenge("dev-under-test")
			rep, err = r.dev.Attest(nonce)
			if err != nil {
				t.Fatal(err)
			}
			rep.MAC[0] ^= 0xff
			if err := r.verifier.Verify(rep); !errors.Is(err, attest.ErrBadReport) {
				t.Fatalf("tampered report: got %v, want ErrBadReport", err)
			}
		})
	}
}

func TestUpdateModelTamperedPackRejected(t *testing.T) {
	for _, r := range lifecycleRigs(t) {
		t.Run(r.kind, func(t *testing.T) {
			pack, tok := r.packV2(t)

			// Payload tampered in transit: the manifest digest no longer matches.
			w := append([]byte(nil), r.weights(pack)...)
			w[len(w)/2] ^= 0xff
			bad := r.withWeights(pack, w)
			if err := r.dev.UpdateModel(bad, tok); !errors.Is(err, attest.ErrBadPack) {
				t.Fatalf("tampered pack: got %v, want ErrBadPack", err)
			}
			if got := r.dev.ModelVersion(); got != 1 {
				t.Fatalf("version moved to %d after rejected update", got)
			}
			// A forged manifest (bad MAC) is rejected too.
			forged := tok
			forged.MAC[3] ^= 0x01
			if err := r.dev.UpdateModel(pack, forged); !errors.Is(err, attest.ErrBadManifest) {
				t.Fatalf("forged manifest: got %v, want ErrBadManifest", err)
			}
			// The device still works on its v1 model after the failed updates.
			got, want, err := r.runSession(1)
			if err != nil {
				t.Fatalf("session after rejected update: %v", err)
			}
			if got != want {
				t.Fatalf("processed %d of %d items", got, want)
			}
		})
	}
}

func TestUpdateModelPersistsThroughSealedStorage(t *testing.T) {
	for _, r := range lifecycleRigs(t) {
		t.Run(r.kind, func(t *testing.T) {
			pack, tok := r.packV2(t)
			if err := r.dev.UpdateModel(pack, tok); err != nil {
				t.Fatalf("UpdateModel: %v", err)
			}
			if got := r.dev.ModelVersion(); got != 2 {
				t.Fatalf("ModelVersion = %d, want 2", got)
			}
			// The versioned pack is sealed into secure storage, not plaintext.
			sealed, ok := r.storage.SealedBytes(r.prefix + "/model-pack-v2")
			if !ok {
				t.Fatal("model pack not persisted in secure storage")
			}
			if bytes.Contains(sealed, r.weights(pack)[:32]) {
				t.Fatal("sealed pack leaks plaintext weights")
			}
			// The current-weights object now unseals to the v2 weights, so a
			// fresh session open picks the new model up from storage.
			blob, err := r.storage.Get(r.profile.weightsID)
			if err != nil {
				t.Fatalf("weights object: %v", err)
			}
			if !bytes.Equal(blob, r.weights(pack)) {
				t.Fatal("current-weights object does not hold the v2 weights")
			}
			// Idempotent re-delivery of the installed version is a no-op.
			if err := r.dev.UpdateModel(pack, tok); err != nil {
				t.Fatalf("re-delivery: %v", err)
			}
			// An older pack is rejected (no rollback).
			old := r.withWeights(attest.Pack{Version: 1, ModelSeed: 42}, r.weights(pack))
			oldTok, err := r.verifier.Manifest("dev-under-test", old)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.dev.UpdateModel(old, oldTok); !errors.Is(err, attest.ErrBadPack) {
				t.Fatalf("rollback: got %v, want ErrBadPack", err)
			}
		})
	}
}

// TestHotSwapDuringBatchedInference is the rollout race test: a model
// update lands through a management session while an inference session
// is mid-run — a batched speaker session, or a doorbell's frame session.
// Run with -race. No batch or frame may be dropped, and the device must
// end on the new version.
func TestHotSwapDuringBatchedInference(t *testing.T) {
	for _, r := range lifecycleRigs(t) {
		t.Run(r.kind, func(t *testing.T) {
			pack, tok := r.packV2(t)

			var (
				wg        sync.WaitGroup
				got, want int
				runErr    error
			)
			wg.Add(1)
			go func() {
				defer wg.Done()
				got, want, runErr = r.runSession(4) // 12 utterances, 3 batches
			}()
			if err := r.dev.UpdateModel(pack, tok); err != nil {
				t.Errorf("concurrent UpdateModel: %v", err)
			}
			wg.Wait()
			if runErr != nil {
				t.Fatalf("session during hot-swap: %v", runErr)
			}
			if got != want {
				t.Fatalf("dropped batches: %d/%d items processed", got, want)
			}
			if got := r.dev.ModelVersion(); got != 2 {
				t.Fatalf("ModelVersion = %d after hot-swap, want 2", got)
			}
			// The capture stream survived the management session's open/close
			// (session refcounting): a follow-up run still captures fine.
			if _, _, err := r.runSession(4); err != nil {
				t.Fatalf("session after hot-swap: %v", err)
			}
		})
	}
}
