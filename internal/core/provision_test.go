package core

import (
	"bytes"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/attest"
	"repro/internal/ml/classify"
	"repro/internal/ml/layers"
)

// assertNoGrad fails for any parameter of l that carries a gradient
// accumulator: an inference classifier holds no training state.
func assertNoGrad(t *testing.T, what string, l layers.Layer) {
	t.Helper()
	for _, p := range l.Params() {
		if p.Grad != nil {
			t.Errorf("%s: param %s carries a gradient", what, p.Name)
		}
	}
}

// liveClassifier unseals (on first use) the TA's classifier.
func liveClassifier(t *testing.T, l *taLifecycle) *classify.Classifier {
	t.Helper()
	clf, err := l.loadedClassifier()
	if err != nil {
		t.Fatalf("loadedClassifier: %v", err)
	}
	return clf
}

// TestInferenceClassifiersCarryNoGrad: every classifier a device runs —
// a secure-filter and a hybrid-he speaker's TA classifier, the hybrid
// speaker's split, a secure-filter doorbell's TA classifier and one
// rebuilt by CmdUpdateModel — is loaded from its weights blob and holds
// no gradient accumulators.
func TestInferenceClassifiersCarryNoGrad(t *testing.T) {
	for _, mode := range []Mode{ModeSecureFilter, ModeHybridHE} {
		sys, err := NewSystem(Config{Mode: mode, Seed: 42})
		if err != nil {
			t.Fatalf("NewSystem(%v): %v", mode, err)
		}
		assertNoGrad(t, mode.String()+" speaker TA", liveClassifier(t, &sys.VoiceTA.taLifecycle).Model())
		if mode == ModeHybridHE {
			assertNoGrad(t, "hybrid split head", sys.heSplit.Embed)
			assertNoGrad(t, "hybrid split HE layer", sys.heSplit.Conv)
			assertNoGrad(t, "hybrid split tail", sys.heSplit.Tail)
		}
	}
	cam, err := NewCameraSystem(CameraConfig{Mode: ModeSecureFilter, Seed: 42})
	if err != nil {
		t.Fatalf("NewCameraSystem: %v", err)
	}
	assertNoGrad(t, "doorbell TA", liveClassifier(t, &cam.TA.taLifecycle).Model())

	for _, r := range lifecycleRigs(t) {
		pack, tok := r.packV2(t)
		if err := r.dev.UpdateModel(pack, tok); err != nil {
			t.Fatalf("%s UpdateModel: %v", r.kind, err)
		}
		assertNoGrad(t, r.kind+" updated TA", liveClassifier(t, r.dev.ta).Model())
	}
}

// TestSealedWeightsAreTheMemoizedBlob: a secure device seals exactly the
// memoized pre-trained blob, byte for byte.
func TestSealedWeightsAreTheMemoizedBlob(t *testing.T) {
	sys, err := NewSystem(Config{Mode: ModeSecureFilter, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	cam, err := NewCameraSystem(CameraConfig{Mode: ModeSecureFilter, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	text, err := TextWeights(sys.cfg.Arch, sys.Vocab, 42, sys.cfg.TrainEpochs)
	if err != nil {
		t.Fatal(err)
	}
	image, err := ImageWeights(42)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what   string
		sealed func() ([]byte, error)
		want   []byte
	}{
		{"speaker", func() ([]byte, error) { return sys.Storage.Get(voiceProfile.weightsID) }, text},
		{"doorbell", func() ([]byte, error) { return cam.Storage.Get(cameraProfile.weightsID) }, image},
	} {
		got, err := c.sealed()
		if err != nil {
			t.Fatalf("%s: %v", c.what, err)
		}
		if !bytes.Equal(got, c.want) {
			t.Errorf("%s sealed %d bytes that differ from the memoized %d-byte blob", c.what, len(got), len(c.want))
		}
	}
}

// TestRestartAfterUpdateRunsV2Weights: a TA updated to a v2 pack trained
// from another seed and then restarted over the same sealed storage runs
// exactly the v2 weights: it predicts what classify.LoadText (or
// LoadImage) of the v2 blob predicts, with no trace of the v1 seed.
func TestRestartAfterUpdateRunsV2Weights(t *testing.T) {
	for _, r := range lifecycleRigs(t) {
		t.Run(r.kind, func(t *testing.T) {
			pack, tok := r.packV2(t)
			if err := r.dev.UpdateModel(pack, tok); err != nil {
				t.Fatalf("UpdateModel: %v", err)
			}
			restarted := r.restart(t, attest.NewAttestor("dev-under-test", r.key))
			got := liveClassifier(t, restarted)
			blob := r.weights(pack)
			var want *classify.Classifier
			var err error
			if r.cam != nil {
				want, err = classify.LoadImage(blob, cameraFrameSide, cameraFrameSide)
			} else {
				want, err = classify.LoadText(blob, r.sys.Vocab.Size(), TextSeqLen)
			}
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.SerializeWeights(), blob) {
				t.Fatal("restarted TA runs weights other than the v2 pack's")
			}
			rng := rand.New(rand.NewPCG(31, 7))
			batch := make([][]float32, 8)
			for i := range batch {
				f := make([]float32, want.FeatureLen())
				for j := range f {
					if r.cam != nil {
						f[j] = float32(rng.Float64())
					} else {
						f[j] = float32(rng.IntN(r.sys.Vocab.Size()))
					}
				}
				batch[i] = f
			}
			gotClasses, err := got.PredictBatch(batch)
			if err != nil {
				t.Fatal(err)
			}
			wantClasses, err := want.PredictBatch(batch)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(gotClasses, wantClasses) {
				t.Fatalf("restarted TA predicts %v, LoadText of the v2 blob %v", gotClasses, wantClasses)
			}
		})
	}
}

// TestNewDeviceBuildAllocs is the build allocation guard: after Pretrain
// and one warm-up build, building a secure-filter speaker or doorbell
// seals the memoized weights blob and makes no classifier. It reads 98
// allocations for the speaker and 81 for the doorbell, against 170 and
// 139 when each build made a throwaway classifier and re-serialized its
// weights (docs/PERFORMANCE.md, "Sealed weights alone"); each bound sits
// between the two.
func TestNewDeviceBuildAllocs(t *testing.T) {
	for _, c := range []struct {
		kind  DeviceKind
		bound float64
	}{
		{DeviceSpeaker, 135},
		{DeviceDoorbell, 110},
	} {
		spec := DeviceSpec{Kind: c.kind, Mode: ModeSecureFilter, Seed: 7, ModelSeed: 1}
		if err := Pretrain([]DeviceSpec{spec}); err != nil {
			t.Fatal(err)
		}
		if _, err := NewDevice(spec); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := NewDevice(spec); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%v: %.0f allocations per build", c.kind, allocs)
		if allocs > c.bound {
			t.Errorf("%v: NewDevice makes %.0f allocations, want at most %.0f", c.kind, allocs, c.bound)
		}
	}
}

// TestPretrainWarmAllocatesNothing: fleet.Run calls Pretrain on every
// run, and Pretrain asks the memo caches once per device, so over warm
// caches it must allocate nothing.
func TestPretrainWarmAllocatesNothing(t *testing.T) {
	specs := []DeviceSpec{
		{Kind: DeviceSpeaker, Mode: ModeSecureFilter, Seed: 3, ModelSeed: 1},
		{Kind: DeviceSpeaker, Mode: ModeHybridHE, Seed: 4, ModelSeed: 1},
		{Kind: DeviceDoorbell, Mode: ModeSecureFilter, Seed: 5, ModelSeed: 1},
	}
	if err := Pretrain(specs); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(10, func() { _ = Pretrain(specs) }); allocs != 0 {
		t.Errorf("warm Pretrain allocates %v times, want 0", allocs)
	}
}
