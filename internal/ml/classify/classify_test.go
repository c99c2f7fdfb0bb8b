package classify

import (
	"bytes"
	"errors"
	"math/rand/v2"
	"testing"

	"repro/internal/ml/train"
	"repro/internal/peripheral"
	"repro/internal/sensitive"
)

func corpusSamples(t *testing.T, c *Classifier, utts []sensitive.Utterance, vocab *sensitive.Vocabulary) []train.Sample {
	t.Helper()
	out := make([]train.Sample, 0, len(utts))
	for _, u := range utts {
		out = append(out, train.Sample{
			X: c.TokensToFeatures(vocab.Encode(u.Words)),
			Y: u.Label(),
		})
	}
	return out
}

// trainText trains a small text classifier on the synthetic corpus and
// returns its test metrics.
func trainText(t *testing.T, arch Arch, seed uint64) (train.Metrics, *Classifier, *sensitive.Vocabulary) {
	t.Helper()
	vocab := sensitive.NewVocabulary()
	corpus, err := sensitive.Generate(sensitive.GenConfig{N: 240, SensitiveFraction: 0.45, Seed: seed})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	trainSet, testSet := sensitive.Split(corpus, 0.8, seed)

	rng := rand.New(rand.NewPCG(seed, seed^0xc1a))
	const seqLen = 12
	clf, err := NewText(arch, rng, vocab.Size(), seqLen)
	if err != nil {
		t.Fatalf("NewText(%v): %v", arch, err)
	}
	_, err = train.Fit(clf.Model(), train.NewAdam(0.01),
		corpusSamples(t, clf, trainSet, vocab),
		train.Config{Epochs: 8, BatchSize: 16, Seed: seed, Shape: clf.InputShape()})
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	m, err := train.Evaluate(clf.Model(), corpusSamples(t, clf, testSet, vocab), clf.InputShape())
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	return m, clf, vocab
}

func TestCNNLearnsSensitiveDetection(t *testing.T) {
	m, _, _ := trainText(t, ArchCNN, 11)
	if m.Accuracy() < 0.9 {
		t.Errorf("cnn accuracy = %v, want >= 0.9", m.Accuracy())
	}
	if m.Recall() < 0.9 {
		t.Errorf("cnn recall = %v, want >= 0.9 (missed sensitive content leaks)", m.Recall())
	}
}

func TestTransformerLearnsSensitiveDetection(t *testing.T) {
	m, _, _ := trainText(t, ArchTransformer, 12)
	if m.Accuracy() < 0.85 {
		t.Errorf("transformer accuracy = %v, want >= 0.85", m.Accuracy())
	}
}

func TestHybridLearnsSensitiveDetection(t *testing.T) {
	m, _, _ := trainText(t, ArchHybrid, 13)
	if m.Accuracy() < 0.85 {
		t.Errorf("hybrid accuracy = %v, want >= 0.85", m.Accuracy())
	}
}

func TestPredictMatchesEvaluate(t *testing.T) {
	_, clf, vocab := trainText(t, ArchCNN, 14)
	u := sensitive.Utterance{Words: []string{"my", "password", "is", "tango"}, Sensitive: true}
	cls, err := clf.Predict(clf.TokensToFeatures(vocab.Encode(u.Words)))
	if err != nil {
		t.Fatalf("Predict: %v", err)
	}
	if cls != 1 {
		t.Errorf("password utterance classified %d, want 1 (sensitive)", cls)
	}
	benign := []string{"turn", "on", "the", "light"}
	cls, err = clf.Predict(clf.TokensToFeatures(vocab.Encode(benign)))
	if err != nil {
		t.Fatalf("Predict: %v", err)
	}
	if cls != 0 {
		t.Errorf("benign utterance classified %d, want 0", cls)
	}
}

func TestArchParsingAndStrings(t *testing.T) {
	for _, name := range []string{"cnn", "transformer", "hybrid"} {
		a, err := ParseArch(name)
		if err != nil {
			t.Errorf("ParseArch(%q): %v", name, err)
		}
		if a.String() != name {
			t.Errorf("round trip %q -> %q", name, a.String())
		}
	}
	if _, err := ParseArch("lstm"); !errors.Is(err, ErrBadArch) {
		t.Errorf("ParseArch(lstm) = %v", err)
	}
	if Arch(9).String() != "arch(9)" {
		t.Error("unknown arch string")
	}
}

func TestNewTextBadArch(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	if _, err := NewText(Arch(9), rng, 10, 8); !errors.Is(err, ErrBadArch) {
		t.Errorf("NewText bad arch = %v", err)
	}
}

func TestParamAccountingOrdering(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	vocabSize, seqLen := 50, 12
	cnn, err := NewText(ArchCNN, rng, vocabSize, seqLen)
	if err != nil {
		t.Fatalf("cnn: %v", err)
	}
	tr, err := NewText(ArchTransformer, rng, vocabSize, seqLen)
	if err != nil {
		t.Fatalf("transformer: %v", err)
	}
	hy, err := NewText(ArchHybrid, rng, vocabSize, seqLen)
	if err != nil {
		t.Fatalf("hybrid: %v", err)
	}
	for _, c := range []*Classifier{cnn, tr, hy} {
		if c.ParamCount() <= 0 || c.MemoryBytes() <= c.ParamCount()*4-1 {
			t.Errorf("%v accounting: params=%d mem=%d", c.Arch(), c.ParamCount(), c.MemoryBytes())
		}
		if c.EstimateMACs() != 2*c.ParamCount() {
			t.Errorf("%v MACs = %d", c.Arch(), c.EstimateMACs())
		}
	}
	// The hybrid stacks CNN + attention, so it must be the largest.
	if hy.ParamCount() <= cnn.ParamCount() || hy.ParamCount() <= tr.ParamCount() {
		t.Errorf("param ordering: cnn=%d tr=%d hybrid=%d",
			cnn.ParamCount(), tr.ParamCount(), hy.ParamCount())
	}
	// All of them must fit a 1 MiB TEE model budget (paper §V smallness).
	for _, c := range []*Classifier{cnn, tr, hy} {
		if !c.FitsIn(1 << 20) {
			t.Errorf("%v does not fit 1 MiB (needs %d)", c.Arch(), c.MemoryBytes())
		}
	}
	if cnn.FitsIn(10) {
		t.Error("FitsIn(10) should be false")
	}
}

func TestWeightsSerializationRoundTrip(t *testing.T) {
	_, clf, vocab := trainText(t, ArchCNN, 15)
	blob := clf.SerializeWeights()

	loaded, err := LoadText(blob, vocab.Size(), 12)
	if err != nil {
		t.Fatalf("LoadText: %v", err)
	}
	if !bytes.Equal(loaded.SerializeWeights(), blob) {
		t.Error("loaded classifier serializes to other bytes")
	}
	feats := clf.TokensToFeatures(vocab.Encode([]string{"my", "password", "is", "tango"}))
	orig, err := clf.Predict(feats)
	if err != nil {
		t.Fatalf("Predict: %v", err)
	}
	got, err := loaded.Predict(feats)
	if err != nil {
		t.Fatalf("Predict: %v", err)
	}
	if orig != got {
		t.Errorf("loaded model predicts %d, original %d", got, orig)
	}
}

func TestLoadWeightsErrors(t *testing.T) {
	for _, blob := range loadErrorBlobs() {
		if _, err := LoadText(blob, 20, 8); !errors.Is(err, ErrBadWeights) {
			t.Errorf("LoadText of a %d-byte bad blob = %v", len(blob), err)
		}
	}
	rng := rand.New(rand.NewPCG(3, 3))
	cnn, _ := NewText(ArchCNN, rng, 20, 8)
	if _, err := LoadText(cnn.SerializeWeights(), 21, 8); !errors.Is(err, ErrBadWeights) {
		t.Errorf("load over another vocabulary = %v", err)
	}
	if _, err := LoadImage(cnn.SerializeWeights(), 24, 24); !errors.Is(err, ErrBadWeights) {
		t.Errorf("text blob as image = %v", err)
	}
	img, _ := NewImage(rng, 24, 24)
	if _, err := LoadText(img.SerializeWeights(), 20, 8); !errors.Is(err, ErrBadWeights) {
		t.Errorf("image blob as text = %v", err)
	}
}

// loadErrorBlobs are malformed weights blobs: truncated, cut short,
// overlong, and with a bad magic or an unknown architecture.
func loadErrorBlobs() [][]byte {
	rng := rand.New(rand.NewPCG(3, 3))
	cnn, _ := NewText(ArchCNN, rng, 20, 8)
	blob := cnn.SerializeWeights()
	badMagic := append([]byte(nil), blob...)
	badMagic[0] ^= 1
	badArch := append([]byte(nil), blob...)
	badArch[4] = 9
	return [][]byte{{1, 2}, blob[:len(blob)-2], append(blob[:len(blob):len(blob)], 0), badMagic, badArch}
}

// FuzzLoadWeights: a weights blob reaches a TA from a normal-world
// delivered model pack and from sealed storage, so for any input
// LoadText and LoadImage either reject it with ErrBadWeights or build a
// classifier that serializes back to exactly the input. Neither panics.
// The corpus holds blobs of every architecture at the shapes devices
// run (the corpus vocabulary, 12 tokens, 24×24 frames).
func FuzzLoadWeights(f *testing.F) {
	vocab, seqLen, side := sensitive.NewVocabulary().Size(), 12, 24
	rng := rand.New(rand.NewPCG(31, 31))
	for _, arch := range []Arch{ArchCNN, ArchTransformer, ArchHybrid} {
		c, err := NewText(arch, rng, vocab, seqLen)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(c.SerializeWeights())
	}
	img, err := NewImage(rng, side, side)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(img.SerializeWeights())
	for _, blob := range loadErrorBlobs() {
		f.Add(blob)
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		check := func(what string, c *Classifier, err error) {
			if err != nil {
				if !errors.Is(err, ErrBadWeights) {
					t.Fatalf("%s: error %v is not ErrBadWeights", what, err)
				}
				return
			}
			if !bytes.Equal(c.SerializeWeights(), blob) {
				t.Fatalf("%s: accepted blob does not serialize back to itself", what)
			}
		}
		c, err := LoadText(blob, vocab, seqLen)
		check("LoadText", c, err)
		c, err = LoadImage(blob, side, side)
		check("LoadImage", c, err)
	})
}

func TestImageClassifierLearnsPersonDetection(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 4))
	clf, err := NewImage(rng, 24, 24)
	if err != nil {
		t.Fatalf("NewImage: %v", err)
	}
	samples := imageSamples(t, 120, 20)
	_, err = train.Fit(clf.Model(), train.NewAdam(0.005), samples[:100],
		train.Config{Epochs: 6, BatchSize: 10, Seed: 5, Shape: clf.InputShape()})
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	m, err := train.Evaluate(clf.Model(), samples[100:], clf.InputShape())
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if m.Accuracy() < 0.85 {
		t.Errorf("image accuracy = %v, want >= 0.85", m.Accuracy())
	}
}

// imageSamples renders synthetic empty/person frames.
func imageSamples(t *testing.T, n, _ int) []train.Sample {
	t.Helper()
	out := make([]train.Sample, 0, n)
	for i := 0; i < n; i++ {
		label := i % 2
		scene := peripheral.SceneEmpty
		if label == 1 {
			scene = peripheral.ScenePerson
		}
		im := peripheral.SynthesizeImage(scene, uint64(i))
		out = append(out, train.Sample{X: im.Floats(), Y: label})
	}
	return out
}

func TestNewImageBadDims(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	if _, err := NewImage(rng, 3, 3); !errors.Is(err, ErrBadArch) {
		t.Errorf("NewImage(3,3) = %v", err)
	}
	if _, err := NewImage(rng, 23, 24); !errors.Is(err, ErrBadArch) {
		t.Errorf("NewImage(23,24) = %v", err)
	}
}

func TestPredictBatchShapeError(t *testing.T) {
	rng := rand.New(rand.NewPCG(6, 6))
	clf, _ := NewText(ArchCNN, rng, 10, 8)
	if _, err := clf.PredictBatch([][]float32{{1, 2}}); !errors.Is(err, ErrBadWeights) {
		t.Errorf("short features = %v", err)
	}
	got, err := clf.PredictBatch(nil)
	if err != nil || got != nil {
		t.Errorf("empty batch = %v, %v", got, err)
	}
}
