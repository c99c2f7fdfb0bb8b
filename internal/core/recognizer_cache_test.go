package core

// Regression coverage for the recognizer model cache. The historical key
// was (rate, noiseAmp) only, although templates are trained on
// vocab.Words(): two configurations sharing acoustic conditions but
// speaking different vocabularies silently shared one recognizer. The
// key now includes a vocabulary digest.

import (
	"testing"

	"repro/internal/audio"
	"repro/internal/sensitive"
)

func TestTrainedModelKeyedByVocabulary(t *testing.T) {
	voice := audio.DefaultVoice(9)
	voice.NoiseAmp = 0.01

	vocabA := sensitive.NewVocabularyFromWords([]string{"alpha", "bravo"})
	vocabB := sensitive.NewVocabularyFromWords([]string{"charlie", "delta", "echo"})

	a1, err := trainedModel(vocabA, voice)
	if err != nil {
		t.Fatalf("trainedModel(A): %v", err)
	}
	b, err := trainedModel(vocabB, voice)
	if err != nil {
		t.Fatalf("trainedModel(B): %v", err)
	}
	if a1 == b {
		t.Fatal("different vocabularies share one recognizer model (cache key ignores vocabulary)")
	}
	if got, want := len(a1.Vocabulary()), 2; got != want {
		t.Fatalf("model A has %d words, want %d", got, want)
	}
	if got, want := len(b.Vocabulary()), 3; got != want {
		t.Fatalf("model B has %d words, want %d — vocabularies leaked across cache entries", got, want)
	}

	// Same conditions and vocabulary must still share one trained model.
	a2, err := trainedModel(vocabA, voice)
	if err != nil {
		t.Fatalf("trainedModel(A) again: %v", err)
	}
	if a1 != a2 {
		t.Fatal("identical training conditions did not hit the cache")
	}

	// A different voice seed must not fork the cache: pre-training pins
	// its own seed, so only rate/noise/vocabulary matter.
	voice2 := voice
	voice2.Seed = 777
	a3, err := trainedModel(vocabA, voice2)
	if err != nil {
		t.Fatalf("trainedModel(A, other seed): %v", err)
	}
	if a1 != a3 {
		t.Fatal("runtime voice seed leaked into the recognizer cache key")
	}
}

func TestVocabDigestDistinguishesWordLists(t *testing.T) {
	digest := func(words ...string) uint64 {
		return sensitive.NewVocabularyFromWords(words).Digest()
	}
	if digest("ab", "c") == digest("a", "bc") {
		t.Fatal("digest collides on shifted word boundaries")
	}
	if digest("x", "y") != digest("x", "y") {
		t.Fatal("digest is not deterministic")
	}
}
