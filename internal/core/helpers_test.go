package core

import (
	"testing"

	"repro/internal/ml/classify"
	"repro/internal/sensitive"
)

func TestContainsWord(t *testing.T) {
	tests := []struct {
		payload string
		word    string
		want    bool
	}{
		{"xxpasswordyy", "password", true},
		{"password", "password", true},
		{"passwor", "password", false},
		{"", "password", false},
		{"abc", "", false},
	}
	for _, tt := range tests {
		if got := containsWord([]byte(tt.payload), tt.word); got != tt.want {
			t.Errorf("containsWord(%q,%q) = %v", tt.payload, tt.word, got)
		}
	}
}

func TestUtteranceAudioVariesAcrossIndexButDeterministic(t *testing.T) {
	sys, err := NewSystem(Config{Mode: ModeBaseline, Seed: 42})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	u := sensitive.Utterance{Words: []string{"play", "music"}}
	// utteranceAudio returns scratch-backed PCM valid until the next
	// call; retain copies to compare renditions.
	sc := new(sessionScratch)
	a := sys.utteranceAudio(sc, 0, u).Clone()
	b := sys.utteranceAudio(sc, 1, u).Clone()
	c := sys.utteranceAudio(sc, 0, u)
	if len(a.Samples) != len(b.Samples) {
		t.Fatal("lengths differ")
	}
	same := true
	for i := range a.Samples {
		if a.Samples[i] != b.Samples[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different utterance indices produced identical audio")
	}
	for i := range a.Samples {
		if a.Samples[i] != c.Samples[i] {
			t.Fatal("same index produced different audio")
		}
	}
}

func TestTrainClassifierMemoization(t *testing.T) {
	vocab := sensitive.NewVocabulary()
	a, err := TrainClassifier(classify.ArchCNN, vocab, 777, 2)
	if err != nil {
		t.Fatalf("TrainClassifier: %v", err)
	}
	b, err := TrainClassifier(classify.ArchCNN, vocab, 777, 2)
	if err != nil {
		t.Fatalf("TrainClassifier (cached): %v", err)
	}
	// Distinct instances, identical weights.
	if a == b {
		t.Error("cache returned the same instance (unsafe sharing)")
	}
	feats := a.TokensToFeatures(vocab.Encode([]string{"my", "password"}))
	pa, err := a.Predict(feats)
	if err != nil {
		t.Fatalf("Predict: %v", err)
	}
	pb, err := b.Predict(feats)
	if err != nil {
		t.Fatalf("Predict: %v", err)
	}
	if pa != pb {
		t.Error("memoized classifier disagrees with original")
	}
}

func TestStageCyclesTotal(t *testing.T) {
	s := StageCycles{Capture: 1, Transcribe: 2, Classify: 3, Relay: 4}
	if s.Total() != 10 {
		t.Errorf("Total = %d", s.Total())
	}
}

func TestConfigDefaultsFilled(t *testing.T) {
	sys, err := NewSystem(Config{Mode: ModeSecureFilter})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	cfg := sys.Config()
	if cfg.Arch != classify.ArchCNN || cfg.BufBytes != 4096 || cfg.TrainEpochs == 0 {
		t.Errorf("defaults not filled: %+v", cfg)
	}
}
