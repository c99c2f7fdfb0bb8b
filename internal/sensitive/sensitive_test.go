package sensitive

import (
	"errors"
	"sync"
	"testing"
)

func TestGenerateDeterministicAndLabelled(t *testing.T) {
	cfg := DefaultGenConfig(42)
	a, err := Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if len(a) != cfg.N || len(b) != cfg.N {
		t.Fatalf("sizes %d/%d, want %d", len(a), len(b), cfg.N)
	}
	for i := range a {
		if a[i].Text() != b[i].Text() || a[i].Sensitive != b[i].Sensitive {
			t.Fatal("same seed produced different corpora")
		}
	}
	// Labels must be consistent with the lexicon.
	for _, u := range a {
		want := CountSensitiveTokens(u.Words) > 0
		if u.Sensitive != want {
			t.Errorf("utterance %q labelled %v, lexicon says %v", u.Text(), u.Sensitive, want)
		}
	}
}

func TestGenerateFractionRoughlyHonored(t *testing.T) {
	corpus, err := Generate(GenConfig{N: 1000, SensitiveFraction: 0.4, Seed: 7})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	count := 0
	for _, u := range corpus {
		if u.Sensitive {
			count++
		}
	}
	frac := float64(count) / float64(len(corpus))
	if frac < 0.33 || frac > 0.47 {
		t.Errorf("sensitive fraction = %v, want ~0.4", frac)
	}
}

func TestGenerateEmpty(t *testing.T) {
	if _, err := Generate(GenConfig{N: 0}); !errors.Is(err, ErrEmptyCorpus) {
		t.Errorf("Generate(0) = %v", err)
	}
}

func TestVocabularyEncoding(t *testing.T) {
	v := NewVocabulary()
	if v.Size() < 20 {
		t.Errorf("vocabulary size %d suspiciously small", v.Size())
	}
	if v.ID("<pad>") != PAD || v.ID("<unk>") != UNK {
		t.Error("reserved ids wrong")
	}
	if v.ID("password") == UNK {
		t.Error("password missing from vocabulary")
	}
	if v.ID("zyzzyva") != UNK {
		t.Error("unknown word should map to UNK")
	}
	if v.ID("PASSWORD") != v.ID("password") {
		t.Error("vocabulary not case-insensitive")
	}
	ids := v.Encode([]string{"turn", "on", "zyzzyva"})
	if len(ids) != 3 || ids[2] != UNK {
		t.Errorf("Encode = %v", ids)
	}
	// Round trip id -> word.
	if v.Word(v.ID("doctor")) != "doctor" {
		t.Error("Word/ID round trip failed")
	}
	if v.Word(-1) != "" || v.Word(99999) != "" {
		t.Error("out-of-range Word should be empty")
	}
}

func TestVocabularyDeterministicOrder(t *testing.T) {
	a, b := NewVocabulary(), NewVocabulary()
	if a.Size() != b.Size() {
		t.Fatal("sizes differ")
	}
	for i := 0; i < a.Size(); i++ {
		if a.Word(i) != b.Word(i) {
			t.Fatal("vocabulary order not deterministic")
		}
	}
}

func TestWordsExcludesReserved(t *testing.T) {
	v := NewVocabulary()
	for _, w := range v.Words() {
		if w == "<pad>" || w == "<unk>" {
			t.Errorf("Words() contains reserved token %q", w)
		}
	}
	if len(v.Words()) != v.Size()-2 {
		t.Errorf("Words() = %d, want %d", len(v.Words()), v.Size()-2)
	}
}

func TestCorpusVocabularyShared(t *testing.T) {
	a, b := NewVocabulary(), NewVocabulary()
	if a != b {
		t.Fatal("NewVocabulary built a second corpus vocabulary")
	}
	// Words hands out a copy: a caller scribbling on it cannot change the
	// shared instance.
	w := a.Words()
	first := w[0]
	w[0] = "tampered"
	if got := b.Words()[0]; got != first {
		t.Fatalf("Words() aliases the shared list: got %q, want %q", got, first)
	}
	// The digest is fixed at build time and follows the word list.
	if a.Digest() != NewVocabularyFromWords(a.Words()).Digest() {
		t.Error("corpus digest differs from a rebuild over the same words")
	}
	if a.Digest() == NewVocabularyFromWords([]string{"alpha"}).Digest() {
		t.Error("different word lists share a digest")
	}
	// Concurrent readers of the shared instance (checked under -race).
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v := NewVocabulary()
			for id := 0; id < v.Size(); id++ {
				if v.ID(v.Word(id)) != id {
					t.Errorf("id %d does not round-trip", id)
				}
			}
			_ = v.Words()
		}()
	}
	wg.Wait()
}

func TestSplit(t *testing.T) {
	corpus, err := Generate(GenConfig{N: 100, SensitiveFraction: 0.5, Seed: 9})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	trainSet, testSet := Split(corpus, 0.8, 1)
	if len(trainSet) != 80 || len(testSet) != 20 {
		t.Errorf("split sizes = %d/%d", len(trainSet), len(testSet))
	}
	// No overlap: every utterance accounted for exactly once.
	seen := make(map[string]int)
	for _, u := range corpus {
		seen[u.Text()]++
	}
	for _, u := range append(append([]Utterance{}, trainSet...), testSet...) {
		seen[u.Text()]--
	}
	for text, n := range seen {
		if n != 0 {
			t.Errorf("utterance %q count off by %d after split", text, n)
		}
	}
}

func TestCountSensitiveTokens(t *testing.T) {
	tests := []struct {
		words []string
		want  int
	}{
		{[]string{"turn", "on", "the", "light"}, 0},
		{[]string{"my", "password", "is", "tango"}, 1},
		{[]string{"credit", "card", "and", "account"}, 3},
		{[]string{"PASSWORD"}, 1}, // case-insensitive
		{nil, 0},
	}
	for _, tt := range tests {
		if got := CountSensitiveTokens(tt.words); got != tt.want {
			t.Errorf("CountSensitiveTokens(%v) = %d, want %d", tt.words, got, tt.want)
		}
	}
}

func TestUtteranceLabel(t *testing.T) {
	if (Utterance{Sensitive: true}).Label() != 1 || (Utterance{}).Label() != 0 {
		t.Error("Label() mapping wrong")
	}
}

func TestSensitivePhrasesAllContainLexiconWord(t *testing.T) {
	for _, p := range sensitivePhrases {
		if CountSensitiveTokens(p) == 0 {
			t.Errorf("sensitive phrase %v has no lexicon word", p)
		}
	}
	for _, p := range benignPhrases {
		if CountSensitiveTokens(p) != 0 {
			t.Errorf("benign phrase %v contains lexicon word", p)
		}
	}
}

func TestMaxLen(t *testing.T) {
	data := []Utterance{
		{Words: []string{"a"}},
		{Words: []string{"a", "b", "c"}},
	}
	if MaxLen(data) != 3 {
		t.Errorf("MaxLen = %d", MaxLen(data))
	}
	if MaxLen(nil) != 0 {
		t.Error("MaxLen(nil) should be 0")
	}
}
