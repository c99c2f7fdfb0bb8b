// Package sensitive defines the labelled smart-home utterance corpus the
// classifiers train and evaluate on. The paper's motivating scenario (§I)
// is a voice assistant that involuntarily ships private speech to the
// cloud; this corpus mixes routine assistant commands with utterances
// carrying private content (credentials, finances, health, identities),
// labelled sensitive when any private token appears.
package sensitive

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"sort"
	"strings"
	"sync"
)

// ErrEmptyCorpus is returned when generation parameters yield no data.
var ErrEmptyCorpus = errors.New("sensitive: empty corpus")

// benignPhrases are routine assistant commands (no private content).
var benignPhrases = [][]string{
	{"turn", "on", "the", "light"},
	{"turn", "off", "the", "light"},
	{"play", "some", "music"},
	{"stop", "the", "music"},
	{"set", "a", "timer"},
	{"what", "is", "the", "weather"},
	{"volume", "up"},
	{"volume", "down"},
	{"good", "morning"},
	{"set", "the", "temperature"},
	{"open", "the", "garage"},
	{"start", "the", "vacuum"},
	{"what", "time", "is", "it"},
	{"add", "milk", "to", "the", "list"},
	{"remind", "me", "to", "exercise"},
}

// sensitivePhrases carry private content; every phrase contains at least
// one token from sensitiveWords.
var sensitivePhrases = [][]string{
	{"my", "password", "is", "tango", "seven"},
	{"the", "wifi", "password", "is", "sunset"},
	{"my", "account", "number", "is", "nine", "two"},
	{"transfer", "money", "to", "my", "account"},
	{"call", "my", "doctor", "about", "the", "diagnosis"},
	{"refill", "my", "medication", "tomorrow"},
	{"my", "salary", "is", "confidential"},
	{"the", "safe", "code", "is", "four", "one"},
	{"my", "social", "security", "number", "follows"},
	{"schedule", "therapy", "for", "tuesday"},
	{"my", "credit", "card", "expires", "soon"},
	{"the", "alarm", "code", "is", "five", "nine"},
}

// sensitiveWords is the private-token lexicon; an utterance is labelled
// sensitive iff it contains at least one of these.
var sensitiveWords = map[string]bool{
	"password": true, "account": true, "doctor": true, "diagnosis": true,
	"medication": true, "salary": true, "confidential": true, "code": true,
	"social": true, "security": true, "therapy": true, "credit": true,
	"card": true, "money": true, "safe": true, "alarm": true,
}

// IsSensitiveWord reports whether a single token is private.
func IsSensitiveWord(w string) bool { return sensitiveWords[strings.ToLower(w)] }

// CountSensitiveTokens counts private tokens in a transcript — the
// leakage unit used by experiment E5.
func CountSensitiveTokens(tokens []string) int {
	n := 0
	for _, t := range tokens {
		if IsSensitiveWord(t) {
			n++
		}
	}
	return n
}

// Utterance is one labelled example.
type Utterance struct {
	Words     []string
	Sensitive bool
}

// Label returns 1 for sensitive, 0 for benign (the classifier classes).
func (u Utterance) Label() int {
	if u.Sensitive {
		return 1
	}
	return 0
}

// Text returns the utterance as a space-joined string.
func (u Utterance) Text() string { return strings.Join(u.Words, " ") }

// Vocabulary maps words to token ids. Id 0 is PAD, id 1 is UNK.
//
// A Vocabulary is immutable once built: it has no mutators, so one
// instance is safe for any number of concurrent readers and may be shared
// across every device of a fleet.
type Vocabulary struct {
	byWord map[string]int
	words  []string
	digest uint64
}

// PAD and UNK are the reserved token ids.
const (
	PAD = 0
	UNK = 1
)

// corpusVocabulary is the one shared vocabulary of the built-in corpus,
// built on first use.
var corpusVocabulary = sync.OnceValue(func() *Vocabulary {
	var words []string
	for _, p := range benignPhrases {
		words = append(words, p...)
	}
	for _, p := range sensitivePhrases {
		words = append(words, p...)
	}
	return NewVocabularyFromWords(words)
})

// NewVocabulary returns the corpus vocabulary (deterministic order). Every
// call returns the same shared, immutable instance.
func NewVocabulary() *Vocabulary { return corpusVocabulary() }

// NewVocabularyFromWords builds a vocabulary over an explicit word list
// (deduplicated, lowercased order preserved via sorting) — used by
// callers that speak a different lexicon than the built-in corpus, and
// by tests that need two distinct vocabularies.
func NewVocabularyFromWords(words []string) *Vocabulary {
	set := make(map[string]bool)
	for _, w := range words {
		set[strings.ToLower(w)] = true
	}
	uniq := make([]string, 0, len(set))
	for w := range set {
		uniq = append(uniq, w)
	}
	sort.Strings(uniq)
	v := &Vocabulary{
		byWord: make(map[string]int, len(uniq)+2),
		words:  append([]string{"<pad>", "<unk>"}, uniq...),
	}
	for i, w := range v.words {
		v.byWord[w] = i
	}
	// Fingerprint the spoken words (FNV-1a, each word NUL-terminated so
	// shifted word boundaries do not collide).
	h := fnv.New64a()
	for _, w := range uniq {
		_, _ = h.Write([]byte(w))
		_, _ = h.Write([]byte{0})
	}
	v.digest = h.Sum64()
	return v
}

// Digest fingerprints the ordered word list Words returns. It is computed
// once when the vocabulary is built, so it is a cheap cache key for
// models trained on this vocabulary.
func (v *Vocabulary) Digest() uint64 { return v.digest }

// Size returns the vocabulary size including PAD and UNK.
func (v *Vocabulary) Size() int { return len(v.words) }

// ID returns the token id of a word (UNK for unknown words).
func (v *Vocabulary) ID(word string) int {
	if id, ok := v.byWord[strings.ToLower(word)]; ok {
		return id
	}
	return UNK
}

// Word returns the word for an id (empty for out of range).
func (v *Vocabulary) Word(id int) string {
	if id < 0 || id >= len(v.words) {
		return ""
	}
	return v.words[id]
}

// Encode converts words to token ids.
func (v *Vocabulary) Encode(words []string) []int {
	out := make([]int, len(words))
	for i, w := range words {
		out[i] = v.ID(w)
	}
	return out
}

// Words returns all spoken words (excluding PAD/UNK), sorted — the ASR
// vocabulary.
func (v *Vocabulary) Words() []string {
	return append([]string(nil), v.words[2:]...)
}

// GenConfig drives corpus generation.
type GenConfig struct {
	// N is the number of utterances.
	N int
	// SensitiveFraction is the fraction carrying private content.
	SensitiveFraction float64
	// Seed fixes the sequence.
	Seed uint64
}

// DefaultGenConfig returns the standard experimental corpus shape.
func DefaultGenConfig(seed uint64) GenConfig {
	return GenConfig{N: 400, SensitiveFraction: 0.4, Seed: seed}
}

// Generate produces a labelled corpus.
func Generate(cfg GenConfig) ([]Utterance, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("%w: n=%d", ErrEmptyCorpus, cfg.N)
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0x5eed))
	out := make([]Utterance, 0, cfg.N)
	for i := 0; i < cfg.N; i++ {
		if rng.Float64() < cfg.SensitiveFraction {
			base := sensitivePhrases[rng.IntN(len(sensitivePhrases))]
			words := append([]string(nil), base...)
			// Half the time, prefix with a benign opener so sensitive
			// content appears mid-stream, as in real conversations.
			if rng.IntN(2) == 0 {
				opener := benignPhrases[rng.IntN(len(benignPhrases))]
				words = append(append([]string(nil), opener...), words...)
			}
			out = append(out, Utterance{Words: words, Sensitive: true})
		} else {
			base := benignPhrases[rng.IntN(len(benignPhrases))]
			out = append(out, Utterance{Words: append([]string(nil), base...), Sensitive: false})
		}
	}
	return out, nil
}

// Split partitions a corpus into train/test by fraction (deterministic,
// seeded shuffle).
func Split(data []Utterance, trainFrac float64, seed uint64) (train, test []Utterance) {
	idx := make([]int, len(data))
	for i := range idx {
		idx[i] = i
	}
	rng := rand.New(rand.NewPCG(seed, seed^0x511f))
	rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	cut := int(float64(len(data)) * trainFrac)
	for i, id := range idx {
		if i < cut {
			train = append(train, data[id])
		} else {
			test = append(test, data[id])
		}
	}
	return train, test
}

// MaxLen returns the longest utterance length in words.
func MaxLen(data []Utterance) int {
	max := 0
	for _, u := range data {
		if len(u.Words) > max {
			max = len(u.Words)
		}
	}
	return max
}
