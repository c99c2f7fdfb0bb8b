package audio

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand/v2"
	"testing"
)

// synthDigest is the SHA-256 of the little-endian float64 bits of every
// sample synthesizeCorpus renders, as the synthesizer wrote them when
// each word and noise pass drew from its own rand.New(rand.NewPCG(...)).
const synthDigest = "3fd67391673fb02e68d5e8e59ffa1ea2ebb5cb209b688639dc4e0c2fc2308556"

// synthesizeCorpus renders utterances over noise levels and seeds into
// one reused buffer, as a session does, and hashes the samples.
func synthesizeCorpus() string {
	utterances := [][]string{
		nil,
		{"on"},
		{"my", "password", "is", "tango", "seven"},
		{"turn", "on", "the", "light"},
		{"Weather", "TODAY", "please"},
	}
	h := sha256.New()
	var buf []float64
	var b [8]byte
	for _, noise := range []float64{0, 0.01, 0.3} {
		for seed := uint64(1); seed < 30; seed += 7 {
			v := DefaultVoice(seed*1_000_003 + 13)
			v.NoiseAmp = noise
			for _, words := range utterances {
				pcm := v.SynthesizeInto(buf, words)
				for _, s := range pcm.Samples {
					binary.LittleEndian.PutUint64(b[:], math.Float64bits(s))
					h.Write(b[:])
				}
				buf = pcm.Samples[:0]
			}
			for _, w := range []string{"password", "x"} {
				for _, s := range v.SynthesizeWord(w).Samples {
					binary.LittleEndian.PutUint64(b[:], math.Float64bits(s))
					h.Write(b[:])
				}
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestSynthesizeSamplesIdentity: the synthesizer's samples are bit for
// bit what they were before it drew from a PCG held by value.
func TestSynthesizeSamplesIdentity(t *testing.T) {
	if got := synthesizeCorpus(); got != synthDigest {
		t.Errorf("synthesized samples hash to %s, want %s", got, synthDigest)
	}
}

// TestUnitFloatIdentity: unitFloat over a PCG draws exactly what
// (*rand.Rand).Float64 over the same PCG draws, interleaved with Uint64
// draws as the word renderer makes them, for any seed.
func TestUnitFloatIdentity(t *testing.T) {
	for seed := uint64(0); seed < 64; seed++ {
		var src rand.PCG
		src.Seed(seed, seed^0x9e3779b97f4a7c15)
		ref := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
		for i := range 1000 {
			if i%97 == 0 {
				if got, want := src.Uint64(), ref.Uint64(); got != want {
					t.Fatalf("seed %d draw %d: Uint64 %d, want %d", seed, i, got, want)
				}
				continue
			}
			if got, want := unitFloat(&src), ref.Float64(); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %d draw %d: unitFloat %v, want Float64 %v", seed, i, got, want)
			}
		}
	}
}

// TestSynthesizeIntoAllocatesNothing: rendering an utterance into a
// buffer with the capacity allocates nothing, whatever the voice seed.
func TestSynthesizeIntoAllocatesNothing(t *testing.T) {
	v := DefaultVoice(1)
	words := []string{"my", "password", "is", "tango", "seven"}
	buf := v.Synthesize(words).Samples
	allocs := testing.AllocsPerRun(50, func() {
		v.Seed++
		buf = v.SynthesizeInto(buf[:0], words).Samples
	})
	if allocs != 0 {
		t.Errorf("SynthesizeInto allocates %v times per utterance, want 0", allocs)
	}
}
