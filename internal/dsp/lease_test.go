package dsp

// The frame scratch (FFT buffer, power spectrum, mel energies) is leased
// from a per-configuration free list instead of owned by each Extractor.
// These tests pin the lease rule: a leased buffer's old contents never
// reach a result, whoever used it last.

import (
	"math"
	"math/rand/v2"
	"sync"
	"testing"

	"repro/internal/audio"
	"repro/internal/lease"
)

// poisonFreeList leases lease.Bound frame scratch sets (the whole free
// list, then fresh ones), fills them with NaN, infinities and random
// garbage and hands them back, so the list is full and the next leases
// all start from poisoned buffers.
func poisonFreeList(t *testing.T, cfg MFCCConfig) {
	t.Helper()
	p, err := plansFor(cfg)
	if err != nil {
		t.Fatalf("plansFor: %v", err)
	}
	rng := rand.New(rand.NewPCG(3, 5))
	junk := func(i int) float64 {
		switch i % 4 {
		case 0:
			return math.NaN()
		case 1:
			return math.Inf(1 - 2*(i/4%2))
		default:
			return (rng.Float64()*2 - 1) * 1e300
		}
	}
	leased := make([]*frameScratch, lease.Bound)
	for k := range leased {
		s := p.free.Get()
		for i := range s.buf {
			s.buf[i] = complex(junk(i), junk(i+1))
		}
		for i := range s.ps {
			s.ps[i] = junk(i)
		}
		for i := range s.energies {
			s.energies[i] = junk(i)
		}
		leased[k] = s
	}
	for _, s := range leased {
		p.free.Put(s)
	}
}

func TestExtractorPoisonedScratchMatchesNaive(t *testing.T) {
	cfg := DefaultMFCCConfig(16000)
	window, banks := referenceSetup(t, cfg)
	ex, err := NewExtractor(cfg)
	if err != nil {
		t.Fatalf("NewExtractor: %v", err)
	}

	rng := rand.New(rand.NewPCG(7, 9))
	for trial := 0; trial < 5; trial++ {
		frame := make([]float64, cfg.FrameLen)
		for i := range frame {
			frame[i] = rng.Float64()*2 - 1
		}
		want, err := naiveFrame(cfg, window, banks, frame)
		if err != nil {
			t.Fatalf("naiveFrame: %v", err)
		}
		poisonFreeList(t, cfg)
		got, err := ex.Frame(frame)
		if err != nil {
			t.Fatalf("Frame: %v", err)
		}
		for i := range want {
			if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
				t.Fatalf("trial %d coeff %d: poisoned lease gave %v, naive %v", trial, i, got[i], want[i])
			}
		}
	}

	v := audio.DefaultVoice(21)
	for _, word := range []string{"password", "weather", "music"} {
		pcm := v.SynthesizeWord(word)
		want, err := naiveSignal(cfg, window, banks, pcm.Samples)
		if err != nil {
			t.Fatalf("naiveSignal: %v", err)
		}
		poisonFreeList(t, cfg)
		got, err := ex.Signal(pcm.Samples)
		if err != nil {
			t.Fatalf("Signal: %v", err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d frames, want %d", word, len(got), len(want))
		}
		for f := range want {
			for i := range want[f] {
				if math.Float64bits(want[f][i]) != math.Float64bits(got[f][i]) {
					t.Fatalf("%s frame %d coeff %d: poisoned lease gave %v, naive %v",
						word, f, i, got[f][i], want[f][i])
				}
			}
		}
	}
}

// TestExtractorInterleavedSignalsMatchSequential alternates Signal calls of
// two extractors on different signals, so each call leases the scratch the
// other extractor just released. Every result must equal the one from a
// fresh extractor run on its own.
func TestExtractorInterleavedSignalsMatchSequential(t *testing.T) {
	cfg := DefaultMFCCConfig(16000)
	v := audio.DefaultVoice(5)
	words := [2][]string{{"light", "music", "timer"}, {"password", "doctor", "weather"}}

	sequential := func(ws []string) [][][]float64 {
		ex, err := NewExtractor(cfg)
		if err != nil {
			t.Fatalf("NewExtractor: %v", err)
		}
		var out [][][]float64
		for _, w := range ws {
			frames, err := ex.Signal(v.SynthesizeWord(w).Samples)
			if err != nil {
				t.Fatalf("Signal(%s): %v", w, err)
			}
			out = append(out, copyFrames(frames))
		}
		return out
	}
	want := [2][][][]float64{sequential(words[0]), sequential(words[1])}

	var exs [2]*Extractor
	for k := range exs {
		ex, err := NewExtractor(cfg)
		if err != nil {
			t.Fatalf("NewExtractor: %v", err)
		}
		exs[k] = ex
	}
	for i := range words[0] {
		for k := range exs {
			got, err := exs[k].Signal(v.SynthesizeWord(words[k][i]).Samples)
			if err != nil {
				t.Fatalf("Signal: %v", err)
			}
			if !framesBitEqual(got, want[k][i]) {
				t.Fatalf("extractor %d word %q: interleaved result differs from the sequential one", k, words[k][i])
			}
		}
	}
}

// TestExtractorConcurrentSignalsMatchSequential runs extractors on several
// goroutines at once, all leasing from one free list (run it under -race).
func TestExtractorConcurrentSignalsMatchSequential(t *testing.T) {
	cfg := DefaultMFCCConfig(16000)
	v := audio.DefaultVoice(8)
	words := []string{"light", "music", "password", "doctor"}
	want := make([][][]float64, len(words))
	signals := make([][]float64, len(words))
	for i, w := range words {
		ex, err := NewExtractor(cfg)
		if err != nil {
			t.Fatalf("NewExtractor: %v", err)
		}
		signals[i] = v.SynthesizeWord(w).Samples
		frames, err := ex.Signal(signals[i])
		if err != nil {
			t.Fatalf("Signal(%s): %v", w, err)
		}
		want[i] = copyFrames(frames)
	}
	var wg sync.WaitGroup
	for g := range words {
		ex, err := NewExtractor(cfg)
		if err != nil {
			t.Fatalf("NewExtractor: %v", err)
		}
		wg.Add(1)
		go func(g int, ex *Extractor) {
			defer wg.Done()
			for round := 0; round < 8; round++ {
				i := (g + round) % len(words)
				got, err := ex.Signal(signals[i])
				if err != nil {
					t.Errorf("Signal(%s): %v", words[i], err)
					return
				}
				if !framesBitEqual(got, want[i]) {
					t.Errorf("goroutine %d round %d: %q differs from its sequential result", g, round, words[i])
					return
				}
			}
		}(g, ex)
	}
	wg.Wait()
}

func framesBitEqual(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for f := range a {
		for c := range a[f] {
			if math.Float64bits(a[f][c]) != math.Float64bits(b[f][c]) {
				return false
			}
		}
	}
	return true
}

func copyFrames(frames [][]float64) [][]float64 {
	out := make([][]float64, len(frames))
	for i, f := range frames {
		out[i] = append([]float64(nil), f...)
	}
	return out
}
