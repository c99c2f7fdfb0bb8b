// Package dsp implements the signal-processing front end shared by the
// speech recognizer and the acoustic experiments: radix-2 FFT, window
// functions, mel filterbanks and MFCC extraction.
//
// MFCCs are the standard compact acoustic features used by small speech
// models — exactly the kind of front end a TEE-resident recognizer needs,
// since the paper's §V constrains in-TEE models to small memory footprints.
package dsp

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"sync"

	"repro/internal/lease"
)

// Errors returned by the package.
var (
	// ErrNotPowerOfTwo is returned by FFT for unsupported lengths.
	ErrNotPowerOfTwo = errors.New("dsp: length is not a power of two")
	// ErrBadConfig is returned for invalid MFCC configurations.
	ErrBadConfig = errors.New("dsp: invalid configuration")
)

// FFT computes the in-place radix-2 decimation-in-time fast Fourier
// transform of x. len(x) must be a power of two.
func FFT(x []complex128) error {
	n := len(x)
	if n == 0 || n&(n-1) != 0 {
		return fmt.Errorf("%w: %d", ErrNotPowerOfTwo, n)
	}
	// Bit-reversal permutation.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	// Butterflies.
	for length := 2; length <= n; length <<= 1 {
		ang := -2 * math.Pi / float64(length)
		wl := cmplx.Rect(1, ang)
		for i := 0; i < n; i += length {
			w := complex(1, 0)
			for j := 0; j < length/2; j++ {
				u := x[i+j]
				v := x[i+j+length/2] * w
				x[i+j] = u + v
				x[i+j+length/2] = u - v
				w *= wl
			}
		}
	}
	return nil
}

// IFFT computes the inverse FFT of x in place.
func IFFT(x []complex128) error {
	for i := range x {
		x[i] = cmplx.Conj(x[i])
	}
	if err := FFT(x); err != nil {
		return err
	}
	n := complex(float64(len(x)), 0)
	for i := range x {
		x[i] = cmplx.Conj(x[i]) / n
	}
	return nil
}

// Hann returns the n-point Hann window.
func Hann(n int) []float64 {
	w := make([]float64, n)
	if n == 1 {
		w[0] = 1
		return w
	}
	for i := range w {
		w[i] = 0.5 - 0.5*math.Cos(2*math.Pi*float64(i)/float64(n-1))
	}
	return w
}

// ApplyWindow multiplies frame by window element-wise into a new slice.
func ApplyWindow(frame, window []float64) []float64 {
	n := len(frame)
	if len(window) < n {
		n = len(window)
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		out[i] = frame[i] * window[i]
	}
	return out
}

// PowerSpectrum returns the one-sided power spectrum of a real frame,
// zero-padding to fftSize. Output has fftSize/2+1 bins.
func PowerSpectrum(frame []float64, fftSize int) ([]float64, error) {
	if fftSize == 0 || fftSize&(fftSize-1) != 0 {
		return nil, fmt.Errorf("%w: fft size %d", ErrNotPowerOfTwo, fftSize)
	}
	x := make([]complex128, fftSize)
	n := len(frame)
	if n > fftSize {
		n = fftSize
	}
	for i := 0; i < n; i++ {
		x[i] = complex(frame[i], 0)
	}
	if err := FFT(x); err != nil {
		return nil, err
	}
	out := make([]float64, fftSize/2+1)
	for i := range out {
		re, im := real(x[i]), imag(x[i])
		out[i] = (re*re + im*im) / float64(fftSize)
	}
	return out, nil
}

// HzToMel converts frequency to the mel scale (HTK formula).
func HzToMel(hz float64) float64 { return 2595 * math.Log10(1+hz/700) }

// MelToHz converts mel back to frequency.
func MelToHz(mel float64) float64 { return 700 * (math.Pow(10, mel/2595) - 1) }

// MelFilterbank builds numFilters triangular filters over an fftSize/2+1
// bin power spectrum for the given sample rate, spanning [fMin, fMax] Hz.
func MelFilterbank(numFilters, fftSize, sampleRate int, fMin, fMax float64) ([][]float64, error) {
	if numFilters <= 0 || fftSize <= 0 || sampleRate <= 0 {
		return nil, fmt.Errorf("%w: filters=%d fft=%d rate=%d", ErrBadConfig, numFilters, fftSize, sampleRate)
	}
	if fMax <= fMin || fMax > float64(sampleRate)/2 {
		return nil, fmt.Errorf("%w: band [%g,%g] with rate %d", ErrBadConfig, fMin, fMax, sampleRate)
	}
	nBins := fftSize/2 + 1
	melMin, melMax := HzToMel(fMin), HzToMel(fMax)
	// numFilters+2 equally spaced mel points.
	points := make([]int, numFilters+2)
	for i := range points {
		mel := melMin + (melMax-melMin)*float64(i)/float64(numFilters+1)
		hz := MelToHz(mel)
		points[i] = int(math.Floor((float64(fftSize) + 1) * hz / float64(sampleRate)))
		if points[i] >= nBins {
			points[i] = nBins - 1
		}
	}
	banks := make([][]float64, numFilters)
	for m := 1; m <= numFilters; m++ {
		f := make([]float64, nBins)
		lo, mid, hi := points[m-1], points[m], points[m+1]
		for k := lo; k < mid; k++ {
			if mid > lo {
				f[k] = float64(k-lo) / float64(mid-lo)
			}
		}
		for k := mid; k < hi; k++ {
			if hi > mid {
				f[k] = float64(hi-k) / float64(hi-mid)
			}
		}
		banks[m-1] = f
	}
	return banks, nil
}

// DCT2 computes the orthonormal DCT-II of x, keeping numCoeffs outputs.
func DCT2(x []float64, numCoeffs int) []float64 {
	n := len(x)
	if numCoeffs > n {
		numCoeffs = n
	}
	out := make([]float64, numCoeffs)
	for k := 0; k < numCoeffs; k++ {
		var sum float64
		for i := 0; i < n; i++ {
			sum += x[i] * math.Cos(math.Pi*float64(k)*(float64(i)+0.5)/float64(n))
		}
		scale := math.Sqrt(2 / float64(n))
		if k == 0 {
			scale = math.Sqrt(1 / float64(n))
		}
		out[k] = sum * scale
	}
	return out
}

// MFCCConfig configures MFCC extraction.
type MFCCConfig struct {
	SampleRate int
	FrameLen   int // samples per frame
	Hop        int // samples between frame starts
	FFTSize    int // power of two >= FrameLen
	NumFilters int
	NumCoeffs  int
	FMin, FMax float64
}

// DefaultMFCCConfig returns the extraction setup used by the recognizer:
// 25 ms frames, 10 ms hop, 26 mel filters, 13 coefficients at 16 kHz.
func DefaultMFCCConfig(rate int) MFCCConfig {
	return MFCCConfig{
		SampleRate: rate,
		FrameLen:   rate / 40,  // 25 ms
		Hop:        rate / 100, // 10 ms
		FFTSize:    512,
		NumFilters: 26,
		NumCoeffs:  13,
		FMin:       60,
		FMax:       float64(rate) / 2,
	}
}

// Validate checks the configuration.
func (c MFCCConfig) Validate() error {
	if c.SampleRate <= 0 || c.FrameLen <= 0 || c.Hop <= 0 {
		return fmt.Errorf("%w: rate/frame/hop", ErrBadConfig)
	}
	if c.FFTSize < c.FrameLen {
		return fmt.Errorf("%w: fft size %d < frame %d", ErrBadConfig, c.FFTSize, c.FrameLen)
	}
	if c.FFTSize&(c.FFTSize-1) != 0 {
		return fmt.Errorf("%w: fft size %d not power of two", ErrBadConfig, c.FFTSize)
	}
	if c.NumFilters <= 0 || c.NumCoeffs <= 0 || c.NumCoeffs > c.NumFilters {
		return fmt.Errorf("%w: filters=%d coeffs=%d", ErrBadConfig, c.NumFilters, c.NumCoeffs)
	}
	return nil
}

// Extractor computes MFCC vectors from PCM frames. It shares the
// precomputed window, FFT plan, flattened mel filterbank and DCT cosine
// table of its configuration, leases its per-frame working buffers from
// the configuration's free list, and owns only the buffers its results
// alias, so Frame and Signal perform zero heap allocations in steady
// state.
//
// The result buffers make an Extractor single-goroutine state: share the
// configuration, not the instance. Slices returned by Frame and Signal
// alias them and are only valid until the next Frame/Signal call;
// callers that retain vectors must copy them.
type Extractor struct {
	cfg   MFCCConfig
	plans *extractorPlans

	// Per-instance result storage: returned slices alias it.
	out    []float64   // Frame result, NumCoeffs
	feats  []float64   // flat per-signal MFCC storage (grown on demand)
	frames [][]float64 // Signal result headers into feats
}

// frameScratch is the working set one frame passes through: the FFT
// buffer, the one-sided power spectrum and the log mel energies. Nothing
// in it outlives a frame, so extractors lease it per Frame/Signal call
// instead of each owning one (a fleet builds an extractor per device).
//
// Lease rule: within a frame, every element of a leased buffer is written
// before it is read. frameInto fills buf completely (windowed samples,
// then zero padding), then ps completely from buf, then energies
// completely from ps, so a lease never observes what an earlier frame or
// another extractor left behind.
type frameScratch struct {
	buf      []complex128 // FFT working buffer, FFTSize
	ps       []float64    // one-sided power spectrum, FFTSize/2+1
	energies []float64    // log mel energies, NumFilters
}

// extractorPlans bundles the immutable precomputed state for one MFCC
// configuration (window, FFT plan, flattened filterbank and DCT table)
// with that configuration's free list of frame scratch. Plans carry no
// mutable state, so one set is shared by every extractor with the same
// configuration (a fleet creates thousands).
type extractorPlans struct {
	window []float64
	fft    *FFTPlan
	mel    *melPlan
	dct    *dctPlan
	free   lease.FreeList[*frameScratch]
}

var planCache sync.Map // MFCCConfig -> *extractorPlans

func plansFor(cfg MFCCConfig) (*extractorPlans, error) {
	if p, ok := planCache.Load(cfg); ok {
		return p.(*extractorPlans), nil
	}
	banks, err := MelFilterbank(cfg.NumFilters, cfg.FFTSize, cfg.SampleRate, cfg.FMin, cfg.FMax)
	if err != nil {
		return nil, err
	}
	fft, err := NewFFTPlan(cfg.FFTSize)
	if err != nil {
		return nil, err
	}
	plans := &extractorPlans{
		window: Hann(cfg.FrameLen),
		fft:    fft,
		mel:    newMelPlan(banks),
		dct:    newDCTPlan(cfg.NumFilters, cfg.NumCoeffs),
	}
	plans.free.New = func() *frameScratch {
		return &frameScratch{
			buf:      make([]complex128, cfg.FFTSize),
			ps:       make([]float64, cfg.FFTSize/2+1),
			energies: make([]float64, cfg.NumFilters),
		}
	}
	p, _ := planCache.LoadOrStore(cfg, plans)
	return p.(*extractorPlans), nil
}

// NewExtractor builds an extractor for the configuration.
func NewExtractor(cfg MFCCConfig) (*Extractor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	plans, err := plansFor(cfg)
	if err != nil {
		return nil, err
	}
	return &Extractor{
		cfg:   cfg,
		plans: plans,
		out:   make([]float64, min(cfg.NumCoeffs, cfg.NumFilters)),
	}, nil
}

// Config returns the extractor's configuration.
func (e *Extractor) Config() MFCCConfig { return e.cfg }

// Frame computes the MFCC vector of a single frame of FrameLen samples.
// The returned slice aliases the extractor's storage: it is valid until
// the next Frame or Signal call.
func (e *Extractor) Frame(frame []float64) ([]float64, error) {
	s := e.plans.free.Get()
	defer e.plans.free.Put(s)
	if err := e.frameInto(s, e.out, frame); err != nil {
		return nil, err
	}
	return e.out, nil
}

// frameInto runs window → FFT → power spectrum → mel filterbank → DCT
// into dst through the leased scratch s, without allocating.
func (e *Extractor) frameInto(s *frameScratch, dst, frame []float64) error {
	p := e.plans
	n := len(frame)
	if len(p.window) < n {
		n = len(p.window)
	}
	if n > e.cfg.FFTSize {
		n = e.cfg.FFTSize
	}
	for i := 0; i < n; i++ {
		s.buf[i] = complex(frame[i]*p.window[i], 0)
	}
	clear(s.buf[n:])
	if err := p.fft.Transform(s.buf); err != nil {
		return err
	}
	inv := float64(e.cfg.FFTSize)
	for i := range s.ps {
		re, im := real(s.buf[i]), imag(s.buf[i])
		s.ps[i] = (re*re + im*im) / inv
	}
	p.mel.apply(s.ps, s.energies)
	p.dct.apply(s.energies, dst)
	return nil
}

// Signal computes MFCC vectors for every frame of the sample stream.
// The returned vectors alias the extractor's storage: they are valid
// until the next Frame or Signal call.
func (e *Extractor) Signal(samples []float64) ([][]float64, error) {
	if len(samples) < e.cfg.FrameLen {
		return nil, nil
	}
	nFrames := (len(samples)-e.cfg.FrameLen)/e.cfg.Hop + 1
	nc := len(e.out)
	if cap(e.feats) < nFrames*nc {
		e.feats = make([]float64, nFrames*nc)
		e.frames = make([][]float64, nFrames)
	}
	e.feats = e.feats[:nFrames*nc]
	e.frames = e.frames[:nFrames]
	s := e.plans.free.Get()
	defer e.plans.free.Put(s)
	for f := 0; f < nFrames; f++ {
		i := f * e.cfg.Hop
		dst := e.feats[f*nc : (f+1)*nc]
		if err := e.frameInto(s, dst, samples[i:i+e.cfg.FrameLen]); err != nil {
			return nil, err
		}
		e.frames[f] = dst
	}
	return e.frames, nil
}

// MeanVector averages a sequence of equal-length vectors (e.g. the MFCC
// frames of one word) into a single template vector.
func MeanVector(vectors [][]float64) []float64 {
	if len(vectors) == 0 {
		return nil
	}
	out := make([]float64, len(vectors[0]))
	for _, v := range vectors {
		for i := range out {
			out[i] += v[i]
		}
	}
	for i := range out {
		out[i] /= float64(len(vectors))
	}
	return out
}

// EuclideanDistance returns the L2 distance between equal-length vectors.
func EuclideanDistance(a, b []float64) float64 {
	var sum float64
	for i := range a {
		d := a[i] - b[i]
		sum += d * d
	}
	return math.Sqrt(sum)
}
