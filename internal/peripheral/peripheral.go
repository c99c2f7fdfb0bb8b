// Package peripheral models the user-facing input devices of the paper's
// smart-home setup: an I2S digital microphone (the POC's primary target)
// and a simple camera. Both produce deterministic synthetic data so
// experiments are reproducible end to end.
package peripheral

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"sync"

	"repro/internal/audio"
	"repro/internal/i2s"
)

// Errors returned by the package.
var (
	// ErrNoSignal is returned when pumping a microphone with nothing loaded.
	ErrNoSignal = errors.New("peripheral: no signal loaded")
	// ErrRateMismatch is returned when loading a signal whose sample rate
	// differs from the unplayed remainder already queued.
	ErrRateMismatch = errors.New("peripheral: sample rate differs from queued signal")
	// ErrBadImage is returned for invalid image dimensions.
	ErrBadImage = errors.New("peripheral: invalid image")
)

// Microphone is an I2S digital microphone wired to a controller. Loading a
// PCM signal models sound reaching the diaphragm; Pump shifts the next
// samples onto the I2S bus (a real mic is clocked continuously; the pump
// granularity stands in for elapsed bus time).
type Microphone struct {
	ctrl *i2s.Controller

	mu     sync.Mutex
	format i2s.Format
	signal audio.PCM
	hold   *[]float64 // signal buffer holder, recycled with the buffer
	pos    int
	pushed uint64
}

// signalPool recycles microphone signal buffers across microphones. A
// buffer is leased by the Load that queues into an empty microphone and
// returned by the pump whose push drains it; only samples loaded during
// the current lease are ever read.
var signalPool sync.Pool

// pumpScratch is one PumpBytes call's quantized samples and their wire
// encoding, pooled across calls and microphones.
type pumpScratch struct {
	samples []int32
	wire    []byte
}

var pumpPool = sync.Pool{New: func() any { return new(pumpScratch) }}

// NewMicrophone wires a microphone to the controller with the format.
func NewMicrophone(ctrl *i2s.Controller, f i2s.Format) (*Microphone, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	if f.Channels != 1 {
		return nil, fmt.Errorf("%w: microphone is mono", i2s.ErrBadFormat)
	}
	return &Microphone{ctrl: ctrl, format: f}, nil
}

// Load queues a PCM signal behind any remaining samples. The samples are
// copied into the microphone's own buffer (compacted in place), so the
// caller may reuse p's backing slice immediately and repeated loads do
// not re-clone the queued remainder. A signal whose rate differs from a
// non-empty queued remainder is refused with ErrRateMismatch and the
// queue is left unchanged.
func (m *Microphone) Load(p audio.PCM) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.pos >= len(m.signal.Samples) {
		if m.hold == nil {
			if h, ok := signalPool.Get().(*[]float64); ok {
				m.hold, m.signal.Samples = h, *h
			}
		}
		m.signal.Rate = p.Rate
		m.signal.Samples = append(m.signal.Samples[:0], p.Samples...)
		m.pos = 0
		return nil
	}
	if m.signal.Rate != 0 && p.Rate != m.signal.Rate {
		return fmt.Errorf("%w: %d Hz behind %d Hz", ErrRateMismatch, p.Rate, m.signal.Rate)
	}
	// Compact the unplayed remainder to the front, then append — same
	// result as cloning remainder+new, without the quadratic re-copy.
	rem := copy(m.signal.Samples, m.signal.Samples[m.pos:])
	m.signal.Samples = append(m.signal.Samples[:rem], p.Samples...)
	m.signal.Rate = p.Rate
	m.pos = 0
	return nil
}

// releaseSignal returns the drained signal buffer to signalPool.
// Requires m.mu.
func (m *Microphone) releaseSignal() {
	if m.hold == nil {
		m.hold = new([]float64)
	}
	*m.hold = m.signal.Samples[:0]
	signalPool.Put(m.hold)
	m.hold, m.signal.Samples, m.pos = nil, nil, 0
}

// Remaining returns the number of unplayed samples.
func (m *Microphone) Remaining() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.signal.Samples) - m.pos
}

// PumpBytes shifts up to n bytes of encoded audio into the controller and
// returns the number of wire bytes pushed. Returns ErrNoSignal when the
// loaded signal is exhausted.
func (m *Microphone) PumpBytes(n int) (int, error) {
	m.mu.Lock()
	bpw := m.format.BytesPerWord()
	wantSamples := n / bpw
	avail := len(m.signal.Samples) - m.pos
	if avail <= 0 {
		m.mu.Unlock()
		return 0, ErrNoSignal
	}
	if wantSamples > avail {
		wantSamples = avail
	}
	if wantSamples == 0 {
		m.mu.Unlock()
		return 0, nil
	}
	chunk := m.signal.Samples[m.pos : m.pos+wantSamples]
	m.pos += wantSamples
	f := m.format
	// Quantize under the lock: chunk aliases the signal buffer, which a
	// concurrent Load may compact in place.
	sc := pumpPool.Get().(*pumpScratch)
	defer pumpPool.Put(sc)
	if cap(sc.samples) < len(chunk) {
		sc.samples = make([]int32, len(chunk))
	}
	samples := sc.samples[:len(chunk)]
	for i, s := range chunk {
		v := math.Round(s * 32768)
		if v > 32767 {
			v = 32767
		} else if v < -32768 {
			v = -32768
		}
		samples[i] = int32(v)
	}
	m.mu.Unlock()

	wire, err := i2s.EncodeFramesInto(sc.wire, samples, f)
	if err != nil {
		m.mu.Lock()
		m.pos -= wantSamples
		m.mu.Unlock()
		return 0, err
	}
	sc.wire = wire
	// PushWire runs outside m.mu: the controller copies the bytes into
	// its FIFO and may invoke the IRQ callback synchronously, which must
	// be free to call back into the microphone.
	pushErr := m.ctrl.PushWire(wire)
	m.mu.Lock()
	defer m.mu.Unlock()
	if pushErr != nil {
		// The receiver rejected the data (e.g. RX disabled); rewind so the
		// signal is not silently consumed.
		m.pos -= wantSamples
		return 0, pushErr
	}
	m.pushed += uint64(len(wire))
	if m.pos >= len(m.signal.Samples) {
		m.releaseSignal()
	}
	return len(wire), nil
}

// BytesPushed returns the total wire bytes delivered to the controller.
func (m *Microphone) BytesPushed() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.pushed
}

// Image is a grayscale frame with pixel values in [0,255].
type Image struct {
	W, H int
	Pix  []uint8
}

// NewImage allocates a zeroed frame.
func NewImage(w, h int) (Image, error) {
	if w <= 0 || h <= 0 {
		return Image{}, fmt.Errorf("%w: %dx%d", ErrBadImage, w, h)
	}
	return Image{W: w, H: h, Pix: make([]uint8, w*h)}, nil
}

// At returns the pixel at (x, y).
func (im Image) At(x, y int) uint8 { return im.Pix[y*im.W+x] }

// Set writes the pixel at (x, y).
func (im Image) Set(x, y int, v uint8) { im.Pix[y*im.W+x] = v }

// Floats returns the pixels normalized to [0,1].
func (im Image) Floats() []float32 {
	out := make([]float32, len(im.Pix))
	for i, p := range im.Pix {
		out[i] = float32(p) / 255
	}
	return out
}

// Scene labels what the synthetic camera sees.
type Scene int

const (
	// SceneEmpty is an unoccupied room: sensor noise and a weak gradient.
	SceneEmpty Scene = iota + 1
	// ScenePerson adds a bright person-like blob with a vertical torso
	// edge — the sensitive content the camera classifier must catch.
	ScenePerson
)

// String returns the scene name.
func (s Scene) String() string {
	switch s {
	case SceneEmpty:
		return "empty"
	case ScenePerson:
		return "person"
	default:
		return fmt.Sprintf("scene(%d)", int(s))
	}
}

// Sensitive reports whether the scene counts as sensitive content.
func (s Scene) Sensitive() bool { return s == ScenePerson }

// SynthesizeImage renders a deterministic 24x24 frame of the scene.
func SynthesizeImage(s Scene, seed uint64) Image {
	const size = 24
	rng := rand.New(rand.NewPCG(seed, uint64(s)*0x9e3779b97f4a7c15+1))
	im, _ := NewImage(size, size)
	// Base: sensor noise over a soft vertical illumination gradient.
	for y := 0; y < size; y++ {
		for x := 0; x < size; x++ {
			base := 40 + 40*float64(y)/size
			noise := rng.Float64() * 25
			im.Set(x, y, clampPix(base+noise))
		}
	}
	if s != ScenePerson {
		return im
	}
	// Person: head blob + torso column, position jittered per frame.
	cx := 8 + rng.IntN(8)
	cy := 6 + rng.IntN(4)
	for y := 0; y < size; y++ {
		for x := 0; x < size; x++ {
			dx, dy := float64(x-cx), float64(y-cy)
			head := 170 * math.Exp(-(dx*dx+dy*dy)/9)
			var torso float64
			if y > cy+2 && x >= cx-2 && x <= cx+2 {
				torso = 120
			}
			v := float64(im.At(x, y)) + head + torso
			im.Set(x, y, clampPix(v))
		}
	}
	return im
}

func clampPix(v float64) uint8 {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return uint8(v)
}

// Camera produces frames of queued scenes.
type Camera struct {
	mu     sync.Mutex
	queue  []Scene
	seed   uint64
	frames uint64
}

// NewCamera creates a camera with a deterministic seed.
func NewCamera(seed uint64) *Camera { return &Camera{seed: seed} }

// Queue appends scenes to capture.
func (c *Camera) Queue(scenes ...Scene) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.queue = append(c.queue, scenes...)
}

// Pending returns the number of queued scenes.
func (c *Camera) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.queue)
}

// Capture renders the next queued scene. The boolean is false when the
// queue is empty.
func (c *Camera) Capture() (Image, Scene, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.queue) == 0 {
		return Image{}, 0, false
	}
	s := c.queue[0]
	c.queue = c.queue[1:]
	c.frames++
	return SynthesizeImage(s, c.seed+c.frames), s, true
}
