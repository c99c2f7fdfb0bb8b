// Package i2s models the Inter-IC Sound (I2S) serial bus [Philips I2S bus
// specification]: the three-wire link (SCK bit clock, WS word select, SD
// serial data), the frame layout used by digital microphones, and a
// receive-side controller with a sample FIFO that a DMA engine or a
// programmed-I/O driver drains.
//
// The paper's proof of concept targets I2S microphones because the protocol
// is lightweight; this package reproduces the protocol faithfully enough
// that the driver above it performs the same work a real capture driver
// does: clock configuration, frame decoding, FIFO watermark handling and
// overrun accounting.
package i2s

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/lease"
)

// Errors returned by the package.
var (
	// ErrBadFormat is returned for unsupported stream formats.
	ErrBadFormat = errors.New("i2s: unsupported format")
	// ErrShortFrame is returned when decoding truncated wire data.
	ErrShortFrame = errors.New("i2s: short frame")
	// ErrControllerOff is returned when pushing into a disabled controller.
	ErrControllerOff = errors.New("i2s: controller disabled")
)

// Format describes an I2S stream.
type Format struct {
	// SampleRate in Hz (e.g. 16000).
	SampleRate int
	// BitsPerSample is the word length: 16, 24 or 32.
	BitsPerSample int
	// Channels is 1 (left only, as with a single PDM/I2S mic) or 2.
	Channels int
}

// Validate checks the format against what the controller supports.
func (f Format) Validate() error {
	switch f.BitsPerSample {
	case 16, 24, 32:
	default:
		return fmt.Errorf("%w: %d bits per sample", ErrBadFormat, f.BitsPerSample)
	}
	if f.Channels != 1 && f.Channels != 2 {
		return fmt.Errorf("%w: %d channels", ErrBadFormat, f.Channels)
	}
	if f.SampleRate < 8000 || f.SampleRate > 192000 {
		return fmt.Errorf("%w: sample rate %d", ErrBadFormat, f.SampleRate)
	}
	return nil
}

// BytesPerWord returns the on-wire size of one sample word.
func (f Format) BytesPerWord() int { return f.BitsPerSample / 8 }

// FrameBytes returns the on-wire size of one frame (all channels).
func (f Format) FrameBytes() int { return f.BytesPerWord() * f.Channels }

// BitClockHz returns the SCK frequency for the format: the I2S bit clock
// runs at SampleRate * BitsPerSample * 2 (WS alternates per channel slot,
// stereo framing even for mono data per the Philips specification).
func (f Format) BitClockHz() int { return f.SampleRate * f.BitsPerSample * 2 }

// DefaultFormat is the capture format used across the experiments:
// 16 kHz mono 16-bit, the standard far-field voice capture configuration.
func DefaultFormat() Format {
	return Format{SampleRate: 16000, BitsPerSample: 16, Channels: 1}
}

// EncodeFrames serializes samples into I2S wire bytes. Samples are signed
// and carried MSB-first, left-justified in the word slot with the 1-bit WS
// delay already normalized away (we model the byte-level payload a
// controller's shift register delivers after alignment). For stereo
// formats, samples must interleave L,R,L,R...
func EncodeFrames(samples []int32, f Format) ([]byte, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	if len(samples)%f.Channels != 0 {
		return nil, fmt.Errorf("%w: %d samples not a multiple of %d channels",
			ErrBadFormat, len(samples), f.Channels)
	}
	bpw := f.BytesPerWord()
	return encodeFramesInto(make([]byte, len(samples)*bpw), samples, f), nil
}

// EncodeFramesInto is EncodeFrames into dst's capacity, reusing it when
// large enough so steady-state encode loops do not allocate.
func EncodeFramesInto(dst []byte, samples []int32, f Format) ([]byte, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	if len(samples)%f.Channels != 0 {
		return nil, fmt.Errorf("%w: %d samples not a multiple of %d channels",
			ErrBadFormat, len(samples), f.Channels)
	}
	n := len(samples) * f.BytesPerWord()
	if cap(dst) < n {
		dst = make([]byte, n)
	}
	return encodeFramesInto(dst[:n], samples, f), nil
}

// encodeFramesInto writes the wire encoding of samples into out, which
// must be len(samples)*BytesPerWord() long. The 16-bit layout gets a
// direct two-byte store; other widths take the generic MSB-first loop.
func encodeFramesInto(out []byte, samples []int32, f Format) []byte {
	bpw := f.BytesPerWord()
	if bpw == 2 && f.BitsPerSample == 16 {
		for i, s := range samples {
			u := uint32(s) << 16
			out[2*i] = byte(u >> 24)
			out[2*i+1] = byte(u >> 16)
		}
		return out
	}
	shift := 32 - uint(f.BitsPerSample)
	for i, s := range samples {
		u := uint32(s) << shift // left-justify in 32-bit slot
		for b := 0; b < bpw; b++ {
			out[i*bpw+b] = byte(u >> (24 - 8*uint(b))) // MSB first
		}
	}
	return out
}

// DecodeFrames parses wire bytes back into signed samples.
func DecodeFrames(wire []byte, f Format) ([]int32, error) {
	return DecodeFramesInto(nil, wire, f)
}

// DecodeFramesInto is DecodeFrames appending into dst[:0], reusing its
// capacity so steady-state decode loops do not allocate.
func DecodeFramesInto(dst []int32, wire []byte, f Format) ([]int32, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	bpw := f.BytesPerWord()
	if len(wire)%bpw != 0 {
		return nil, fmt.Errorf("%w: %d bytes with %d-byte words", ErrShortFrame, len(wire), bpw)
	}
	n := len(wire) / bpw
	if cap(dst) < n {
		dst = make([]int32, 0, n)
	}
	out := dst[:n]
	if bpw == 2 && f.BitsPerSample == 16 {
		for i := range out {
			u := uint32(wire[2*i])<<24 | uint32(wire[2*i+1])<<16
			out[i] = int32(u) >> 16
		}
		return out, nil
	}
	shift := 32 - uint(f.BitsPerSample)
	for i := range out {
		var u uint32
		for b := 0; b < bpw; b++ {
			u |= uint32(wire[i*bpw+b]) << (24 - 8*uint(b))
		}
		// Arithmetic shift right to sign-extend from the left-justified slot.
		out[i] = int32(u) >> shift
	}
	return out, nil
}

// fifo is a bounded byte ring buffer. The backing storage grows on
// demand up to the configured capacity, so a controller configured with
// a generous FIFO (the simulator uses 1 MiB to stand in for real-time
// pacing) only pays for the bytes actually buffered.
//
// An empty FIFO holds no ring: the first push leases one from ringFree
// and the pop that drains the FIFO returns it. A fleet builds a fresh
// controller per device, so recycled rings spare every device after the
// first the 256 B → 1 MiB doubling chain. Only bytes pushed during the
// current lease are ever read back (start and n bound every read).
type fifo struct {
	buf      []byte
	start    int
	n        int
	capacity int
}

// ringFree recycles FIFO rings across controllers.
var ringFree lease.FreeList[[]byte]

func newFIFO(capacity int) *fifo { return &fifo{capacity: capacity} }

// grow re-linearizes the ring into a larger backing slice. An empty FIFO
// first tries a recycled ring.
func (q *fifo) grow(need int) {
	if q.buf == nil {
		if ring := ringFree.Get(); ring != nil {
			if len(ring) >= need && len(ring) <= q.capacity {
				q.buf, q.start = ring, 0
				return
			}
			ringFree.Put(ring)
		}
	}
	size := len(q.buf) * 2
	if size == 0 {
		size = 256
	}
	for size < need {
		size *= 2
	}
	if size > q.capacity {
		size = q.capacity
	}
	nb := make([]byte, size)
	if q.n > 0 {
		end := q.start + q.n
		if end <= len(q.buf) {
			copy(nb, q.buf[q.start:end])
		} else {
			first := copy(nb, q.buf[q.start:])
			copy(nb[first:], q.buf[:end-len(q.buf)])
		}
	}
	q.buf = nb
	q.start = 0
}

// release returns the ring to ringFree and empties the FIFO.
func (q *fifo) release() {
	if q.buf != nil {
		ringFree.Put(q.buf)
	}
	q.buf, q.start, q.n = nil, 0, 0
}

// push appends b, returning the number of bytes that did NOT fit (overrun).
func (q *fifo) push(b []byte) int {
	space := q.capacity - q.n
	take := len(b)
	if take > space {
		take = space
	}
	if take == 0 {
		return len(b)
	}
	if q.n+take > len(q.buf) {
		q.grow(q.n + take)
	}
	head := (q.start + q.n) % len(q.buf)
	first := copy(q.buf[head:], b[:take])
	copy(q.buf, b[first:take])
	q.n += take
	return len(b) - take
}

// popInto moves up to len(dst) bytes into dst and returns the count. The
// pop that drains the FIFO releases its ring.
func (q *fifo) popInto(dst []byte) int {
	n := min(len(dst), q.n)
	if n == 0 {
		return 0
	}
	first := copy(dst[:n], q.buf[q.start:])
	copy(dst[first:n], q.buf[:n-first])
	q.start = (q.start + n) % len(q.buf)
	q.n -= n
	if q.n == 0 {
		q.release()
	}
	return n
}

func (q *fifo) len() int { return q.n }

func (q *fifo) cap() int { return q.capacity }

// Register offsets of the controller's MMIO window.
const (
	RegCtrl      = 0x00 // control: bit0 RX enable, bit1 IRQ enable
	RegStatus    = 0x04 // status: bits see Status* masks
	RegFIFOData  = 0x08 // pops one 32-bit word from the RX FIFO
	RegFIFOLevel = 0x0c // bytes currently in the FIFO
	RegClkCfg    = 0x10 // write: encoded format; read: last value
	RegWatermark = 0x14 // IRQ threshold in bytes
	RegOverruns  = 0x18 // overrun event count (read clears on real HW; we keep)
	RegAux       = 0x1c // auxiliary block register (gain/spdif/hdmi scratch)
	RegSize      = 0x20
)

// Control register bits.
const (
	CtrlRXEnable  = 1 << 0
	CtrlIRQEnable = 1 << 1
)

// Status register bits.
const (
	StatusRXActive   = 1 << 0
	StatusFIFONotEmp = 1 << 1
	StatusOverrun    = 1 << 2
)

// ControllerStats snapshots controller activity.
type ControllerStats struct {
	FramesIn     uint64
	BytesIn      uint64
	BytesDropped uint64 // lost to FIFO overrun
	Overruns     uint64 // overrun events
	IRQs         uint64
}

// Controller is the SoC-side I2S receive controller. It implements
// bus.Device (register file) and bus.FIFOSource (DMA drain).
//
// Data path: a transmitter (the microphone) pushes wire bytes with
// PushWire; bytes land in the RX FIFO; the driver drains them either via
// DMA (PopInto) or programmed I/O (RegFIFOData reads). When the FIFO
// level crosses the watermark and IRQs are enabled, the IRQ callback fires.
type Controller struct {
	name string

	mu        sync.Mutex
	ctrl      uint32
	aux       uint32
	clkCfg    uint32
	watermark int
	format    Format
	rx        *fifo
	stats     ControllerStats
	irq       func() // called with mu held released
}

// NewController creates a controller with the given FIFO capacity in bytes.
// Real controllers have small FIFOs (tens to hundreds of bytes); the DMA
// buffer, not the FIFO, provides bulk buffering.
func NewController(name string, fifoBytes int) *Controller {
	if fifoBytes <= 0 {
		fifoBytes = 256
	}
	return &Controller{
		name:      name,
		rx:        newFIFO(fifoBytes),
		watermark: fifoBytes / 2,
		format:    DefaultFormat(),
	}
}

// Name implements bus.Device.
func (c *Controller) Name() string { return c.name }

// SetIRQHandler installs the interrupt callback (watermark crossing).
func (c *Controller) SetIRQHandler(h func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.irq = h
}

// SetFormat configures the stream format (driver "hw_params" stage).
func (c *Controller) SetFormat(f Format) error {
	if err := f.Validate(); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.format = f
	c.clkCfg = encodeClkCfg(f)
	return nil
}

// Format returns the configured stream format.
func (c *Controller) Format() Format {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.format
}

func encodeClkCfg(f Format) uint32 {
	return uint32(f.SampleRate/25)&0xffff | uint32(f.BitsPerSample)<<16 | uint32(f.Channels)<<24
}

func decodeClkCfg(v uint32) Format {
	return Format{
		SampleRate:    int(v&0xffff) * 25,
		BitsPerSample: int(v >> 16 & 0xff),
		Channels:      int(v >> 24 & 0xff),
	}
}

// ReadReg implements bus.Device.
func (c *Controller) ReadReg(off uint32) (uint32, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch off {
	case RegCtrl:
		return c.ctrl, nil
	case RegStatus:
		var s uint32
		if c.ctrl&CtrlRXEnable != 0 {
			s |= StatusRXActive
		}
		if c.rx.len() > 0 {
			s |= StatusFIFONotEmp
		}
		if c.stats.Overruns > 0 {
			s |= StatusOverrun
		}
		return s, nil
	case RegFIFOData:
		var b [4]byte
		n := c.rx.popInto(b[:])
		var v uint32
		for i, x := range b[:n] {
			v |= uint32(x) << (24 - 8*uint(i))
		}
		return v, nil
	case RegFIFOLevel:
		return uint32(c.rx.len()), nil
	case RegClkCfg:
		return c.clkCfg, nil
	case RegWatermark:
		return uint32(c.watermark), nil
	case RegOverruns:
		return uint32(c.stats.Overruns), nil
	case RegAux:
		return c.aux, nil
	default:
		return 0, fmt.Errorf("i2s %s: read off %#x: unknown register", c.name, off)
	}
}

// WriteReg implements bus.Device.
func (c *Controller) WriteReg(off uint32, val uint32) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch off {
	case RegCtrl:
		c.ctrl = val & (CtrlRXEnable | CtrlIRQEnable)
		return nil
	case RegClkCfg:
		f := decodeClkCfg(val)
		if err := f.Validate(); err != nil {
			return err
		}
		c.clkCfg = val
		c.format = f
		return nil
	case RegWatermark:
		if int(val) > c.rx.cap() {
			return fmt.Errorf("i2s %s: watermark %d beyond fifo %d", c.name, val, c.rx.cap())
		}
		c.watermark = int(val)
		return nil
	case RegAux:
		c.aux = val
		return nil
	default:
		return fmt.Errorf("i2s %s: write off %#x: unknown register", c.name, off)
	}
}

// Enabled reports whether RX is enabled.
func (c *Controller) Enabled() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ctrl&CtrlRXEnable != 0
}

// PushWire is the transmitter-side entry: the microphone shifts wire bytes
// into the controller. Overrunning bytes are dropped and counted, exactly
// as a real controller loses samples when the CPU/DMA falls behind.
func (c *Controller) PushWire(wire []byte) error {
	c.mu.Lock()
	if c.ctrl&CtrlRXEnable == 0 {
		c.mu.Unlock()
		return ErrControllerOff
	}
	dropped := c.rx.push(wire)
	c.stats.FramesIn += uint64(len(wire) / c.format.FrameBytes())
	c.stats.BytesIn += uint64(len(wire) - dropped)
	if dropped > 0 {
		c.stats.BytesDropped += uint64(dropped)
		c.stats.Overruns++
	}
	fireIRQ := c.ctrl&CtrlIRQEnable != 0 && c.rx.len() >= c.watermark && c.irq != nil
	irq := c.irq
	if fireIRQ {
		c.stats.IRQs++
	}
	c.mu.Unlock()
	if fireIRQ {
		irq()
	}
	return nil
}

// PopInto implements bus.FIFOSource for DMA drains: it moves up to
// len(dst) bytes from the RX FIFO into dst and returns the count.
func (c *Controller) PopInto(dst []byte) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rx.popInto(dst)
}

// PopBytes removes up to n bytes from the RX FIFO into a new slice.
func (c *Controller) PopBytes(n int) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]byte, min(n, c.rx.len()))
	c.rx.popInto(out)
	return out
}

// BytesAvailable implements bus.FIFOSource.
func (c *Controller) BytesAvailable() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rx.len()
}

// Stats returns a snapshot of controller activity.
func (c *Controller) Stats() ControllerStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Reset disables the controller and clears FIFO and counters.
func (c *Controller) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ctrl = 0
	c.rx.release()
	c.stats = ControllerStats{}
}
