package bus

import (
	"errors"
	"testing"

	"repro/internal/memory"
	"repro/internal/tz"
)

// regDevice is a tiny device with four scratch registers.
type regDevice struct {
	name string
	regs [4]uint32
}

func (d *regDevice) Name() string { return d.name }

func (d *regDevice) ReadReg(off uint32) (uint32, error) {
	i := off / 4
	if off%4 != 0 || i >= uint32(len(d.regs)) {
		return 0, ErrBadRegister
	}
	return d.regs[i], nil
}

func (d *regDevice) WriteReg(off uint32, val uint32) error {
	i := off / 4
	if off%4 != 0 || i >= uint32(len(d.regs)) {
		return ErrBadRegister
	}
	d.regs[i] = val
	return nil
}

func newTestBus(t *testing.T) (*Bus, *tz.Clock) {
	t.Helper()
	clock := tz.NewClock()
	return New(clock, tz.DefaultCostModel()), clock
}

func TestBusMapAndAccess(t *testing.T) {
	b, clock := newTestBus(t)
	dev := &regDevice{name: "scratch"}
	if err := b.Map(0x9000_0000, 0x100, false, dev); err != nil {
		t.Fatalf("Map: %v", err)
	}
	if err := b.Write32(tz.WorldNormal, 0x9000_0004, 0xabcd); err != nil {
		t.Fatalf("Write32: %v", err)
	}
	v, err := b.Read32(tz.WorldNormal, 0x9000_0004)
	if err != nil {
		t.Fatalf("Read32: %v", err)
	}
	if v != 0xabcd {
		t.Errorf("Read32 = %#x, want 0xabcd", v)
	}
	if clock.Now() == 0 {
		t.Error("MMIO accesses did not advance the clock")
	}
}

func TestBusNoDevice(t *testing.T) {
	b, _ := newTestBus(t)
	if _, err := b.Read32(tz.WorldNormal, 0x1234); !errors.Is(err, ErrNoDevice) {
		t.Errorf("Read32 = %v, want ErrNoDevice", err)
	}
	if err := b.Write32(tz.WorldNormal, 0x1234, 1); !errors.Is(err, ErrNoDevice) {
		t.Errorf("Write32 = %v, want ErrNoDevice", err)
	}
}

func TestBusMapConflict(t *testing.T) {
	b, _ := newTestBus(t)
	if err := b.Map(0x1000, 0x100, false, &regDevice{name: "a"}); err != nil {
		t.Fatalf("Map a: %v", err)
	}
	if err := b.Map(0x1080, 0x100, false, &regDevice{name: "b"}); !errors.Is(err, ErrMapConflict) {
		t.Errorf("overlapping Map = %v, want ErrMapConflict", err)
	}
	if err := b.Map(0x1100, 0, false, &regDevice{name: "c"}); !errors.Is(err, ErrMapConflict) {
		t.Errorf("zero-size Map = %v, want ErrMapConflict", err)
	}
}

func TestBusSecureDeviceProtection(t *testing.T) {
	b, _ := newTestBus(t)
	dev := &regDevice{name: "i2s"}
	if err := b.Map(0x2000, 0x100, true, dev); err != nil {
		t.Fatalf("Map: %v", err)
	}
	if _, err := b.Read32(tz.WorldNormal, 0x2000); !errors.Is(err, ErrSecureDevice) {
		t.Errorf("normal read of secure device = %v, want ErrSecureDevice", err)
	}
	if _, err := b.Read32(tz.WorldSecure, 0x2000); err != nil {
		t.Errorf("secure read of secure device failed: %v", err)
	}
	// Flip protection off: normal world may now access it.
	if err := b.SetSecure(0x2000, false); err != nil {
		t.Fatalf("SetSecure: %v", err)
	}
	if _, err := b.Read32(tz.WorldNormal, 0x2000); err != nil {
		t.Errorf("read after unprotect failed: %v", err)
	}
	if err := b.SetSecure(0xffff, true); !errors.Is(err, ErrNoDevice) {
		t.Errorf("SetSecure on unmapped = %v, want ErrNoDevice", err)
	}
}

func TestBusBadRegisterWrapped(t *testing.T) {
	b, _ := newTestBus(t)
	if err := b.Map(0x3000, 0x100, false, &regDevice{name: "d"}); err != nil {
		t.Fatalf("Map: %v", err)
	}
	if _, err := b.Read32(tz.WorldNormal, 0x3000+0x40); !errors.Is(err, ErrBadRegister) {
		t.Errorf("bad register read = %v, want ErrBadRegister", err)
	}
}

func TestBusDevices(t *testing.T) {
	b, _ := newTestBus(t)
	_ = b.Map(0x5000, 0x10, false, &regDevice{name: "later"})
	_ = b.Map(0x4000, 0x10, false, &regDevice{name: "earlier"})
	got := b.Devices()
	if len(got) != 2 || got[0] != "earlier" || got[1] != "later" {
		t.Errorf("Devices() = %v, want [earlier later]", got)
	}
}

// sliceFIFO implements FIFOSource over a byte slice.
type sliceFIFO struct{ data []byte }

func (s *sliceFIFO) PopInto(dst []byte) int {
	n := copy(dst, s.data)
	s.data = s.data[n:]
	return n
}

func (s *sliceFIFO) BytesAvailable() int { return len(s.data) }

func dmaFixture(t *testing.T) (*DMA, *memory.Platform, *tz.Clock) {
	t.Helper()
	p, err := memory.NewPlatform(memory.DefaultLayout())
	if err != nil {
		t.Fatalf("NewPlatform: %v", err)
	}
	clock := tz.NewClock()
	return NewDMA(clock, tz.DefaultCostModel(), p.Mem), p, clock
}

func TestDMAFromDevice(t *testing.T) {
	d, p, clock := dmaFixture(t)
	src := &sliceFIFO{data: []byte{1, 2, 3, 4, 5, 6, 7, 8}}
	dst := p.Layout.DRAMBase + 0x1000
	n, err := d.FromDevice(tz.WorldNormal, src, dst, 8)
	if err != nil {
		t.Fatalf("FromDevice: %v", err)
	}
	if n != 8 {
		t.Errorf("transferred %d, want 8", n)
	}
	got := make([]byte, 8)
	if err := p.Mem.ReadAt(tz.WorldNormal, dst, got); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	for i, v := range got {
		if v != byte(i+1) {
			t.Errorf("byte %d = %d, want %d", i, v, i+1)
		}
	}
	if clock.Now() == 0 {
		t.Error("DMA did not advance the clock")
	}
	if st := d.Stats(); st.Transfers != 1 || st.Bytes != 8 {
		t.Errorf("Stats = %+v", st)
	}
}

func TestDMAPartialAndEmpty(t *testing.T) {
	d, p, _ := dmaFixture(t)
	src := &sliceFIFO{data: []byte{9, 9}}
	dst := p.Layout.DRAMBase + 0x2000
	n, err := d.FromDevice(tz.WorldNormal, src, dst, 16)
	if err != nil || n != 2 {
		t.Errorf("partial FromDevice = (%d,%v), want (2,nil)", n, err)
	}
	n, err = d.FromDevice(tz.WorldNormal, src, dst, 16)
	if err != nil || n != 0 {
		t.Errorf("empty FromDevice = (%d,%v), want (0,nil)", n, err)
	}
	n, err = d.FromDevice(tz.WorldNormal, src, dst, 0)
	if err != nil || n != 0 {
		t.Errorf("zero-length FromDevice = (%d,%v), want (0,nil)", n, err)
	}
}

func TestDMANormalWorldCannotTargetSecureRAM(t *testing.T) {
	d, p, _ := dmaFixture(t)
	src := &sliceFIFO{data: make([]byte, 64)}
	dst := p.Layout.SecureBase + 0x100
	if _, err := d.FromDevice(tz.WorldNormal, src, dst, 64); !errors.Is(err, tz.ErrSecurityViolation) {
		t.Errorf("normal-world DMA into secure RAM = %v, want violation", err)
	}
	if st := d.Stats(); st.Faults != 1 {
		t.Errorf("Faults = %d, want 1", st.Faults)
	}
	// The same transfer programmed by the secure world succeeds.
	src2 := &sliceFIFO{data: make([]byte, 64)}
	if _, err := d.FromDevice(tz.WorldSecure, src2, dst, 64); err != nil {
		t.Errorf("secure-world DMA into secure RAM failed: %v", err)
	}
}
