package kernel

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/memory"
	"repro/internal/tz"
)

// fakeDev is a scripted char device.
type fakeDev struct {
	opened  int
	closed  int
	reads   int
	payload []byte
	openErr error
}

func (f *fakeDev) DevOpen() error {
	if f.openErr != nil {
		return f.openErr
	}
	f.opened++
	return nil
}

func (f *fakeDev) DevRead(buf []byte) (int, error) {
	f.reads++
	return copy(buf, f.payload), nil
}

func (f *fakeDev) DevIoctl(cmd uint32, arg uint64) (uint64, error) {
	return uint64(cmd) + arg, nil
}

func (f *fakeDev) DevClose() error {
	f.closed++
	return nil
}

func newKernel(t *testing.T) (*Kernel, *tz.Clock) {
	t.Helper()
	clock := tz.NewClock()
	return New(clock, tz.DefaultCostModel(), nil), clock
}

func TestOpenReadClose(t *testing.T) {
	k, clock := newKernel(t)
	dev := &fakeDev{payload: []byte("pcm")}
	k.RegisterDevice("/dev/i2s0", dev)

	fd, err := k.Open("/dev/i2s0")
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	buf := make([]byte, 8)
	n, err := k.Read(fd, buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if n != 3 || string(buf[:n]) != "pcm" {
		t.Errorf("Read = %d %q", n, buf[:n])
	}
	res, err := k.Ioctl(fd, 10, 32)
	if err != nil || res != 42 {
		t.Errorf("Ioctl = (%d,%v), want (42,nil)", res, err)
	}
	if err := k.Close(fd); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if dev.opened != 1 || dev.closed != 1 || dev.reads != 1 {
		t.Errorf("device saw open=%d close=%d reads=%d", dev.opened, dev.closed, dev.reads)
	}
	st := k.Stats()
	if st.Opens != 1 || st.Reads != 1 || st.Ioctls != 1 || st.Closes != 1 {
		t.Errorf("stats = %+v", st)
	}
	if clock.Now() == 0 {
		t.Error("syscalls did not advance the clock")
	}
}

func TestOpenErrors(t *testing.T) {
	k, _ := newKernel(t)
	if _, err := k.Open("/dev/nope"); !errors.Is(err, ErrNoSuchDevice) {
		t.Errorf("Open missing = %v", err)
	}
	boom := errors.New("hw fault")
	k.RegisterDevice("/dev/bad", &fakeDev{openErr: boom})
	if _, err := k.Open("/dev/bad"); !errors.Is(err, boom) {
		t.Errorf("Open error = %v, want wrapped hw fault", err)
	}
}

func TestBadFD(t *testing.T) {
	k, _ := newKernel(t)
	if _, err := k.Read(99, make([]byte, 4)); !errors.Is(err, ErrBadFD) {
		t.Errorf("Read bad fd = %v", err)
	}
	if _, err := k.Ioctl(99, 1, 2); !errors.Is(err, ErrBadFD) {
		t.Errorf("Ioctl bad fd = %v", err)
	}
	if err := k.Close(99); !errors.Is(err, ErrBadFD) {
		t.Errorf("Close bad fd = %v", err)
	}
}

func TestCloseInvalidatesFD(t *testing.T) {
	k, _ := newKernel(t)
	k.RegisterDevice("/dev/d", &fakeDev{})
	fd, err := k.Open("/dev/d")
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := k.Close(fd); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := k.Read(fd, nil); !errors.Is(err, ErrBadFD) {
		t.Errorf("Read after close = %v", err)
	}
}

func TestUnregisterDevice(t *testing.T) {
	k, _ := newKernel(t)
	k.RegisterDevice("/dev/x", &fakeDev{})
	if len(k.Devices()) != 1 {
		t.Fatal("device not registered")
	}
	k.UnregisterDevice("/dev/x")
	if len(k.Devices()) != 0 {
		t.Fatal("device not unregistered")
	}
	if _, err := k.Open("/dev/x"); !errors.Is(err, ErrNoSuchDevice) {
		t.Errorf("Open after unregister = %v", err)
	}
}

func TestIRQDispatch(t *testing.T) {
	k, clock := newKernel(t)
	fired := 0
	k.RegisterIRQ(42, func() { fired++ })
	before := clock.Now()
	if err := k.RaiseIRQ(42); err != nil {
		t.Fatalf("RaiseIRQ: %v", err)
	}
	if fired != 1 {
		t.Errorf("handler fired %d times", fired)
	}
	if clock.Now() == before {
		t.Error("IRQ did not advance the clock")
	}
	if err := k.RaiseIRQ(7); !errors.Is(err, ErrNoIRQHandler) {
		t.Errorf("unclaimed IRQ = %v", err)
	}
	if st := k.Stats(); st.IRQs != 1 {
		t.Errorf("IRQs = %d", st.IRQs)
	}
}

func TestDmesg(t *testing.T) {
	k, _ := newKernel(t)
	k.Logf("probing %s", "i2s0")
	k.RegisterDevice("/dev/i2s0", &fakeDev{})
	log := k.Dmesg()
	if len(log) != 2 {
		t.Fatalf("dmesg has %d lines", len(log))
	}
	if !strings.Contains(log[0], "probing i2s0") {
		t.Errorf("dmesg[0] = %q", log[0])
	}
	if !strings.Contains(log[1], "registered device /dev/i2s0") {
		t.Errorf("dmesg[1] = %q", log[1])
	}
}

func TestSnooperReadsNormalBlockedOnSecure(t *testing.T) {
	p, err := memory.NewPlatform(memory.DefaultLayout())
	if err != nil {
		t.Fatalf("NewPlatform: %v", err)
	}
	// Plant "audio" in normal DRAM and in the secure carve-out.
	normalAddr := p.Layout.DRAMBase + 0x5000
	secureAddr := p.Layout.SecureBase + 0x5000
	secret := []byte("the user said: password tuesday")
	if err := p.Mem.WriteAt(tz.WorldNormal, normalAddr, secret); err != nil {
		t.Fatalf("WriteAt normal: %v", err)
	}
	if err := p.Mem.WriteAt(tz.WorldSecure, secureAddr, secret); err != nil {
		t.Fatalf("WriteAt secure: %v", err)
	}

	s := NewSnooper(p.Mem)
	got := s.Capture(normalAddr, len(secret))
	if got.Blocked {
		t.Fatal("snooper blocked on normal DRAM")
	}
	if string(got.Got) != string(secret) {
		t.Errorf("snooper read %q", got.Got)
	}
	blocked := s.Capture(secureAddr, len(secret))
	if !blocked.Blocked {
		t.Fatal("snooper NOT blocked on secure carve-out")
	}
	if len(blocked.Got) != 0 {
		t.Error("blocked capture returned data")
	}
}

func TestSnooperCaptureAll(t *testing.T) {
	p, err := memory.NewPlatform(memory.DefaultLayout())
	if err != nil {
		t.Fatalf("NewPlatform: %v", err)
	}
	s := NewSnooper(p.Mem)
	results := s.CaptureAll([]struct {
		Addr uint64
		Size int
	}{
		{p.Layout.DRAMBase, 16},
		{p.Layout.SecureBase, 16},
	})
	if len(results) != 2 {
		t.Fatalf("got %d results", len(results))
	}
	if results[0].Blocked || !results[1].Blocked {
		t.Errorf("blocked flags = %v,%v, want false,true", results[0].Blocked, results[1].Blocked)
	}
}

// TestDeniedSnoopAllocatesNothing: the compromised OS sweeps a device's
// capture buffer once per group, so a denied snoop must cost no
// allocation. The denial still counts as a TZASC violation, and the
// access checker's error still wraps ErrSecurityViolation.
func TestDeniedSnoopAllocatesNothing(t *testing.T) {
	p, err := memory.NewPlatform(memory.DefaultLayout())
	if err != nil {
		t.Fatalf("NewPlatform: %v", err)
	}
	s := NewSnooper(p.Mem)
	addr := p.Layout.SecureBase + 0x5000
	before := p.ASC.Violations()
	allocs := testing.AllocsPerRun(100, func() {
		if !s.Capture(addr, 64).Blocked {
			t.Fatal("snooper NOT blocked on secure carve-out")
		}
	})
	if allocs != 0 {
		t.Errorf("denied snoop allocates %v times, want 0", allocs)
	}
	// AllocsPerRun makes one warm-up call besides its 100 runs.
	if got := p.ASC.Violations() - before; got != 101 {
		t.Errorf("%d violations for 101 denied snoops", got)
	}
	if err := p.Mem.Check(tz.WorldNormal, addr, 64); !errors.Is(err, tz.ErrSecurityViolation) {
		t.Errorf("Check = %v, want ErrSecurityViolation", err)
	}
}
