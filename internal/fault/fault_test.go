package fault

import (
	"errors"
	"testing"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/supplicant"
	"repro/internal/tz"
)

type countIngestor struct {
	calls int
}

func (c *countIngestor) IngestMeta(deviceID string, frame []byte, meta cloud.FrameMeta) ([]byte, error) {
	c.calls++
	return []byte("ok"), nil
}

func TestPlanValidation(t *testing.T) {
	cases := []PlanConfig{
		{},                                // Devices required
		{Devices: 8, DropRate: 1.5},       // rate outside [0,1]
		{Devices: 8, TouchFraction: -0.1}, // fraction outside [0,1]
		{Devices: 8, DropRate: 0.6, DuplicateRate: 0.6}, // rates sum > 1
		{Devices: 8, Crashes: -1},                       // negative crashes
	}
	for i, cfg := range cases {
		if _, err := NewPlan(cfg); !errors.Is(err, ErrBadPlan) {
			t.Errorf("case %d: want ErrBadPlan, got %v", i, err)
		}
	}
	if _, err := NewPlan(PlanConfig{Devices: 8}); err != nil {
		t.Fatalf("zero-rate plan must be valid: %v", err)
	}
}

// TestPlanDeterminism: the touched/slow/TEE sets, the crash schedule and
// every injector's decision stream are pure functions of the config.
func TestPlanDeterminism(t *testing.T) {
	cfg := PlanConfig{
		Devices: 64, TouchFraction: 0.5, DropRate: 0.2, DuplicateRate: 0.2,
		DelayRate: 0.1, ExpireRate: 0.1, SlowFraction: 0.25, TEEFraction: 0.25,
		Crashes: 3, Seed: 99,
	}
	a, err := NewPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	touched := 0
	for i := 0; i < cfg.Devices; i++ {
		if a.Touches(i) != b.Touches(i) || a.Slow(i) != b.Slow(i) || a.TEEFault(i) != b.TEEFault(i) {
			t.Fatalf("device %d membership diverged between identical plans", i)
		}
		if a.Touches(i) {
			touched++
		}
	}
	if touched != 32 {
		t.Fatalf("touched %d of 64 at fraction 0.5", touched)
	}
	pa, pb := a.CrashPoints(), b.CrashPoints()
	if len(pa) != cfg.Crashes || len(pb) != cfg.Crashes {
		t.Fatalf("crash points %v / %v, want %d each", pa, pb, cfg.Crashes)
	}
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("crash schedules diverged: %v vs %v", pa, pb)
		}
		if pa[i] <= 0 || pa[i] >= cfg.Devices {
			t.Fatalf("crash point %d outside the run", pa[i])
		}
		if i > 0 && pa[i] < pa[i-1] {
			t.Fatalf("crash points not ascending: %v", pa)
		}
	}

	// Drive one touched device's injector through both plans: the
	// decision sequences must match call for call.
	victim := -1
	for i := 0; i < cfg.Devices; i++ {
		if a.Touches(i) {
			victim = i
			break
		}
	}
	na, nb := &countIngestor{}, &countIngestor{}
	ia := a.Injector(victim, na, tz.NewClock())
	ib := b.Injector(victim, nb, tz.NewClock())
	for k := 0; k < 200; k++ {
		_, errA := ia.IngestMeta("device", nil, cloud.FrameMeta{Seq: uint64(k + 1)})
		_, errB := ib.IngestMeta("device", nil, cloud.FrameMeta{Seq: uint64(k + 1)})
		if (errA == nil) != (errB == nil) {
			t.Fatalf("call %d: verdicts diverged: %v vs %v", k, errA, errB)
		}
	}
	if na.calls != nb.calls {
		t.Fatalf("downstream call counts diverged: %d vs %d", na.calls, nb.calls)
	}
	sa, sb := a.Stats(), b.Stats()
	if sa != sb {
		t.Fatalf("plan stats diverged: %+v vs %+v", sa, sb)
	}
	if sa.Injected() == 0 {
		t.Fatal("200 deliveries at 60% injection rates injected nothing")
	}
}

// TestInjectorBlackhole: an expiry verdict swallows the delivery and the
// next core.RetryAttempts-1 calls — the whole retry schedule of one
// frame — then the stream resumes.
func TestInjectorBlackhole(t *testing.T) {
	p, err := NewPlan(PlanConfig{Devices: 1, TouchFraction: 1, ExpireRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	next := &countIngestor{}
	inj := p.Injector(0, next, tz.NewClock())
	for k := 0; k < 2*core.RetryAttempts; k++ {
		_, err := inj.IngestMeta("device", nil, cloud.FrameMeta{Seq: uint64(k + 1)})
		if !errors.Is(err, ErrInjectedDrop) || !errors.Is(err, supplicant.ErrTransient) {
			t.Fatalf("call %d: blackholed delivery misclassified: %v", k, err)
		}
	}
	if next.calls != 0 {
		t.Fatalf("blackhole leaked %d deliveries downstream", next.calls)
	}
	st := p.Stats()
	if st.Blackholes != 2 || st.Drops != 2*core.RetryAttempts {
		t.Fatalf("%d calls at ExpireRate 1: %+v (want 2 blackholes, %d drops)",
			2*core.RetryAttempts, st, 2*core.RetryAttempts)
	}
}

// TestUntouchedBypass: an untouched device's delivery path is the
// downstream ingestor itself — no wrapper, no shared RNG, no overhead.
func TestUntouchedBypass(t *testing.T) {
	p, err := NewPlan(PlanConfig{Devices: 4, TouchFraction: 0.25, DropRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	next := &countIngestor{}
	for i := 0; i < 4; i++ {
		if p.Touches(i) {
			continue
		}
		if got := p.Injector(i, next, tz.NewClock()); got != cloud.Ingestor(next) {
			t.Fatalf("untouched device %d got a wrapped path", i)
		}
	}
}
