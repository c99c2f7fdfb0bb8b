package fault

import (
	"errors"
	"testing"

	"repro/internal/cloud"
	"repro/internal/tz"
)

// FuzzPlanConfig drives plan compilation with arbitrary configurations.
// PlanConfig is the trust boundary a chaos run crosses when it takes
// rates from a CLI or a CI matrix, so NewPlan must never
// panic: every rejection is ErrBadPlan, and every accepted config
// compiles to a plan whose device sets are in range, internally
// consistent, deterministic across recompiles — and whose injectors
// replay the same decision stream call for call.
func FuzzPlanConfig(f *testing.F) {
	f.Add(8, 0.25, 0.1, 0.1, 0.1, 0.1, 0.25, 0.25, 2, uint64(7))
	f.Add(1, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0, uint64(0))
	f.Add(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0, uint64(0))  // Devices required
	f.Add(8, -0.1, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0, uint64(0)) // fraction out of range
	f.Add(8, 0.5, 0.6, 0.6, 0.0, 0.0, 0.0, 0.0, 0, uint64(0))  // rates sum > 1
	f.Add(8, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -3, uint64(0)) // negative crashes
	f.Fuzz(func(t *testing.T, devices int,
		touch, drop, dup, delay, expire, slowFrac, teeFrac float64,
		crashes int, seed uint64) {
		// Bound only the permutation allocation, never the validation
		// surface: negatives and zero must reach NewPlan to exercise the
		// Devices check.
		if devices > 4096 {
			devices = devices % 4096
		}
		cfg := PlanConfig{
			Devices:       devices,
			TouchFraction: touch,
			DropRate:      drop,
			DuplicateRate: dup,
			DelayRate:     delay,
			ExpireRate:    expire,
			SlowFraction:  slowFrac,
			TEEFraction:   teeFrac,
			Crashes:       crashes,
			Seed:          seed,
		}
		p, err := NewPlan(cfg)
		if err != nil {
			if !errors.Is(err, ErrBadPlan) {
				t.Fatalf("rejection not ErrBadPlan: %v", err)
			}
			return
		}
		got := p.Config()
		if got.Devices <= 0 || got.Seed == 0 {
			t.Fatalf("accepted config missing defaults: %+v", got)
		}
		if got.TouchFraction <= 0 || got.TouchFraction > 1 {
			t.Fatalf("accepted touch fraction %v outside (0,1]", got.TouchFraction)
		}
		if n := p.TouchedCount(); n < 0 || n > got.Devices {
			t.Fatalf("touched %d of %d devices", n, got.Devices)
		}
		touchedSet := 0
		for i := 0; i < got.Devices; i++ {
			if p.Touches(i) {
				touchedSet++
			}
			if (p.Slow(i) || p.TEEFault(i)) && !p.Touches(i) {
				t.Fatalf("device %d slow/TEE-faulted but untouched", i)
			}
		}
		if touchedSet != p.TouchedCount() {
			t.Fatalf("touched set %d devices, count says %d", touchedSet, p.TouchedCount())
		}
		pts := p.CrashPoints()
		if len(pts) != got.Crashes {
			t.Fatalf("%d crash points for %d crashes", len(pts), got.Crashes)
		}
		for i, pt := range pts {
			if pt < 1 || pt > got.Devices {
				t.Fatalf("crash point %d outside [1,%d]", pt, got.Devices)
			}
			if i > 0 && pt < pts[i-1] {
				t.Fatalf("crash points not ascending: %v", pts)
			}
		}

		// Recompile: membership, schedule and a touched injector's decision
		// stream must replay bit for bit.
		q, err := NewPlan(cfg)
		if err != nil {
			t.Fatalf("recompile of accepted config rejected: %v", err)
		}
		victim := -1
		for i := 0; i < got.Devices; i++ {
			if p.Touches(i) != q.Touches(i) || p.Slow(i) != q.Slow(i) || p.TEEFault(i) != q.TEEFault(i) {
				t.Fatalf("device %d membership diverged between identical plans", i)
			}
			if victim < 0 && p.Touches(i) {
				victim = i
			}
		}
		qpts := q.CrashPoints()
		for i := range pts {
			if pts[i] != qpts[i] {
				t.Fatalf("crash schedules diverged: %v vs %v", pts, qpts)
			}
		}
		if victim < 0 {
			return
		}
		np, nq := &countIngestor{}, &countIngestor{}
		cp, cq := tz.NewClock(), tz.NewClock()
		ip := p.Injector(victim, np, cp)
		iq := q.Injector(victim, nq, cq)
		for k := 0; k < 32; k++ {
			_, errP := ip.IngestMeta("device", nil, cloud.FrameMeta{Seq: uint64(k + 1)})
			_, errQ := iq.IngestMeta("device", nil, cloud.FrameMeta{Seq: uint64(k + 1)})
			if (errP == nil) != (errQ == nil) {
				t.Fatalf("call %d: verdicts diverged: %v vs %v", k, errP, errQ)
			}
		}
		if np.calls != nq.calls || p.Stats() != q.Stats() {
			t.Fatalf("injector streams diverged: %d/%d calls, %+v vs %+v",
				np.calls, nq.calls, p.Stats(), q.Stats())
		}
		if cp.Now() != cq.Now() {
			t.Fatalf("injected virtual time diverged: %d vs %d", cp.Now(), cq.Now())
		}
		if cp.Now() < 0 {
			t.Fatalf("injections ran virtual time backwards to %d", cp.Now())
		}
	})
}
