// Package experiments implements the evaluation suite E1–E18 listed in
// docs/ARCHITECTURE.md ("Experiments"): the evaluation the paper
// promises but does not report (it is a doctoral-forum proposal; §III
// states experiments are future work). Each experiment returns both
// structured results and renderable tables/figures; cmd/periguard-bench
// prints them and bench_test.go wraps them as Go benchmarks.
//
// All experiments are deterministic for a fixed seed: latencies are
// virtual cycles from the platform cost model, not wall-clock noise.
package experiments

import (
	"fmt"
	"time"

	"repro/internal/audio"
	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/ftrace"
	"repro/internal/i2s"
	"repro/internal/memory"
	"repro/internal/ml/classify"
	"repro/internal/peripheral"
	"repro/internal/relay"
	"repro/internal/sensitive"
	"repro/internal/tz"
)

// DefaultSeed fixes the whole suite.
const DefaultSeed uint64 = 42

// FreqHz is the modelled core frequency, tz.FreqHz.
const FreqHz = tz.FreqHz

// cyclesToUs converts virtual cycles to microseconds at FreqHz.
func cyclesToUs(c float64) float64 { return c / (FreqHz / 1e6) }

// sessionWorkload is the standard labelled utterance mix.
func sessionWorkload(n int, seed uint64) ([]sensitive.Utterance, error) {
	return sensitive.Generate(sensitive.GenConfig{
		N: n, SensitiveFraction: 0.4, Seed: seed,
	})
}

// driverRig is a standalone capture stack in one world (E2/E6 use it
// without the full pipeline).
type driverRig struct {
	Clock  *tz.Clock
	Plat   *memory.Platform
	Ctrl   *i2s.Controller
	Drv    *driver.SoundDriver
	Mic    *peripheral.Microphone
	Tracer *ftrace.Tracer
}

const rigCtrlBase = 0x7000_9000

func newDriverRig(world tz.World, bufBytes int) (*driverRig, error) {
	plat, err := memory.NewPlatform(memory.DefaultLayout())
	if err != nil {
		return nil, err
	}
	clock := tz.NewClock()
	cost := tz.DefaultCostModel()
	b := bus.New(clock, cost)
	ctrl := i2s.NewController("i2s0", 1<<18)
	if err := b.Map(rigCtrlBase, i2s.RegSize, world == tz.WorldSecure, ctrl); err != nil {
		return nil, err
	}
	heap := plat.DMAHeap
	if world == tz.WorldSecure {
		heap = plat.SecureHeap
	}
	tracer := ftrace.New(clock)
	drv, err := driver.New(driver.Config{
		Name:     "i2s0-" + world.String(),
		World:    world,
		Bus:      b,
		Ctrl:     ctrl,
		CtrlBase: rigCtrlBase,
		DMA:      bus.NewDMA(clock, cost, plat.Mem),
		Mem:      plat.Mem,
		Heap:     heap,
		Clock:    clock,
		Cost:     cost,
		Tracer:   tracer,
		BufBytes: bufBytes,
	})
	if err != nil {
		return nil, err
	}
	mic, err := peripheral.NewMicrophone(ctrl, i2s.DefaultFormat())
	if err != nil {
		return nil, err
	}
	return &driverRig{Clock: clock, Plat: plat, Ctrl: ctrl, Drv: drv, Mic: mic, Tracer: tracer}, nil
}

// captureBytes runs one capture of total bytes through the rig and
// returns the virtual cycles it consumed.
func (r *driverRig) captureBytes(total int) (tz.Cycles, error) {
	seconds := float64(total) / 2 / 16000
	tone := audio.Sine(16000, 440, 0.4, time.Duration(seconds*float64(time.Second)))
	if err := r.Mic.Load(tone); err != nil {
		return 0, err
	}
	start := r.Clock.Now()
	_, err := r.Drv.CaptureTask(i2s.DefaultFormat(), total, func(need int) {
		n := need
		if n > 4096 {
			n = 4096
		}
		_, _ = r.Mic.PumpBytes(n)
	})
	if err != nil {
		return 0, err
	}
	return r.Clock.Now() - start, nil
}

// sessionOpts bundles the per-mode knobs of a standard session.
type sessionOpts struct {
	policy relay.Policy
	arch   classify.Arch
}

// modeSession builds a system for the mode and runs a standard session.
func modeSession(mode core.Mode, opts sessionOpts, n int, seed uint64) (*core.SessionResult, error) {
	sys, err := core.NewSystem(core.Config{
		Mode:   mode,
		Policy: opts.policy,
		Arch:   opts.arch,
		Seed:   seed,
	})
	if err != nil {
		return nil, fmt.Errorf("%v system: %w", mode, err)
	}
	utts, err := sessionWorkload(n, seed+7)
	if err != nil {
		return nil, err
	}
	res, err := sys.RunSession(utts)
	if err != nil {
		return nil, fmt.Errorf("%v session: %w", mode, err)
	}
	return res, nil
}
