package main

import (
	"math"
	"runtime"
	"runtime/debug"

	"repro/internal/core"
	"repro/internal/fleet"
)

// deviceWorkers pins the load of every workload: a closed loop with two
// device pipelines in flight and no think time, whatever the host's core
// count, so runs on different hosts stay comparable.
const deviceWorkers = 2

// gcPercent is the GC target every measuring process runs with. At the
// default of 100 a workload with a small heap (doorbell: about 13 MiB)
// collects hundreds of times a second, and each collection's
// stop-the-world handshake stalls whenever the shared host deschedules a
// vCPU: on a 2-vCPU VM that swung doorbell throughput by ±20% between
// runs of one seed, against ±5% at 400.
const gcPercent = 400

// pinRuntime applies the benchmark's runtime settings to this process.
func pinRuntime() {
	runtime.GOMAXPROCS(deviceWorkers)
	debug.SetGCPercent(gcPercent)
}

// workload is one fleet population the benchmark drives. Sizes are picked
// so one fleet.Run takes about a second on a 2-CPU host: a measuring
// window then holds ten or so repeats, and every population has at least
// 1000 items so the virtual p99 has ten samples beyond it.
type workload struct {
	name    string
	devices int
	shape   func(*fleet.Config)
}

var workloads = []workload{
	// The historical BENCH_fleet.json shape (25% doorbells, 1:1:1 speaker
	// modes): every layer does some work, so no change may regress it.
	{name: "fleet-default", devices: 400, shape: func(*fleet.Config) {}},
	// All speech work runs in the TA (capture, world switch, MFCC+ASR,
	// inline classify, the HE round trip, seal+relay); ingest only sees
	// small sealed events.
	{name: "speaker-tee", devices: 300, shape: func(c *fleet.Config) {
		c.DoorbellFraction = -1
		c.Mix = fleet.MixSpec{core.ModeSecureFilter: 1, core.ModeHybridHE: 1}
	}},
	// The same capture/MFCC/ASR code run at the provider on raw PCM: no
	// world switch, classify or seal; shard ingest and provider memory
	// dominate.
	{name: "speaker-cloud", devices: 300, shape: func(c *fleet.Config) {
		c.DoorbellFraction = -1
		c.Mix = fleet.MixSpec{core.ModeBaseline: 1}
	}},
	// One item per device through the event-driven engine and the shared
	// classify scheduler: per-device construction and cross-device
	// batching dominate. The only workload that runs internal/sched.
	{name: "sched-async", devices: 1200, shape: func(c *fleet.Config) {
		c.DoorbellFraction = -1
		c.Mix = fleet.MixSpec{core.ModeSecureFilter: 1}
		c.Utterances = 1
		c.Sched = &fleet.SchedSpec{}
		c.DeviceWorkers = 0
		c.Async = &fleet.AsyncSpec{Executors: deviceWorkers}
	}},
	// Cameras only: no synth, capture, MFCC or ASR runs, so speech-path
	// changes must show no change here; the image classifier and the
	// priority ingest lane are exercised.
	{name: "doorbell", devices: 1500, shape: func(c *fleet.Config) {
		c.DoorbellFraction = 1
	}},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// config returns a fresh fleet.Config for the seed. scale multiplies the
// population (1 is the benchmark's size; tests run smaller); seed 0 is
// read as 1, which is what fleet.Config does with it too.
func (w workload) config(seed uint64, scale float64) fleet.Config {
	if seed == 0 {
		seed = 1
	}
	c := fleet.Config{
		Devices:       max(2, int(math.Round(float64(w.devices)*scale))),
		Shards:        8,
		DeviceWorkers: deviceWorkers,
		Seed:          seed,
	}
	w.shape(&c)
	return c
}
