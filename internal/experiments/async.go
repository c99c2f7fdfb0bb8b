package experiments

import (
	"fmt"

	"repro/internal/fleet"
	"repro/internal/metrics"
)

// E17Result is the event-driven pipeline experiment outcome.
type E17Result struct {
	Devices int
	Joined  int
	Left    int
	Rotated int
	// Equivalence leg: every device of the scheduled run compared
	// bit-for-bit against the unscheduled run of the same seed.
	Compared       int
	AuditIdentical bool
	// Executor-pool accounting: the memory claim is PeakLive — the
	// high-water mark of concurrently live device pipelines, which must
	// stay far below the population.
	Executors int
	Steps     uint64
	Parks     uint64
	PeakLive  int
	// Occupancy is the scheduler's steady-state flush occupancy. It must
	// exceed DeviceBatch, the most one device's own queue can put in a
	// forward pass: parked single-item enqueues coalesce across devices.
	Occupancy   float64
	DeviceBatch int
	LostFrames  int
	ItemsPerSec float64
}

// E17AsyncPipeline is the event-driven pipeline experiment. The same
// elastic fleet — churn plus mid-run key rotations — runs twice on the
// bounded executor pool: once classifying per device, and once with
// secure-filter speakers parking an encoded group on the shared
// scheduler instead of holding an executor. The claims under test: every
// device's audit counters are bit-identical between the two runs (the
// engine moves where waiting happens, never what is computed), zero
// frames are lost, groups actually park, peak live pipelines stay far
// below the population, and flushes coalesce across devices — steady
// occupancy above the per-device batch.
func E17AsyncPipeline(seed uint64) (*metrics.Table, E17Result, error) {
	base := fleet.Config{
		Devices:    48,
		Shards:     4,
		Utterances: 3,
		Frames:     2,
		Seed:       seed,
		Churn:      &fleet.ChurnSpec{JoinFraction: 0.25, LeaveFraction: 0.25},
		Lifecycle:  &fleet.LifecycleSpec{RotateFraction: 0.25},
	}
	plain, err := fleet.Run(base)
	if err != nil {
		return nil, E17Result{}, fmt.Errorf("unscheduled fleet: %w", err)
	}
	scheduled := base
	scheduled.Sched = &fleet.SchedSpec{}
	res, err := fleet.Run(scheduled)
	if err != nil {
		return nil, E17Result{}, fmt.Errorf("scheduled fleet: %w", err)
	}
	if res.Sched == nil {
		return nil, E17Result{}, fmt.Errorf("scheduled fleet returned no scheduler report")
	}

	out := E17Result{
		Devices:        base.Devices,
		Joined:         res.Joined,
		Left:           res.Left,
		Rotated:        res.Rotated,
		AuditIdentical: true,
		Executors:      res.Async.Executors,
		Steps:          res.Async.Steps,
		Parks:          res.Async.Parks,
		PeakLive:       res.Async.PeakLive,
		Occupancy:      res.Sched.MeanOccupancySteady,
		DeviceBatch:    res.EffectiveBatch,
		LostFrames:     res.LostFrames(),
		ItemsPerSec:    res.Throughput(),
	}
	if len(res.DeviceResults) != len(plain.DeviceResults) {
		return nil, out, fmt.Errorf("population diverged: %d vs %d devices",
			len(res.DeviceResults), len(plain.DeviceResults))
	}
	for i := range plain.DeviceResults {
		if e12Fingerprint(res.DeviceResults[i]) != e12Fingerprint(plain.DeviceResults[i]) {
			out.AuditIdentical = false
			continue
		}
		out.Compared++
	}

	tbl := metrics.NewTable("E17: event-driven pipeline (48 devices, churn + rotation, shared scheduler)",
		"devices", "joined/left/rotated", "identical", "executors", "steps", "parks",
		"peak live", "occupancy/device batch", "lost frames", "items/s(wall)")
	tbl.AddRow(out.Devices,
		fmt.Sprintf("%d/%d/%d", out.Joined, out.Left, out.Rotated),
		fmt.Sprintf("%v (%d compared)", out.AuditIdentical, out.Compared),
		out.Executors, out.Steps, out.Parks, out.PeakLive,
		fmt.Sprintf("%.2f/%d", out.Occupancy, out.DeviceBatch),
		out.LostFrames, out.ItemsPerSec)

	switch {
	case !out.AuditIdentical:
		return tbl, out, fmt.Errorf("async: a device's audit diverged from the unscheduled run")
	case out.LostFrames != 0:
		return tbl, out, fmt.Errorf("async: lost %d frames, want 0", out.LostFrames)
	case out.Steps == 0 || out.Parks == 0:
		return tbl, out, fmt.Errorf("async: engine inert (%d steps, %d parks)", out.Steps, out.Parks)
	case out.PeakLive == 0 || out.PeakLive > out.Devices:
		return tbl, out, fmt.Errorf("async: implausible peak of %d live pipelines (population %d)",
			out.PeakLive, out.Devices)
	case out.Occupancy <= float64(out.DeviceBatch):
		return tbl, out, fmt.Errorf("async: steady occupancy %.2f does not exceed the per-device batch %d",
			out.Occupancy, out.DeviceBatch)
	case out.Joined == 0 || out.Left == 0 || out.Rotated == 0:
		return tbl, out, fmt.Errorf("async: churn/rotation did not fire (joined %d, left %d, rotated %d)",
			out.Joined, out.Left, out.Rotated)
	}
	return tbl, out, nil
}
