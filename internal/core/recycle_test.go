package core

// Capture-path buffers (synth, microphone signal, I2S FIFO ring, DMA
// bounce, provider decode) are recycled across devices through
// package-level pools. These tests pin that recycling is invisible: a
// device's results do not depend on which device ran before it, and a
// warm process runs a device without growing that scratch again.

import (
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/ml/classify"
	"repro/internal/relay"
	"repro/internal/sensitive"
)

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

func recycleWorkload(t *testing.T, n int, seed uint64) DeviceWorkload {
	t.Helper()
	utts, err := sensitive.Generate(sensitive.GenConfig{N: n, SensitiveFraction: 0.5, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return DeviceWorkload{Utterances: utts}
}

func runDevice(t *testing.T, spec DeviceSpec, w DeviceWorkload) *SessionResult {
	t.Helper()
	d, err := NewDevice(spec)
	if err != nil {
		t.Fatalf("%s: NewDevice: %v", spec.Mode, err)
	}
	res, err := d.Run(w)
	if err != nil {
		t.Fatalf("%s: Run: %v", spec.Mode, err)
	}
	return res.Session
}

func TestRecycledScratchIsolation(t *testing.T) {
	speaker := func(mode Mode, seed uint64, batch int) DeviceSpec {
		return DeviceSpec{
			Kind: DeviceSpeaker, Mode: mode, Arch: classify.ArchCNN,
			Policy: relay.PolicyBlock, Seed: seed, ModelSeed: 99, Batch: batch,
		}
	}
	// X leaves large, dirty buffers behind: long sessions, a full TA
	// batch of queued audio in the microphone, raw PCM at the provider.
	xs := []DeviceSpec{
		speaker(ModeBaseline, 71, 1),
		speaker(ModeSecureFilter, 72, MaxBatch),
		speaker(ModeHybridHE, 73, MaxBatch),
	}
	xw := recycleWorkload(t, 2*MaxBatch, 71)
	ys := []DeviceSpec{
		speaker(ModeBaseline, 11, 1),
		speaker(ModeSecureNoFilter, 12, 1),
		speaker(ModeSecureFilter, 13, 4),
		speaker(ModeHybridHE, 14, 2),
	}
	yw := recycleWorkload(t, 5, 13)
	for _, y := range ys {
		first := runDevice(t, y, yw)
		for _, x := range xs {
			runDevice(t, x, xw)
		}
		again := runDevice(t, y, yw)
		// Transcripts, verdicts, per-utterance and total virtual cycles,
		// the provider audit and the leakage counters, all at once.
		if !reflect.DeepEqual(first, again) {
			t.Errorf("%s: session result differs after device X ran:\nfirst %+v\nagain %+v", y.Mode, first, again)
		}
	}
}

// captureAllocBoundKB bounds what a second secure-filter speaker's Run
// allocates once the capture pools are warm: ~190 KiB on go1.24
// linux/amd64, against ~6.3 MiB when every device grew its own capture
// scratch.
const captureAllocBoundKB = 320

func TestWarmDeviceRunAllocationBound(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	// Paused GC keeps the pools from being emptied between the runs, and
	// one P keeps both runs on the same per-P pool caches.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	spec := DeviceSpec{
		Kind: DeviceSpeaker, Mode: ModeSecureFilter, Arch: classify.ArchCNN,
		Policy: relay.PolicyBlock, Seed: 21, ModelSeed: 99, Batch: 4,
	}
	w := recycleWorkload(t, 8, 21)
	runDevice(t, spec, w)

	spec.Seed = 22
	d, err := NewDevice(spec)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := d.Run(w); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if kb := (after.TotalAlloc - before.TotalAlloc) / 1024; kb > captureAllocBoundKB {
		t.Errorf("warm secure-filter Device.Run allocated %d KiB, bound %d KiB", kb, captureAllocBoundKB)
	}
}
