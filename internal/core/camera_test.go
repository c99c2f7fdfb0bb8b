package core

import (
	"errors"
	"testing"

	"repro/internal/peripheral"
)

func daySenes() []peripheral.Scene {
	return []peripheral.Scene{
		peripheral.SceneEmpty, peripheral.ScenePerson, peripheral.SceneEmpty,
		peripheral.ScenePerson, peripheral.ScenePerson, peripheral.SceneEmpty,
		peripheral.SceneEmpty, peripheral.ScenePerson,
	}
}

func runCamera(t *testing.T, mode Mode) *CameraSessionResult {
	t.Helper()
	_, res := runCameraSystem(t, mode)
	return res
}

func runCameraSystem(t *testing.T, mode Mode) (*CameraSystem, *CameraSessionResult) {
	t.Helper()
	sys, err := NewCameraSystem(CameraConfig{Mode: mode, Seed: 11})
	if err != nil {
		t.Fatalf("NewCameraSystem(%v): %v", mode, err)
	}
	res, err := sys.RunSession(daySenes())
	if err != nil {
		t.Fatalf("RunSession(%v): %v", mode, err)
	}
	return sys, res
}

func TestCameraBaselineLeaksPersonFrames(t *testing.T) {
	res := runCamera(t, ModeBaseline)
	if res.Frames != 8 || res.PersonFrames != 4 {
		t.Fatalf("workload wrong: %+v", res)
	}
	// Every frame, person or not, reaches the cloud.
	if res.ForwardedFrames != 8 || res.ForwardedPersons != 4 {
		t.Errorf("baseline forwarded %d (%d persons), want 8 (4)", res.ForwardedFrames, res.ForwardedPersons)
	}
	// The OS snoops the frame buffer freely.
	if res.Snoop.Blocked != 0 || res.Snoop.BytesRecovered == 0 {
		t.Errorf("baseline snoop = %+v", res.Snoop)
	}
}

func TestCameraSecureFilterBlocksPersonFrames(t *testing.T) {
	sys, res := runCameraSystem(t, ModeSecureFilter)
	if res.ForwardedPersons != 0 {
		t.Errorf("secure pipeline leaked %d person frames", res.ForwardedPersons)
	}
	// Benign frames still flow.
	if res.ForwardedFrames == 0 {
		t.Error("no frames forwarded at all")
	}
	if res.BlockedEmpties > 1 {
		t.Errorf("%d empty frames wrongly blocked", res.BlockedEmpties)
	}
	// Snooping defeated.
	if res.Snoop.Blocked != res.Snoop.Attempts || res.Snoop.Attempts == 0 {
		t.Errorf("secure snoop = %+v", res.Snoop)
	}
	// The cloud received exactly the forwarded frames it did not shed or
	// expire.
	if got, want := sys.CloudSealed.Audit().Events, res.ForwardedFrames-res.ShedFrames-res.ExpiredFrames; got != want {
		t.Errorf("cloud received %d events, want %d forwarded", got, want)
	}
}

func TestCameraSecureCostsMore(t *testing.T) {
	base := runCamera(t, ModeBaseline)
	secure := runCamera(t, ModeSecureFilter)
	if secure.Latency.Mean() <= base.Latency.Mean() {
		t.Errorf("secure latency %v not above baseline %v", secure.Latency.Mean(), base.Latency.Mean())
	}
	// And, as with audio, radio traffic shrinks (blocked frames never fly).
	if secure.Energy.RadiomJ >= base.Energy.RadiomJ {
		t.Errorf("secure radio energy %v not below baseline %v", secure.Energy.RadiomJ, base.Energy.RadiomJ)
	}
}

func TestCameraCloudSeesOnlyCiphertext(t *testing.T) {
	sys, err := NewCameraSystem(CameraConfig{Mode: ModeSecureFilter, Seed: 11})
	if err != nil {
		t.Fatalf("NewCameraSystem: %v", err)
	}
	if _, err := sys.RunSession(daySenes()); err != nil {
		t.Fatalf("RunSession: %v", err)
	}
	// The supplicant carried only sealed frames: no payload should carry
	// the camera's image structure (a long run of identical base-gradient
	// rows would betray plaintext).
	for _, payload := range sys.Supplicant.Observed() {
		if len(payload) < 16 {
			continue
		}
		runs := 0
		for i := 1; i < len(payload); i++ {
			if payload[i] == payload[i-1] {
				runs++
			}
		}
		// Ciphertext has ~len/256 coincidental repeats; plaintext frames
		// have long gradient runs.
		if float64(runs) > float64(len(payload))/16 {
			t.Fatalf("supplicant payload looks like plaintext pixels (%d runs in %d bytes)", runs, len(payload))
		}
	}
	// The legitimate cloud endpoint, as TLS peer, does decrypt frames.
	audit := sys.CloudSealed.Audit()
	if audit.Events == 0 {
		t.Error("cloud received no events")
	}
}

func TestCameraRejectsNoFilterMode(t *testing.T) {
	if _, err := NewCameraSystem(CameraConfig{Mode: ModeSecureNoFilter, Seed: 1}); !errors.Is(err, ErrBadMode) {
		t.Errorf("no-filter camera = %v, want ErrBadMode", err)
	}
	if _, err := NewCameraSystem(CameraConfig{Seed: 1}); !errors.Is(err, ErrBadMode) {
		t.Errorf("zero mode camera = %v, want ErrBadMode", err)
	}
}

func TestCameraDeterminism(t *testing.T) {
	a := runCamera(t, ModeSecureFilter)
	b := runCamera(t, ModeSecureFilter)
	if a.ForwardedFrames != b.ForwardedFrames || a.TotalCycles != b.TotalCycles {
		t.Errorf("non-deterministic camera run: %d/%d vs %d/%d cycles %d vs %d",
			a.ForwardedFrames, a.ForwardedPersons, b.ForwardedFrames, b.ForwardedPersons,
			a.TotalCycles, b.TotalCycles)
	}
}

// TestCameraSecondSessionTallies: a second session on the same doorbell
// tallies only its own frames. The TA's records and the PTA's ground
// truth accumulate for the life of the system, so each session must
// count from where it started.
func TestCameraSecondSessionTallies(t *testing.T) {
	type tallies struct {
		frames, persons, forwarded, forwardedPersons, shed, expired, blockedEmpties int
		radio                                                                       uint64
	}
	for _, mode := range []Mode{ModeSecureFilter, ModeHybridHE} {
		t.Run(mode.String(), func(t *testing.T) {
			sys, err := NewCameraSystem(CameraConfig{Mode: mode, Seed: 11})
			if err != nil {
				t.Fatal(err)
			}
			var got [2]tallies
			for i := range got {
				radio := sys.radioBytes
				res, err := sys.RunSession(daySenes())
				if err != nil {
					t.Fatalf("session %d: %v", i, err)
				}
				got[i] = tallies{res.Frames, res.PersonFrames, res.ForwardedFrames, res.ForwardedPersons,
					res.ShedFrames, res.ExpiredFrames, res.BlockedEmpties, sys.radioBytes - radio}
			}
			if got[0].forwarded == 0 {
				t.Fatal("first session forwarded nothing (test is vacuous)")
			}
			if got[1] != got[0] {
				t.Fatalf("second session tallies %+v, first %+v", got[1], got[0])
			}
		})
	}
}

// TestCameraRadioCountsSealedEvents: a secure doorbell's radio carries
// exactly the sealed events its TA relayed, as a speaker's does.
func TestCameraRadioCountsSealedEvents(t *testing.T) {
	sys, err := NewCameraSystem(CameraConfig{Mode: ModeSecureFilter, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	radio := sys.radio()
	if _, err := sys.RunSession(daySenes()); err != nil {
		t.Fatal(err)
	}
	sealed := 0
	for _, rec := range sys.TA.Processed() {
		sealed += rec.SealedSize
	}
	if sealed == 0 {
		t.Fatal("no sealed event (test is vacuous)")
	}
	if got := sys.radio() - radio; got != uint64(sealed) {
		t.Fatalf("radio carried %d bytes, the TA sealed %d", got, sealed)
	}
}
