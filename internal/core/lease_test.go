package core

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/cloud"
	"repro/internal/peripheral"
	"repro/internal/sensitive"
	"repro/internal/supplicant"
)

// collectedAllocsPerRun is testing.AllocsPerRun with two forced
// collections before every run. Two collections empty a sync.Pool,
// victim cache included, so a guard measured here cannot lean on
// anything a collection would drop.
func collectedAllocsPerRun(runs int, f func()) float64 {
	return testing.AllocsPerRun(runs, func() {
		runtime.GC()
		runtime.GC()
		f()
	})
}

// warmAllocsPerItem is the allocations per item of a warm session: run
// once to warm the free lists, then average collectedAllocsPerRun over
// runs of the session.
func warmAllocsPerItem(t *testing.T, items int, session func() error) float64 {
	t.Helper()
	if err := session(); err != nil {
		t.Fatal(err)
	}
	return collectedAllocsPerRun(20, func() {
		if err := session(); err != nil {
			t.Fatal(err)
		}
	}) / float64(items)
}

// TestWarmSpeakerItemAllocs: a warm secure-filter speaker session of 4
// utterances in one group (synthesis, capture, MFCC and ASR, classify,
// seal and relay, the provider's open and ack) allocates at most 45
// times per item.
func TestWarmSpeakerItemAllocs(t *testing.T) {
	utts, err := sensitive.Generate(sensitive.GenConfig{N: 4, SensitiveFraction: 0.5, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(Config{Mode: ModeSecureFilter, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	per := warmAllocsPerItem(t, len(utts), func() error {
		_, err := sys.RunSessionBatched(utts, 4)
		return err
	})
	t.Logf("warm secure-filter speaker: %.1f allocations per item", per)
	if per > 45 {
		t.Errorf("a warm secure-filter speaker item allocates %.1f times, want at most 45", per)
	}
}

// TestWarmDoorbellFrameAllocs: a warm secure-filter doorbell session of
// 4 frames, two forwarded and two withheld, allocates at most 14 times
// per frame.
func TestWarmDoorbellFrameAllocs(t *testing.T) {
	sys, err := NewCameraSystem(CameraConfig{Mode: ModeSecureFilter, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	scenes := []peripheral.Scene{peripheral.SceneEmpty, peripheral.ScenePerson, peripheral.SceneEmpty, peripheral.ScenePerson}
	per := warmAllocsPerItem(t, len(scenes), func() error {
		res, err := sys.RunSession(scenes)
		if err == nil && res.ForwardedFrames != 2 {
			t.Fatalf("%d of 4 frames forwarded, want the 2 empty ones", res.ForwardedFrames)
		}
		return err
	})
	t.Logf("warm secure-filter doorbell: %.1f allocations per frame", per)
	if per > 14 {
		t.Errorf("a warm secure-filter doorbell frame allocates %.1f times, want at most 14", per)
	}
}

// TestForwardedFrameAllocsOverWithheld: sealing and relaying a frame —
// the event encode, the seal, the supplicant's RPC and record, the
// provider's open, decode and ack, and the TA's open of the directive —
// costs at most 8 allocations more than withholding it.
func TestForwardedFrameAllocsOverWithheld(t *testing.T) {
	command := func(scene peripheral.Scene) float64 {
		sys, sess := newFuzzCamera(t, ModeSecureFilter, true)
		queued := make([]peripheral.Scene, 200)
		for i := range queued {
			queued[i] = scene
		}
		sys.Camera.Queue(queued...)
		for range 2 + 20 { // the fixture's own two frames, then a warm-up
			if err := sess.InvokeCommand(CmdProcessItem, frameItem()); err != nil {
				t.Fatal(err)
			}
		}
		before := sys.TA.messageID.Load()
		per := warmAllocsPerItem(t, 1, func() error { return sess.InvokeCommand(CmdProcessItem, frameItem()) })
		if relayed := sys.TA.messageID.Load() - before; (relayed > 0) != (scene == peripheral.SceneEmpty) {
			t.Fatalf("%d %v frames relayed (test measures the wrong path)", relayed, scene)
		}
		return per
	}
	forwarded, withheld := command(peripheral.SceneEmpty), command(peripheral.ScenePerson)
	t.Logf("forwarded frame %.1f allocations, withheld %.1f", forwarded, withheld)
	if d := forwarded - withheld; d > 8 {
		t.Errorf("relaying a frame costs %.1f allocations over withholding it, want at most 8", d)
	}
}

// scribbleRelayLease takes the taScratch the last relayEvent returned to
// its free list (which hands back the set it was last given) and
// overwrites the whole of its encoded event, sealed frame and opened
// directive buffers. It reports whether that set's sealed frame was the
// last payload the supplicant forwarded (so the scribble hit the lease
// the relay used).
func scribbleRelayLease(sup *supplicant.Supplicant) bool {
	sc := taScratchFree.Get()
	defer taScratchFree.Put(sc)
	var last []byte
	sup.ScanObserved(func(p []byte) { last = p })
	hit := len(last) > 0 && bytes.Equal(sc.sealed, last)
	for _, buf := range [][]byte{sc.event, sc.sealed, sc.directive} {
		buf = buf[:cap(buf)]
		for i := range buf {
			buf[i] = byte(0x5a ^ i)
		}
	}
	return hit
}

// TestRelayLeaseBorrowedForCallOnly: the relay encodes, seals and opens
// into a leased taScratch that goes back to its free list when relayEvent
// returns, so nothing may keep its event or sealed buffer past the call:
// not the supplicant's record, the provider, nor the TA's records.
// Scribbling over the leased buffers after every speaker group and every
// doorbell frame changes no TA record, forwarded payload, provider audit
// or session result.
func TestRelayLeaseBorrowedForCallOnly(t *testing.T) {
	utts, err := sensitive.Generate(sensitive.GenConfig{N: 10, SensitiveFraction: 0.5, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	type run struct {
		res      *SessionResult
		records  []ItemRecord
		relayed  [][]byte
		audit    cloud.Audit
		hits     int
		frames   []ItemRecord
		framesTx [][]byte
		camAudit cloud.Audit
	}
	drive := func(scribble bool) (r run) {
		sys, err := NewSystem(Config{Mode: ModeSecureFilter, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		st, err := sys.beginSession(utts, 4, false)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Abort()
		sc := new(sessionScratch)
		for st.lo < len(utts) {
			if err := st.runGroup(sc); err != nil {
				t.Fatal(err)
			}
			if scribble && scribbleRelayLease(sys.Supplicant) {
				r.hits++
			}
		}
		if r.res, err = st.Finish(); err != nil {
			t.Fatal(err)
		}
		r.records, r.relayed, r.audit = sys.VoiceTA.Processed(), sys.Supplicant.Observed(), sys.CloudSealed.Audit()

		cam, sess := newFuzzCamera(t, ModeSecureFilter, true)
		cam.Camera.Queue(peripheral.SceneEmpty, peripheral.ScenePerson, peripheral.SceneEmpty, peripheral.SceneEmpty)
		for range 6 {
			if err := sess.InvokeCommand(CmdProcessItem, frameItem()); err != nil {
				t.Fatal(err)
			}
			if scribble && scribbleRelayLease(cam.Supplicant) {
				r.hits++
			}
		}
		r.frames, r.framesTx, r.camAudit = cam.TA.Processed(), cam.Supplicant.Observed(), cam.CloudSealed.Audit()
		return r
	}
	clean, scribbled := drive(false), drive(true)
	if len(clean.records) != len(utts) || len(clean.relayed) == 0 || len(clean.framesTx) != 4 {
		t.Fatalf("%d records for %d utterances, %d speaker and %d doorbell events relayed (test is vacuous)",
			len(clean.records), len(utts), len(clean.relayed), len(clean.framesTx))
	}
	if scribbled.hits < 4 {
		t.Fatalf("the scribble hit the relay's lease %d times, want at least 4 (test is vacuous)", scribbled.hits)
	}
	scribbled.hits = 0
	if !reflect.DeepEqual(clean, scribbled) {
		t.Errorf("scribbling the leased relay buffers changed the run:\nclean     %+v\nscribbled %+v", clean, scribbled)
	}
}
