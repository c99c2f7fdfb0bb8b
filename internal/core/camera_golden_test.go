package core

// Camera accounting and sealed-traffic goldens. The session golden pins
// what every speaker path costs; this file pins the doorbell's per-frame
// cycle split, switches, radio bytes, snoop and verdict counts for each
// doorbell mode, and the exact bytes the untrusted supplicant carried for
// the sealed speakers and doorbells. The second pin covers key derivation
// end to end: the relay identities, the channel keys and every sealed
// frame are fixed by the device seed.

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/sensitive"
)

var cameraAccountingGolden = map[string]string{
	"baseline": `total=9216 switches=0 switch_cycles=0 radio=4608 snoop=8/0/512 frames=8 persons=4 forwarded=8 forwarded_persons=4 blocked_empties=0
span 0 capture - start=0 dur=1152 bytes=576
span 1 capture - start=1152 dur=1152 bytes=576
span 2 capture - start=2304 dur=1152 bytes=576
span 3 capture - start=3456 dur=1152 bytes=576
span 4 capture - start=4608 dur=1152 bytes=576
span 5 capture - start=5760 dur=1152 bytes=576
span 6 capture - start=6912 dur=1152 bytes=576
span 7 capture - start=8064 dur=1152 bytes=576
`,
	"secure-filter": `total=376140 switches=28 switch_cycles=351000 radio=3484 snoop=8/8/0 frames=8 persons=4 forwarded=4 forwarded_persons=0 blocked_empties=0
0: cycles=27928 grab=1852 classify=505 relay=25571 sealed=871 flagged=false forwarded=true
1: cycles=2357 grab=1852 classify=505 relay=0 sealed=0 flagged=true forwarded=false
2: cycles=27928 grab=1852 classify=505 relay=25571 sealed=871 flagged=false forwarded=true
3: cycles=2357 grab=1852 classify=505 relay=0 sealed=0 flagged=true forwarded=false
4: cycles=2357 grab=1852 classify=505 relay=0 sealed=0 flagged=true forwarded=false
5: cycles=27928 grab=1852 classify=505 relay=25571 sealed=871 flagged=false forwarded=true
6: cycles=27928 grab=1852 classify=505 relay=25571 sealed=871 flagged=false forwarded=true
7: cycles=2357 grab=1852 classify=505 relay=0 sealed=0 flagged=true forwarded=false
span 0 capture - start=25500 dur=1852 bytes=576
span 0 classify - start=27352 dur=505 bytes=0
span 0 relay delivered start=27857 dur=25571 bytes=871
span 1 capture - start=78928 dur=1852 bytes=576
span 1 classify blocked start=80780 dur=505 bytes=0
span 2 capture - start=106785 dur=1852 bytes=576
span 2 classify - start=108637 dur=505 bytes=0
span 2 relay delivered start=109142 dur=25571 bytes=871
span 3 capture - start=160213 dur=1852 bytes=576
span 3 classify blocked start=162065 dur=505 bytes=0
span 4 capture - start=188070 dur=1852 bytes=576
span 4 classify blocked start=189922 dur=505 bytes=0
span 5 capture - start=215927 dur=1852 bytes=576
span 5 classify - start=217779 dur=505 bytes=0
span 5 relay delivered start=218284 dur=25571 bytes=871
span 6 capture - start=269355 dur=1852 bytes=576
span 6 classify - start=271207 dur=505 bytes=0
span 6 relay delivered start=271712 dur=25571 bytes=871
span 7 capture - start=322783 dur=1852 bytes=576
span 7 classify blocked start=324635 dur=505 bytes=0
`,
	"hybrid-he": `total=498863372 switches=28 switch_cycles=365400 radio=2576412 snoop=8/0/512 frames=8 persons=4 forwarded=4 forwarded_persons=0 blocked_empties=0
0: cycles=7770056 grab=0 classify=7744485 relay=25571 sealed=871 flagged=false forwarded=true
1: cycles=7744485 grab=0 classify=7744485 relay=0 sealed=0 flagged=true forwarded=false
2: cycles=7770056 grab=0 classify=7744485 relay=25571 sealed=871 flagged=false forwarded=true
3: cycles=7744485 grab=0 classify=7744485 relay=0 sealed=0 flagged=true forwarded=false
4: cycles=7744485 grab=0 classify=7744485 relay=0 sealed=0 flagged=true forwarded=false
5: cycles=7770056 grab=0 classify=7744485 relay=25571 sealed=871 flagged=false forwarded=true
6: cycles=7770056 grab=0 classify=7744485 relay=25571 sealed=871 flagged=false forwarded=true
7: cycles=7744485 grab=0 classify=7744485 relay=0 sealed=0 flagged=true forwarded=false
span 0 capture - start=25500 dur=576 bytes=576
span 0 classify - start=26076 dur=7744485 bytes=0
span 0 relay delivered start=7770561 dur=25571 bytes=871
span 1 capture - start=62389832 dur=576 bytes=576
span 1 classify blocked start=62390408 dur=7744485 bytes=0
span 2 capture - start=124728593 dur=576 bytes=576
span 2 classify - start=124729169 dur=7744485 bytes=0
span 2 relay delivered start=132473654 dur=25571 bytes=871
span 3 capture - start=187092925 dur=576 bytes=576
span 3 classify blocked start=187093501 dur=7744485 bytes=0
span 4 capture - start=249431686 dur=576 bytes=576
span 4 classify blocked start=249432262 dur=7744485 bytes=0
span 5 capture - start=311770447 dur=576 bytes=576
span 5 classify - start=311771023 dur=7744485 bytes=0
span 5 relay delivered start=319515508 dur=25571 bytes=871
span 6 capture - start=374134779 dur=576 bytes=576
span 6 classify - start=374135355 dur=7744485 bytes=0
span 6 relay delivered start=381879840 dur=25571 bytes=871
span 7 capture - start=436499111 dur=576 bytes=576
span 7 classify blocked start=436499687 dur=7744485 bytes=0
`,
}

// cameraAccountingDump renders one doorbell session: the totals, the TA's
// per-frame records (secure modes) and the trace spans.
func cameraAccountingDump(sys *CameraSystem, res *CameraSessionResult, tc *obs.TraceContext) string {
	var b strings.Builder
	st := sys.Monitor.Stats()
	fmt.Fprintf(&b, "total=%d switches=%d switch_cycles=%d radio=%d snoop=%d/%d/%d frames=%d persons=%d forwarded=%d forwarded_persons=%d blocked_empties=%d\n",
		res.TotalCycles, st.Switches, st.SwitchCycles, sys.radioBytes,
		res.Snoop.Attempts, res.Snoop.Blocked, res.Snoop.BytesRecovered,
		res.Frames, res.PersonFrames, res.ForwardedFrames, res.ForwardedPersons, res.BlockedEmpties)
	if sys.TA != nil {
		for i, rec := range sys.TA.Processed() {
			fmt.Fprintf(&b, "%d: cycles=%d grab=%d classify=%d relay=%d sealed=%d flagged=%t forwarded=%t\n",
				i, rec.Stages.Total(), rec.Stages.Capture, rec.Stages.Classify, rec.Stages.Relay, rec.SealedSize, rec.Flagged, rec.Forwarded)
		}
	}
	for _, sp := range tc.Spans() {
		fmt.Fprintf(&b, "span %d %s %s start=%d dur=%d bytes=%d\n", sp.Seq, sp.Stage, sp.Verdict, sp.Start, sp.Dur, sp.Bytes)
	}
	return b.String()
}

func TestCameraAccountingGolden(t *testing.T) {
	for _, mode := range []Mode{ModeBaseline, ModeSecureFilter, ModeHybridHE} {
		t.Run(mode.String(), func(t *testing.T) {
			sys, err := NewCameraSystem(CameraConfig{Mode: mode, Seed: 11})
			if err != nil {
				t.Fatal(err)
			}
			tc := obs.NewTracer(1).Device("cam-golden", "t", 1)
			sys.SetTrace(tc)
			res, err := sys.RunSession(daySenes())
			if err != nil {
				t.Fatal(err)
			}
			if got, want := cameraAccountingDump(sys, res, tc), cameraAccountingGolden[mode.String()]; got != want {
				t.Errorf("accounting drifted\ngot:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}

// sealedTrafficGolden is the SHA-256 of every payload the supplicant
// carried (length-prefixed, in order), keyed by "<kind>/<mode>".
var sealedTrafficGolden = map[string]string{
	"doorbell/secure-filter": "4:a24933ea165f3a64761999da132b0b3f8424f294d9dd09812d408f15f8e9ddf1",
	"doorbell/hybrid-he":     "4:a24933ea165f3a64761999da132b0b3f8424f294d9dd09812d408f15f8e9ddf1",
	"speaker/secure-filter":  "6:159c1888bde671b3bba851160fafb9f491f47a3f3c0cd07cee16e7f99e27772d",
	"speaker/hybrid-he":      "6:159c1888bde671b3bba851160fafb9f491f47a3f3c0cd07cee16e7f99e27772d",
}

func observedDigest(payloads [][]byte) string {
	h := sha256.New()
	for _, p := range payloads {
		var n [4]byte
		binary.LittleEndian.PutUint32(n[:], uint32(len(p)))
		h.Write(n[:])
		h.Write(p)
	}
	return fmt.Sprintf("%d:%x", len(payloads), h.Sum(nil))
}

func TestSealedTrafficGolden(t *testing.T) {
	utts, err := sensitive.Generate(sensitive.GenConfig{N: 7, SensitiveFraction: 0.5, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{ModeSecureFilter, ModeHybridHE} {
		t.Run("doorbell/"+mode.String(), func(t *testing.T) {
			sys, err := NewCameraSystem(CameraConfig{Mode: mode, Seed: 11})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sys.RunSession(daySenes()); err != nil {
				t.Fatal(err)
			}
			if got, want := observedDigest(sys.Supplicant.Observed()), sealedTrafficGolden["doorbell/"+mode.String()]; got != want {
				t.Errorf("sealed traffic = %s, want %s", got, want)
			}
		})
		t.Run("speaker/"+mode.String(), func(t *testing.T) {
			sys, err := NewSystem(Config{Mode: mode, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sys.RunSessionBatched(utts, 3); err != nil {
				t.Fatal(err)
			}
			if got, want := observedDigest(sys.Supplicant.Observed()), sealedTrafficGolden["speaker/"+mode.String()]; got != want {
				t.Errorf("sealed traffic = %s, want %s", got, want)
			}
		})
	}
}
