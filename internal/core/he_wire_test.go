package core

// The hybrid split's normal-world half writes each item's device wire
// and the provider's result into a session's leased HE buffers. These
// tests pin that the reuse is invisible: the packed CmdResumeBatchHE
// parameter equals the per-item Marshal + Eval reference in the
// length-prefixed layout, a smaller group on a dirty scratch leaks no
// stale tail, the TA keeps nothing of the borrowed memref, and the
// round trip stops allocating a wire per item.

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/cloud"
	"repro/internal/optee"
	"repro/internal/peripheral"
	"repro/internal/sensitive"
)

// lengthPrefixed builds CmdResumeBatchHE's MemrefIn from whole blobs:
// each blob's little-endian uint32 byte length, then its bytes.
func lengthPrefixed(blobs ...[]byte) []byte {
	var out []byte
	for _, b := range blobs {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(b)))
		out = append(out, b...)
	}
	return out
}

// hybridSpeaker builds a hybrid speaker and stages its first group of n
// utterances.
func hybridSpeaker(t *testing.T, n int) (*System, *PendingGroup) {
	t.Helper()
	utts, err := sensitive.Generate(sensitive.GenConfig{N: n, SensitiveFraction: 0.5, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(Config{Mode: ModeHybridHE, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	st, err := sys.beginSession(utts, n, false)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Abort)
	pg, err := st.stage(new(sessionScratch))
	if err != nil {
		t.Fatal(err)
	}
	return sys, pg
}

// tokenFeatures is heClassify's embedding-head input for one token
// sequence.
func tokenFeatures(sys *System, ids []int) []float32 {
	feats := make([]float32, sys.heSplit.SeqLen)
	for j := 0; j < len(ids) && j < len(feats); j++ {
		feats[j] = float32(ids[j])
	}
	return feats
}

// TestHEPackedGroupMatchesPerItemMarshal: a hybrid speaker group's packed
// CmdResumeBatchHE parameter is byte for byte the per-item Marshal and
// EvalText of a twin system in the length-prefixed layout, and the radio
// and the provider's audit count the same bytes.
func TestHEPackedGroupMatchesPerItemMarshal(t *testing.T) {
	sys, pg := hybridSpeaker(t, 4)
	ref, _ := hybridSpeaker(t, 4)
	radio := sys.radio()
	got, err := sys.heClassify(new(sessionScratch), pg.Tokens)
	if err != nil {
		t.Fatal(err)
	}
	var blobs [][]byte
	wireBytes := 0
	for _, ids := range pg.Tokens {
		data, shape, err := ref.heSplit.EmbedFeatures(tokenFeatures(ref, ids))
		if err != nil {
			t.Fatal(err)
		}
		ct, err := ref.HEEval.Encrypt(ref.HEPub, data, shape)
		if err != nil {
			t.Fatal(err)
		}
		wire := ct.Marshal(ref.HEEval.Params)
		res, err := ref.HE.EvalText(wire)
		if err != nil {
			t.Fatal(err)
		}
		blobs = append(blobs, res)
		wireBytes += len(wire) + len(res)
	}
	if want := lengthPrefixed(blobs...); !bytes.Equal(got, want) {
		t.Fatalf("packed group differs from the per-item reference (%d vs %d bytes)", len(got), len(want))
	}
	if n := sys.radio() - radio; n != uint64(wireBytes) {
		t.Errorf("radio counted %d HE bytes, want %d", n, wireBytes)
	}
	if got, want := sys.HE.Audit(), ref.HE.Audit(); got != want {
		t.Errorf("HE audit %+v, want %+v", got, want)
	}
}

// TestHEPackedFrameMatchesPerItemMarshal is the doorbell's version: each
// hybrid frame's packed parameter, built on one reused scratch, is the
// twin's Marshal and EvalImage of the same pixels.
func TestHEPackedFrameMatchesPerItemMarshal(t *testing.T) {
	newCam := func() *CameraSystem {
		cam, err := NewCameraSystem(CameraConfig{Mode: ModeHybridHE, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		cam.Camera.Queue(peripheral.ScenePerson, peripheral.SceneEmpty)
		return cam
	}
	cam, ref := newCam(), newCam()
	sc := new(sessionScratch)
	for frame := 0; frame < 2; frame++ {
		radio := cam.radio()
		p, _, _, err := cam.hybridFrame(sc)
		if p == nil {
			t.Fatalf("frame %d: no parameters: %v", frame, err)
		}
		feats := make([]float32, len(p[1].Buf))
		for i, px := range p[1].Buf {
			feats[i] = float32(px) / 255
		}
		ct, err := ref.HEEval.Encrypt(ref.HEPub, feats, []int{cameraFrameSide, cameraFrameSide, 1})
		if err != nil {
			t.Fatal(err)
		}
		wire := ct.Marshal(ref.HEEval.Params)
		res, err := ref.HE.EvalImage(wire)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(p[0].Buf, lengthPrefixed(res)) {
			t.Fatalf("frame %d: packed frame differs from the per-item reference", frame)
		}
		if n := cam.radio() - radio; n != uint64(len(wire)+len(res)) {
			t.Errorf("frame %d: radio counted %d HE bytes, want %d", frame, n, len(wire)+len(res))
		}
	}
	if got, want := cam.HE.Audit(), ref.HE.Audit(); got != want {
		t.Errorf("HE audit %+v, want %+v", got, want)
	}
}

// TestHEScratchSmallerGroupNoStaleTail: a one-item group packed on a
// scratch a four-item group dirtied equals the same group on a fresh
// scratch.
func TestHEScratchSmallerGroupNoStaleTail(t *testing.T) {
	sys, pg := hybridSpeaker(t, 4)
	sc := new(sessionScratch)
	if _, err := sys.heClassify(sc, pg.Tokens); err != nil {
		t.Fatal(err)
	}
	got, err := sys.heClassify(sc, pg.Tokens[1:2])
	if err != nil {
		t.Fatal(err)
	}
	want, err := sys.heClassify(new(sessionScratch), pg.Tokens[1:2])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("reused scratch packed %d bytes, fresh scratch %d (or the bytes differ)", len(got), len(want))
	}
}

// TestHEMemrefBorrowedForCallOnly: the normal world owns a memref's
// memory and may rewrite it once the command returns. Scribbling over
// the whole of each group's CmdResumeBatchHE buffer after the call, then
// resuming the next group on the same session, changes no verdict, TA
// record, relayed event or provider audit: the TA keeps nothing of the
// memref, which is what lets a session reuse it.
func TestHEMemrefBorrowedForCallOnly(t *testing.T) {
	utts, err := sensitive.Generate(sensitive.GenConfig{N: 10, SensitiveFraction: 0.5, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	type run struct {
		res     *SessionResult
		records []ItemRecord
		relayed [][]byte
		heAudit cloud.HEAudit
	}
	drive := func(scribble bool) run {
		sys, err := NewSystem(Config{Mode: ModeHybridHE, Seed: 5})
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
			pg, err := st.stage(sc)
			if err != nil {
				t.Fatal(err)
			}
			blobs, err := sys.heClassify(sc, pg.Tokens)
			if err != nil {
				t.Fatal(err)
			}
			p := &optee.Params{{Type: optee.MemrefIn, Buf: blobs}, {}, {}}
			if err := st.invoke(pg, CmdResumeBatchHE, p); err != nil {
				t.Fatal(err)
			}
			if scribble {
				for i := range p[0].Buf {
					p[0].Buf[i] = byte(0xa5 ^ i)
				}
			}
		}
		res, err := st.Finish()
		if err != nil {
			t.Fatal(err)
		}
		return run{res, sys.VoiceTA.Processed(), sys.Supplicant.Observed(), sys.HE.Audit()}
	}
	clean, scribbled := drive(false), drive(true)
	if len(clean.records) != len(utts) {
		t.Fatalf("%d TA records for %d utterances", len(clean.records), len(utts))
	}
	if !reflect.DeepEqual(clean, scribbled) {
		t.Errorf("scribbling the borrowed memref changed the run:\nclean     %+v\nscribbled %+v", clean, scribbled)
	}
}

// TestHERoundTripAllocsBelowCiphertext: on a warm hybrid speaker, one
// group's HE round trip allocates less per item than one marshalled
// ciphertext, so neither the device's wire nor the provider's result nor
// the packed parameter is allocated per item. The floor is the minimum
// over three groups after a warm-up group.
func TestHERoundTripAllocsBelowCiphertext(t *testing.T) {
	sys, pg := hybridSpeaker(t, 4)
	sc := new(sessionScratch)
	if _, err := sys.heClassify(sc, pg.Tokens); err != nil {
		t.Fatal(err)
	}
	data, shape, err := sys.heSplit.EmbedFeatures(tokenFeatures(sys, pg.Tokens[0]))
	if err != nil {
		t.Fatal(err)
	}
	ct, err := sys.HEEval.Encrypt(sys.HEPub, data, shape)
	if err != nil {
		t.Fatal(err)
	}
	size := uint64(ct.Size(sys.HEEval.Params))
	perItem := uint64(1 << 62)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := sys.heClassify(sc, pg.Tokens); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		perItem = min(perItem, (after.TotalAlloc-before.TotalAlloc)/uint64(len(pg.Tokens)))
	}
	if perItem >= size {
		t.Errorf("HE round trip allocates %d B per item, want below one ciphertext's %d B", perItem, size)
	}
	t.Logf("HE round trip: %d B allocated per item; one ciphertext is %d B", perItem, size)
}
