package core

// The voice TA's Invoke is an untrusted interface: the paper's threat
// model is a compromised normal world, so any command ID, parameter list
// or staged/resume order must end in an error, never a panic, a runaway
// allocation or a lost staged group.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/attest"
	"repro/internal/optee"
	"repro/internal/peripheral"
	"repro/internal/sensitive"
	"repro/internal/teec"
)

// openVoiceTA opens a processing session to the system's voice TA.
func openVoiceTA(t testing.TB, sys *System) *teec.Session {
	t.Helper()
	ctx := teec.InitializeContext(sys.TEE)
	sess, err := ctx.OpenSession(UUIDVoiceTA)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ctx.FinalizeContext() })
	return sess
}

func lengthTable(lengths ...uint32) []byte {
	var buf []byte
	for _, n := range lengths {
		buf = binary.LittleEndian.AppendUint32(buf, n)
	}
	return buf
}

// TestOversizedGroupRejected: a group whose wire bytes exceed the
// controller FIFO is rejected with ErrBadParam before capture reserves a
// buffer for it.
func TestOversizedGroupRejected(t *testing.T) {
	sys, err := NewSystem(Config{Mode: ModeSecureFilter, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sess := openVoiceTA(t, sys)
	cases := []struct {
		name string
		cmd  uint32
		p    optee.Params
	}{
		{"utterance 1<<62", CmdProcessItem, optee.Params{{Type: optee.ValueIn, A: 1 << 62}}},
		{"utterance 1<<30", CmdProcessItem, optee.Params{{Type: optee.ValueIn, A: 1 << 30}}},
		{"batch 1<<30", CmdProcessBatch, optee.Params{{Type: optee.MemrefIn, Buf: lengthTable(3200, 1<<30)}}},
		{"batch sum over FIFO", CmdProcessBatch, optee.Params{{Type: optee.MemrefIn, Buf: lengthTable(ControllerFIFOBytes/2, ControllerFIFOBytes/2+2)}}},
		{"transcribe 1<<30", CmdTranscribeBatch, optee.Params{{Type: optee.MemrefIn, Buf: lengthTable(1 << 30)}}},
		{"transcribe max uint32", CmdTranscribeBatch, optee.Params{{Type: optee.MemrefIn, Buf: lengthTable(^uint32(0), ^uint32(0))}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.p
			err := sess.InvokeCommand(tc.cmd, &p)
			if !errors.Is(err, optee.ErrBadParam) {
				t.Fatalf("err = %v, want ErrBadParam", err)
			}
		})
	}
	if got := sys.VoiceTA.PendingTokens(); len(got) != 0 {
		t.Fatalf("rejected transcribe staged %d groups", len(got))
	}
}

// TestMalformedResumeKeepsGroupStaged: a resume with the wrong verdict
// count, or with verdicts the TA cannot decode, is rejected and leaves
// the staged group in place, so a well-formed retry completes it.
func TestMalformedResumeKeepsGroupStaged(t *testing.T) {
	utts, err := sensitive.Generate(sensitive.GenConfig{N: 2, SensitiveFraction: 0.5, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	garbageBlob := lengthPrefixed([]byte{1, 2, 3}, []byte{4, 5, 6})
	cases := []struct {
		mode      Mode
		malformed []optee.Params // each sent directly through VoiceTA.Invoke
		cmd       uint32
	}{
		{ModeSecureFilter, []optee.Params{
			{{Type: optee.MemrefIn, Buf: make([]byte, 5)}, {Type: optee.ValueIn}},
			{{Type: optee.MemrefIn, Buf: make([]byte, 15)}, {Type: optee.ValueIn}},
		}, CmdResumeBatch},
		{ModeHybridHE, []optee.Params{
			{{Type: optee.MemrefIn, Buf: lengthPrefixed([]byte{1})}},
			{{Type: optee.MemrefIn, Buf: garbageBlob}},
		}, CmdResumeBatchHE},
	}
	for _, tc := range cases {
		t.Run(tc.mode.String(), func(t *testing.T) {
			sys, err := NewSystem(Config{Mode: tc.mode, Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			st, err := sys.beginSession(utts, 2, false)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Abort()
			pg, err := st.stage(new(sessionScratch))
			if err != nil {
				t.Fatal(err)
			}
			staged := sys.VoiceTA.PendingTokens()
			if len(staged) != 2 {
				t.Fatalf("staged %d token sets, want 2", len(staged))
			}
			for i, p := range tc.malformed {
				err := sys.VoiceTA.Invoke(0, tc.cmd, &p)
				if i == 0 && !errors.Is(err, optee.ErrBadParam) {
					t.Fatalf("short resume: err = %v, want ErrBadParam", err)
				}
				if err == nil {
					t.Fatalf("malformed resume %d accepted", i)
				}
				if got := sys.VoiceTA.PendingTokens(); !reflect.DeepEqual(got, staged) {
					t.Fatalf("malformed resume %d changed the staged group: %v, want %v", i, got, staged)
				}
			}
			if tc.mode == ModeSecureFilter {
				err = st.ResumeGroup(pg, make([]bool, 2), []int{2, 2}, 0)
			} else {
				var blobs []byte
				if blobs, err = sys.heClassify(new(sessionScratch), pg.Tokens); err == nil {
					err = st.invoke(pg, CmdResumeBatchHE, &optee.Params{{Type: optee.MemrefIn, Buf: blobs}})
				}
			}
			if err != nil {
				t.Fatalf("well-formed resume after rejections: %v", err)
			}
			res, err := st.Finish()
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Utterances) != 2 || len(sys.VoiceTA.Processed()) != 2 {
				t.Fatalf("%d outcomes, %d TA records; want 2 each", len(res.Utterances), len(sys.VoiceTA.Processed()))
			}
		})
	}
}

// TestOutOfOrderStagedCallsBadState: a hostile normal world calling the
// staged commands out of order gets a typed ErrBadState, and a group that
// was staged survives the rejected calls and then resumes normally. The
// StagedSession driver refuses the same misuse with the same error.
func TestOutOfOrderStagedCallsBadState(t *testing.T) {
	utts, err := sensitive.Generate(sensitive.GenConfig{N: 4, SensitiveFraction: 0.5, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(Config{Mode: ModeSecureFilter, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	verdicts := func(n int) *optee.Params {
		return &optee.Params{{Type: optee.MemrefIn, Buf: make([]byte, 5*n)}, {Type: optee.ValueIn}}
	}
	if err := sys.VoiceTA.Invoke(0, CmdResumeBatch, verdicts(2)); !errors.Is(err, optee.ErrBadState) {
		t.Fatalf("resume with nothing staged: err = %v, want ErrBadState", err)
	}

	st, err := sys.beginSession(utts, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Abort()
	pg, err := st.CaptureGroup()
	if err != nil {
		t.Fatal(err)
	}
	staged := sys.VoiceTA.PendingTokens()
	// Queue the next group's audio, then try to stage it over the first.
	lens, err := sys.queueGroup(new(sessionScratch), 2, utts[2:])
	if err != nil {
		t.Fatal(err)
	}
	err = sys.VoiceTA.Invoke(0, CmdTranscribeBatch, &optee.Params{{Type: optee.MemrefIn, Buf: lens}})
	if !errors.Is(err, optee.ErrBadState) {
		t.Fatalf("transcribe over a staged group: err = %v, want ErrBadState", err)
	}
	if got := sys.VoiceTA.PendingTokens(); !reflect.DeepEqual(got, staged) {
		t.Fatalf("rejected transcribe changed the staged group: %v, want %v", got, staged)
	}
	if _, err := st.CaptureGroup(); !errors.Is(err, optee.ErrBadState) {
		t.Fatalf("capture before resume: err = %v, want ErrBadState", err)
	}
	if _, err := st.Finish(); !errors.Is(err, optee.ErrBadState) {
		t.Fatalf("finish with a group pending: err = %v, want ErrBadState", err)
	}

	if err := st.ResumeGroup(pg, make([]bool, 2), []int{2, 2}, 0); err != nil {
		t.Fatalf("resume after rejected calls: %v", err)
	}
	if err := sys.VoiceTA.Invoke(0, CmdResumeBatch, verdicts(2)); !errors.Is(err, optee.ErrBadState) {
		t.Fatalf("second resume: err = %v, want ErrBadState", err)
	}
	if err := st.ResumeGroup(pg, make([]bool, 2), []int{2, 2}, 0); !errors.Is(err, optee.ErrBadState) {
		t.Fatalf("second session resume: err = %v, want ErrBadState", err)
	}
	if n := len(sys.VoiceTA.Processed()); n != 2 {
		t.Fatalf("%d TA records after one resumed group, want 2", n)
	}
}

// TestSharedClassifyInlineKeepsGroup: a shared-classify speaker runs no
// per-device classifier, so the inline commands are rejected with
// ErrBadState before capture drains the FIFO. The group's audio is still
// queued, and a staged transcribe of the same lengths takes all of it.
func TestSharedClassifyInlineKeepsGroup(t *testing.T) {
	utts, err := sensitive.Generate(sensitive.GenConfig{N: 2, SensitiveFraction: 0.5, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(Config{Mode: ModeSecureFilter, Seed: 5, SharedClassify: true})
	if err != nil {
		t.Fatal(err)
	}
	sess := openVoiceTA(t, sys)
	lens, err := sys.queueGroup(new(sessionScratch), 0, utts)
	if err != nil {
		t.Fatal(err)
	}
	p := optee.Params{{Type: optee.MemrefIn, Buf: lens}}
	if err := sess.InvokeCommand(CmdProcessBatch, &p); !errors.Is(err, optee.ErrBadState) {
		t.Fatalf("inline batch on a shared-classify TA: err = %v, want ErrBadState", err)
	}
	p = optee.Params{{Type: optee.ValueIn, A: uint64(binary.LittleEndian.Uint32(lens))}}
	if err := sess.InvokeCommand(CmdProcessItem, &p); !errors.Is(err, optee.ErrBadState) {
		t.Fatalf("inline utterance on a shared-classify TA: err = %v, want ErrBadState", err)
	}
	p = optee.Params{{Type: optee.MemrefIn, Buf: lens}}
	if err := sess.InvokeCommand(CmdTranscribeBatch, &p); err != nil {
		t.Fatalf("staged transcribe of the rejected group: %v", err)
	}
	if got := sys.VoiceTA.PendingTokens(); len(got) != len(utts) {
		t.Fatalf("staged %d token sets, want %d", len(got), len(utts))
	}
}

// frameItem is a doorbell's CmdProcessItem parameters: one frame, passed
// by value.
func frameItem() *optee.Params {
	return &optee.Params{{Type: optee.ValueIn, A: cameraFrameBytes}, {}}
}

// TestCameraClosedPTAKeepsFrame: a frame command on a camera whose
// capture PTA is not open is rejected with ErrBadState before the sensor
// is read, so no frame is taken off it; once the PTA opens, the next
// frame is the first one queued.
func TestCameraClosedPTAKeepsFrame(t *testing.T) {
	sys, err := NewCameraSystem(CameraConfig{Mode: ModeSecureFilter, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	sys.Camera.Queue(peripheral.ScenePerson, peripheral.SceneEmpty)
	ctx := teec.InitializeContext(sys.TEE)
	defer func() { _ = ctx.FinalizeContext() }()
	sess, err := ctx.OpenSession(UUIDDoorbellTA)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.InvokeCommand(CmdProcessItem, frameItem()); !errors.Is(err, optee.ErrBadState) {
		t.Fatalf("frame with the capture PTA closed: err = %v, want ErrBadState", err)
	}
	if got := sys.PTA.Truth(); len(got) != 0 {
		t.Fatalf("rejected frame command took %v off the sensor", got)
	}
	if err := sys.PTA.Open(0); err != nil {
		t.Fatal(err)
	}
	if err := sess.InvokeCommand(CmdProcessItem, frameItem()); err != nil {
		t.Fatal(err)
	}
	if got := sys.PTA.Truth(); len(got) != 1 || got[0] != peripheral.ScenePerson {
		t.Fatalf("first frame after opening the PTA: %v, want [person]", got)
	}
}

// FuzzVoiceTAInvoke drives a short sequence of commands from a hostile
// normal world into the voice TA of a secure-filter, hybrid-he or
// shared-classify secure-filter system (mode byte 0, 1, 2, modulo 3)
// whose FIFO already holds two utterances. Each op is encoded as
// [cmd][slot-0 type][A: 8 bytes LE][len: 2 bytes LE][len bytes]; slot 1
// carries A as a ValueIn (the resume wait). Contract: no panic; a
// rejected call returns an error wrapping ErrBadParam (the input) or
// ErrBadState (the TA's state), as FuzzCameraTAInvoke requires of the
// camera TA; and a rejected resume leaves the staged group unchanged.
func FuzzVoiceTAInvoke(f *testing.F) {
	utts, err := sensitive.Generate(sensitive.GenConfig{N: 2, SensitiveFraction: 0.5, Seed: 12})
	if err != nil {
		f.Fatal(err)
	}
	probe, err := NewSystem(Config{Mode: ModeBaseline, Seed: 5})
	if err != nil {
		f.Fatal(err)
	}
	lens, err := probe.queueGroup(new(sessionScratch), 0, utts)
	if err != nil {
		f.Fatal(err)
	}
	op := func(cmd uint32, typ optee.ParamType, a uint64, buf []byte) []byte {
		out := []byte{byte(cmd), byte(typ)}
		out = binary.LittleEndian.AppendUint64(out, a)
		out = binary.LittleEndian.AppendUint16(out, uint16(len(buf)))
		return append(out, buf...)
	}
	cat := func(ops ...[]byte) []byte {
		var out []byte
		for _, o := range ops {
			out = append(out, o...)
		}
		return out
	}
	// The two length-bound inputs.
	f.Add(byte(0), op(CmdProcessItem, optee.ValueIn, 1<<62, nil))
	f.Add(byte(0), op(CmdProcessBatch, optee.MemrefIn, 0, lengthTable(1<<30)))
	f.Add(byte(0), op(CmdTranscribeBatch, optee.MemrefIn, 0, lengthTable(1<<30)))
	// Stage the queued group, then a short verdict table and a retry.
	staged := op(CmdTranscribeBatch, optee.MemrefIn, 0, lens)
	f.Add(byte(0), cat(staged, op(CmdResumeBatch, optee.MemrefIn, 0, make([]byte, 5)), op(CmdResumeBatch, optee.MemrefIn, 0, make([]byte, 10))))
	f.Add(byte(1), cat(staged, op(CmdResumeBatchHE, optee.MemrefIn, 0, lengthPrefixed([]byte{1}))))
	// A well-counted batch of corrupt ciphertexts.
	f.Add(byte(1), cat(staged, op(CmdResumeBatchHE, optee.MemrefIn, 0, lengthPrefixed([]byte{1}, []byte{1}))))
	f.Add(byte(1), cat(staged, op(CmdResumeBatch, optee.MemrefIn, 7, []byte{1, 2, 0, 0, 0, 0, 2, 0, 0, 0})))
	f.Add(byte(0), cat(op(CmdProcessBatch, optee.MemrefIn, 0, lens), op(0x99, optee.ValueIn, 0, nil)))
	// An utterance length that splits a wire frame.
	f.Add(byte(0), op(CmdProcessItem, optee.ValueIn, 12337, nil))
	// More audio declared than the FIFO holds: capture stalls.
	f.Add(byte(0), op(CmdProcessItem, optee.ValueIn, 274480, nil))
	// An inline group on a shared-classify TA, then the staged retry.
	f.Add(byte(2), cat(op(CmdProcessBatch, optee.MemrefIn, 0, lens), staged))

	f.Fuzz(func(t *testing.T, mode byte, ops []byte) {
		cfg := Config{Mode: ModeSecureFilter, Seed: 5}
		switch mode % 3 {
		case 1:
			cfg.Mode = ModeHybridHE
		case 2:
			cfg.SharedClassify = true
		}
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sess := openVoiceTA(t, sys)
		if _, err := sys.queueGroup(new(sessionScratch), 0, utts); err != nil {
			t.Fatal(err)
		}
		for n := 0; len(ops) >= 12 && n < 4; n++ {
			cmd, typ, a := uint32(ops[0]), optee.ParamType(ops[1]%7), binary.LittleEndian.Uint64(ops[2:])
			size := min(int(binary.LittleEndian.Uint16(ops[10:])), len(ops)-12)
			buf := ops[12 : 12+size]
			ops = ops[12+size:]
			p := optee.Params{{Type: typ, A: a}, {Type: optee.ValueIn, A: a}}
			if typ.IsMemref() {
				p[0].Buf = buf
			}
			before := sys.VoiceTA.PendingTokens()
			err := sess.InvokeCommand(cmd, &p)
			if err != nil && !errors.Is(err, optee.ErrBadParam) && !errors.Is(err, optee.ErrBadState) {
				t.Fatalf("cmd %#x rejected with an untyped error: %v", cmd, err)
			}
			if err != nil && (cmd == CmdResumeBatch || cmd == CmdResumeBatchHE) {
				if after := sys.VoiceTA.PendingTokens(); !reflect.DeepEqual(after, before) {
					t.Fatalf("rejected resume (%v) changed the staged group: %v -> %v", err, before, after)
				}
			}
		}
	})
}

// cameraTAState is the camera TA state a rejected command must leave
// untouched.
func cameraTAState(sys *CameraSystem) string {
	ta := sys.TA
	mid := ta.messageID.Load()
	return fmt.Sprintf("processed=%d version=%d epoch=%d msg=%d grabbed=%d",
		len(ta.Processed()), ta.ModelVersion(), ta.KeyEpoch(), mid, len(sys.PTA.Truth()))
}

// cameraParamsWellShaped reports whether p has the slot types and buffer
// lengths cmd's documented layout requires of a doorbell; a call that
// fails it must be rejected with ErrBadParam.
func cameraParamsWellShaped(cmd uint32, p *optee.Params) bool {
	in := func(i int) bool { return p[i].Type == optee.MemrefIn && len(p[i].Buf) > 0 }
	switch cmd {
	case CmdProcessItem:
		return p[0].Type == optee.ValueIn && p[0].A == cameraFrameBytes
	case CmdProcessBatch:
		if !in(0) || len(p[0].Buf)%4 != 0 || len(p[0].Buf)/4 > MaxBatch {
			return false
		}
		for i := 0; i < len(p[0].Buf); i += 4 {
			if binary.LittleEndian.Uint32(p[0].Buf[i:]) != cameraFrameBytes {
				return false
			}
		}
		return true
	case CmdResumeBatchHE:
		if !in(0) || p[1].Type != optee.MemrefIn {
			return false
		}
		blobs, err := splitLengthPrefixed(p[0].Buf)
		return err == nil && len(blobs) <= MaxBatch && len(p[1].Buf) == len(blobs)*cameraFrameBytes
	case CmdAttest:
		return in(0) && len(p[0].Buf) == len(attest.Nonce{}) && p[1].Type == optee.MemrefOut && p[1].Buf != nil
	case CmdUpdateModel:
		return in(0) && in(1)
	case CmdRotateKey:
		return in(0)
	}
	return false
}

// newFuzzCamera builds an attested camera whose sensor holds a person
// frame then an empty one, with a TA session and (if openPTA) the
// capture PTA open.
func newFuzzCamera(t testing.TB, mode Mode, openPTA bool) (*CameraSystem, *teec.Session) {
	t.Helper()
	sys, err := NewCameraSystem(CameraConfig{Mode: mode, Seed: 11, DeviceID: "cam-0", AttestKeySeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	sys.Camera.Queue(peripheral.ScenePerson, peripheral.SceneEmpty)
	if openPTA {
		if err := sys.PTA.Open(0); err != nil {
			t.Fatal(err)
		}
	}
	ctx := teec.InitializeContext(sys.TEE)
	sess, err := ctx.OpenSession(UUIDDoorbellTA)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ctx.FinalizeContext() })
	return sys, sess
}

// FuzzCameraTAInvoke drives a short sequence of commands from a hostile
// normal world into a live doorbell TA: the mode byte's bit 0 selects
// hybrid-he (the HE handoff armed) over secure-filter, and bit 1 leaves
// the capture PTA closed until the final frame. Each op is encoded as [cmd][slot-0 type]
// [slot-1 type][A: 8 bytes LE][len0: 2 bytes LE][len1: 2 bytes LE]
// [len0 bytes][len1 bytes]; slot 2 carries A as a ValueIn. Contract: no
// call panics; a rejected call returns an error wrapping ErrBadParam (the
// input) or ErrBadState (the TA's state) — ErrBadParam whenever the slot
// types or buffer lengths break the command's layout, ErrBadState for
// the staged commands a doorbell does not serve — and changes no TA
// state; and a well-formed CmdProcessItem afterwards gives the verdict a
// fresh TA gives for the same frame, or ErrBadParam once the sensor is
// empty.
func FuzzCameraTAInvoke(f *testing.F) {
	// Reference verdicts: a fresh TA processing both queued frames.
	_, refSess := newFuzzCamera(f, ModeSecureFilter, true)
	var verdicts []uint64
	for i := 0; i < 2; i++ {
		p := frameItem()
		if err := refSess.InvokeCommand(CmdProcessItem, p); err != nil {
			f.Fatal(err)
		}
		verdicts = append(verdicts, p[1].A)
	}
	if err := refSess.InvokeCommand(CmdProcessItem, frameItem()); !errors.Is(err, optee.ErrBadParam) {
		f.Fatalf("frame from an empty sensor: err = %v, want ErrBadParam", err)
	}

	op := func(cmd uint32, t0, t1 optee.ParamType, a uint64, b0, b1 []byte) []byte {
		out := []byte{byte(cmd), byte(t0), byte(t1)}
		out = binary.LittleEndian.AppendUint64(out, a)
		out = binary.LittleEndian.AppendUint16(out, uint16(len(b0)))
		out = binary.LittleEndian.AppendUint16(out, uint16(len(b1)))
		return append(append(out, b0...), b1...)
	}
	frame := make([]byte, cameraFrameBytes)
	blob := lengthPrefixed([]byte{1, 2, 3})
	f.Add(byte(0), op(CmdProcessItem, optee.ValueIn, optee.ParamNone, cameraFrameBytes, nil, nil))
	f.Add(byte(0), op(CmdProcessItem, optee.ValueIn, optee.ParamNone, 1, nil, nil))
	f.Add(byte(0), op(CmdProcessItem, optee.MemrefIn, optee.MemrefOut, 1, []byte{1}, []byte{2}))
	f.Add(byte(0), op(CmdProcessBatch, optee.MemrefIn, optee.ParamNone, 0, lengthTable(cameraFrameBytes, cameraFrameBytes), nil))
	// More frames than the sensor holds: none is grabbed.
	f.Add(byte(0), op(CmdProcessBatch, optee.MemrefIn, optee.ParamNone, 0, lengthTable(cameraFrameBytes, cameraFrameBytes, cameraFrameBytes), nil))
	f.Add(byte(0), op(CmdProcessBatch, optee.MemrefIn, optee.ParamNone, 0, lengthTable(cameraFrameBytes, 3200), nil))
	f.Add(byte(0), op(CmdTranscribeBatch, optee.MemrefIn, optee.ParamNone, 0, lengthTable(cameraFrameBytes), nil))
	f.Add(byte(0), op(CmdResumeBatch, optee.MemrefIn, optee.ValueIn, 0, make([]byte, 5), nil))
	f.Add(byte(0), op(CmdResumeBatchHE, optee.MemrefIn, optee.MemrefIn, 0, blob, frame))
	f.Add(byte(1), op(CmdResumeBatchHE, optee.MemrefIn, optee.MemrefIn, 0, blob, frame))
	f.Add(byte(1), op(CmdResumeBatchHE, optee.MemrefIn, optee.MemrefIn, 0, blob, frame[:7]))
	f.Add(byte(1), op(CmdResumeBatchHE, optee.MemrefIn, optee.MemrefIn, 0, []byte{1, 2, 3}, frame))
	f.Add(byte(0), op(CmdAttest, optee.MemrefIn, optee.MemrefOut, 0, make([]byte, 32), make([]byte, 8)))
	f.Add(byte(0), op(CmdAttest, optee.MemrefIn, optee.MemrefOut, 0, make([]byte, 32), make([]byte, 512)))
	f.Add(byte(0), op(CmdUpdateModel, optee.MemrefIn, optee.MemrefIn, 0, (attest.Pack{Version: 2}).Encode(), []byte{9}))
	f.Add(byte(0), op(CmdUpdateModel, optee.MemrefIn, optee.MemrefIn, 0, (attest.Pack{Version: 2, Image: []byte{1}}).Encode(),
		attest.ManifestToken{DeviceID: "cam-0", Version: 2}.Marshal()))
	f.Add(byte(0), op(CmdRotateKey, optee.MemrefIn, optee.ParamNone, 0, []byte{1, 2}, nil))
	f.Add(byte(1), op(0x99, optee.ValueIn, optee.ValueOut, 3, nil, nil))
	// The doorbell's former command IDs are unknown commands.
	f.Add(byte(0), op(0x31, optee.ParamNone, optee.ParamNone, 0, nil, nil))
	f.Add(byte(0), op(0x32, optee.MemrefIn, optee.MemrefOut, 0, make([]byte, 32), make([]byte, 512)))
	f.Add(byte(0), op(0x33, optee.MemrefIn, optee.MemrefIn, 0, (attest.Pack{Version: 2}).Encode(), []byte{9}))
	f.Add(byte(0), op(0x34, optee.MemrefIn, optee.ParamNone, 0, []byte{1, 2}, nil))
	f.Add(byte(1), op(0x35, optee.MemrefIn, optee.MemrefIn, 0, []byte{1, 2, 3}, frame))
	// A frame command with the capture PTA closed.
	f.Add(byte(2), op(CmdProcessItem, optee.ValueIn, optee.ParamNone, cameraFrameBytes, nil, nil))

	f.Fuzz(func(t *testing.T, mode byte, ops []byte) {
		teeMode, ptaClosed := ModeSecureFilter, mode&2 != 0
		if mode&1 != 0 {
			teeMode = ModeHybridHE
		}
		sys, sess := newFuzzCamera(t, teeMode, !ptaClosed)
		for n := 0; len(ops) >= 15 && n < 4; n++ {
			cmd := uint32(ops[0])
			t0, t1 := optee.ParamType(ops[1]%7), optee.ParamType(ops[2]%7)
			a := binary.LittleEndian.Uint64(ops[3:])
			n0 := min(int(binary.LittleEndian.Uint16(ops[11:])), len(ops)-15)
			n1 := min(int(binary.LittleEndian.Uint16(ops[13:])), len(ops)-15-n0)
			b0, b1 := ops[15:15+n0], ops[15+n0:15+n0+n1]
			ops = ops[15+n0+n1:]
			p := optee.Params{{Type: t0, A: a}, {Type: t1, A: a}, {Type: optee.ValueIn, A: a}}
			if t0.IsMemref() {
				p[0].Buf = b0
			}
			if t1.IsMemref() {
				p[1].Buf = b1
			}
			shaped := cameraParamsWellShaped(cmd, &p)
			staged := cmd == CmdTranscribeBatch || cmd == CmdResumeBatch
			before := cameraTAState(sys)
			err := sess.InvokeCommand(cmd, &p)
			if staged && !errors.Is(err, optee.ErrBadState) {
				t.Fatalf("staged cmd %#x on a doorbell: err = %v, want ErrBadState", cmd, err)
			}
			if err == nil {
				continue
			}
			if !errors.Is(err, optee.ErrBadParam) && !errors.Is(err, optee.ErrBadState) {
				t.Fatalf("cmd %#x rejected with an untyped error: %v", cmd, err)
			}
			if !staged && !shaped && !errors.Is(err, optee.ErrBadParam) {
				t.Fatalf("cmd %#x with a malformed layout: err = %v, want ErrBadParam", cmd, err)
			}
			if after := cameraTAState(sys); after != before {
				t.Fatalf("rejected cmd %#x (%v) changed TA state: %s -> %s", cmd, err, before, after)
			}
		}
		if ptaClosed {
			if err := sys.PTA.Open(0); err != nil {
				t.Fatal(err)
			}
		}
		grabbed := len(sys.PTA.Truth())
		p := frameItem()
		err := sess.InvokeCommand(CmdProcessItem, p)
		if grabbed >= len(verdicts) {
			if !errors.Is(err, optee.ErrBadParam) {
				t.Fatalf("frame from an empty sensor after the sequence: err = %v, want ErrBadParam", err)
			}
			return
		}
		if err != nil {
			t.Fatalf("well-formed CmdProcessItem after the sequence: %v", err)
		}
		if want := verdicts[grabbed]; p[1].A != want {
			t.Fatalf("frame %d verdict %d, a fresh TA gives %d", grabbed, p[1].A, want)
		}
	})
}

// TestVoiceTATypedErrors pins the typed error at every voice TA rejection
// that used to return a bare cause: missing attestation, a mode that does
// not run the requested stage, malformed lifecycle inputs, and group
// lengths the FIFO cannot satisfy. Lifecycle rejections keep the attest
// cause reachable through errors.Is. The lifecycle rows run over the
// camera TA too, which shares the lifecycle.
func TestVoiceTATypedErrors(t *testing.T) {
	unattested, err := NewSystem(Config{Mode: ModeSecureFilter, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	unattestedCam, err := NewCameraSystem(CameraConfig{Mode: ModeSecureFilter, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	noFilter, err := NewSystem(Config{Mode: ModeSecureNoFilter, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	utts, err := sensitive.Generate(sensitive.GenConfig{N: 2, SensitiveFraction: 0.5, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}

	// Capture reads the FIFO through the driver PTA, so commands go through
	// an open session, as the normal world sends them.
	invoke := func(sys *System, cmd uint32, p optee.Params) error {
		return openVoiceTA(t, sys).InvokeCommand(cmd, &p)
	}
	memref := func(b []byte) optee.Param { return optee.Param{Type: optee.MemrefIn, Buf: b} }
	type row struct {
		name  string
		run   func() error
		want  error
		cause error // an attest cause the typed error must still wrap
	}
	// lifecycleRows are one TA's lifecycle rejections: a device with no
	// attestor, and an attested rig whose verifier mints the inputs.
	lifecycleRows := func(prefix string, unattested *taClient, r *attestRig) []row {
		pack, tok := r.packV2(t)
		forgedManifest := tok
		forgedManifest.MAC[0] ^= 0xff
		stale := r.withWeights(attest.Pack{Version: 0, ModelSeed: pack.ModelSeed}, r.weights(pack))
		staleTok, err := r.verifier.Manifest("dev-under-test", stale)
		if err != nil {
			t.Fatal(err)
		}
		// Rotating moves the verifier's key epoch, so every manifest above
		// is minted first.
		rotation, err := r.verifier.Rotate("dev-under-test")
		if err != nil {
			t.Fatal(err)
		}
		forgedRotation := rotation
		forgedRotation.MAC[0] ^= 0xff
		invokeRig := func(cmd uint32, p optee.Params) error {
			ctx := teec.InitializeContext(r.dev.tee)
			defer func() { _ = ctx.FinalizeContext() }()
			sess, err := ctx.OpenSession(r.profile.uuid)
			if err != nil {
				return err
			}
			return sess.InvokeCommand(cmd, &p)
		}
		return []row{
			{prefix + "attest without attestor", func() error {
				_, err := unattested.Attest(attest.Nonce{})
				return err
			}, optee.ErrBadState, nil},
			{prefix + "rotate without attestor", func() error {
				_, err := unattested.RotateKey(rotation)
				return err
			}, optee.ErrBadState, nil},
			{prefix + "update without attestor", func() error {
				return unattested.UpdateModel(pack, tok)
			}, optee.ErrBadState, nil},
			{prefix + "malformed rotation token", func() error {
				return invokeRig(CmdRotateKey, optee.Params{memref([]byte{1, 2, 3})})
			}, optee.ErrBadParam, attest.ErrBadRotation},
			{prefix + "forged rotation token", func() error {
				_, err := r.dev.RotateKey(forgedRotation)
				return err
			}, optee.ErrBadParam, attest.ErrBadRotation},
			{prefix + "malformed pack", func() error {
				return invokeRig(CmdUpdateModel, optee.Params{memref([]byte{9}), memref(tok.Marshal())})
			}, optee.ErrBadParam, attest.ErrBadPack},
			{prefix + "malformed manifest", func() error {
				return invokeRig(CmdUpdateModel, optee.Params{memref(pack.Encode()), memref([]byte{9})})
			}, optee.ErrBadParam, attest.ErrBadManifest},
			{prefix + "forged manifest", func() error {
				return r.dev.UpdateModel(pack, forgedManifest)
			}, optee.ErrBadParam, attest.ErrBadManifest},
			{prefix + "pack older than installed", func() error {
				return r.dev.UpdateModel(stale, staleTok)
			}, optee.ErrBadParam, attest.ErrBadPack},
		}
	}
	rigs := lifecycleRigs(t)
	cases := append(lifecycleRows("", &unattested.taClient, rigs[0]),
		lifecycleRows("camera ", &unattestedCam.taClient, rigs[1])...)
	cases = append(cases, []row{
		{"classifier in no-filter mode", func() error {
			_, err := noFilter.VoiceTA.loadedClassifier()
			return err
		}, optee.ErrBadState, nil},
		{"staged transcribe in no-filter mode", func() error {
			return invoke(noFilter, CmdTranscribeBatch, optee.Params{memref(lengthTable(3200))})
		}, optee.ErrBadState, nil},
		{"HE handoff outside hybrid mode", func() error {
			sys, err := NewSystem(Config{Mode: ModeSecureFilter, Seed: 5})
			if err != nil {
				return err
			}
			sess := openVoiceTA(t, sys)
			lens, err := sys.queueGroup(new(sessionScratch), 0, utts)
			if err != nil {
				return err
			}
			p := optee.Params{memref(lens)}
			if err := sess.InvokeCommand(CmdTranscribeBatch, &p); err != nil {
				return err
			}
			p = optee.Params{memref(lengthPrefixed([]byte{1}, []byte{2}))}
			return sess.InvokeCommand(CmdResumeBatchHE, &p)
		}, optee.ErrBadState, nil},
		{"corrupt HE ciphertexts", func() error {
			sys, err := NewSystem(Config{Mode: ModeHybridHE, Seed: 5})
			if err != nil {
				return err
			}
			sess := openVoiceTA(t, sys)
			lens, err := sys.queueGroup(new(sessionScratch), 0, utts)
			if err != nil {
				return err
			}
			p := optee.Params{memref(lens)}
			if err := sess.InvokeCommand(CmdTranscribeBatch, &p); err != nil {
				return err
			}
			p = optee.Params{memref(lengthPrefixed([]byte{1}, []byte{1}))}
			return sess.InvokeCommand(CmdResumeBatchHE, &p)
		}, optee.ErrBadParam, nil},
		{"length splits a wire frame", func() error {
			return invoke(unattested, CmdProcessItem, optee.Params{{Type: optee.ValueIn, A: 3201}})
		}, optee.ErrBadParam, nil},
		{"batch length splits a wire frame", func() error {
			return invoke(unattested, CmdTranscribeBatch, optee.Params{memref(lengthTable(3200, 7))})
		}, optee.ErrBadParam, nil},
		{"more audio declared than queued", func() error {
			return invoke(unattested, CmdProcessItem, optee.Params{{Type: optee.ValueIn, A: 3200}})
		}, optee.ErrBadParam, nil},
	}...)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.run()
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
			if tc.cause != nil && !errors.Is(err, tc.cause) {
				t.Fatalf("err = %v, want it to wrap %v", err, tc.cause)
			}
		})
	}
	for _, r := range rigs {
		if got := r.dev.ModelVersion(); got != 1 {
			t.Fatalf("%s: rejected updates moved the model version to %d", r.kind, got)
		}
		if got := r.dev.KeyEpoch(); got != 0 {
			t.Fatalf("%s: rejected rotations moved the key epoch to %d", r.kind, got)
		}
	}
}
