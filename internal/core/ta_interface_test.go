package core

// The voice TA's Invoke is an untrusted interface: the paper's threat
// model is a compromised normal world, so any command ID, parameter list
// or staged/resume order must end in an error, never a panic, a runaway
// allocation or a lost staged group.

import (
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"repro/internal/optee"
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
		{"utterance 1<<62", CmdProcessUtterance, optee.Params{{Type: optee.ValueIn, A: 1 << 62}}},
		{"utterance 1<<30", CmdProcessUtterance, optee.Params{{Type: optee.ValueIn, A: 1 << 30}}},
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
	garbageBlob := packLengthPrefixed([][]byte{{1, 2, 3}, {4, 5, 6}})
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
			{{Type: optee.MemrefIn, Buf: packLengthPrefixed([][]byte{{1}})}},
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
				if blobs, err = sys.heClassify(pg.Tokens); err == nil {
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

// FuzzVoiceTAInvoke drives a short sequence of commands from a hostile
// normal world into the voice TA of a secure-filter or hybrid-he system
// whose FIFO already holds two utterances. Each op is encoded as
// [cmd][slot-0 type][A: 8 bytes LE][len: 2 bytes LE][len bytes]; slot 1
// carries A as a ValueIn (the resume wait). Contract: no panic, and a
// rejected resume leaves the staged group unchanged.
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
	f.Add(false, op(CmdProcessUtterance, optee.ValueIn, 1<<62, nil))
	f.Add(false, op(CmdProcessBatch, optee.MemrefIn, 0, lengthTable(1<<30)))
	f.Add(false, op(CmdTranscribeBatch, optee.MemrefIn, 0, lengthTable(1<<30)))
	// Stage the queued group, then a short verdict table and a retry.
	staged := op(CmdTranscribeBatch, optee.MemrefIn, 0, lens)
	f.Add(false, cat(staged, op(CmdResumeBatch, optee.MemrefIn, 0, make([]byte, 5)), op(CmdResumeBatch, optee.MemrefIn, 0, make([]byte, 10))))
	f.Add(true, cat(staged, op(CmdResumeBatchHE, optee.MemrefIn, 0, packLengthPrefixed([][]byte{{1}}))))
	f.Add(true, cat(staged, op(CmdResumeBatch, optee.MemrefIn, 7, []byte{1, 2, 0, 0, 0, 0, 2, 0, 0, 0})))
	f.Add(false, cat(op(CmdProcessBatch, optee.MemrefIn, 0, lens), op(0x99, optee.ValueIn, 0, nil)))

	f.Fuzz(func(t *testing.T, hybrid bool, ops []byte) {
		mode := ModeSecureFilter
		if hybrid {
			mode = ModeHybridHE
		}
		sys, err := NewSystem(Config{Mode: mode, Seed: 5})
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
			if err != nil && (cmd == CmdResumeBatch || cmd == CmdResumeBatchHE) {
				if after := sys.VoiceTA.PendingTokens(); !reflect.DeepEqual(after, before) {
					t.Fatalf("rejected resume (%v) changed the staged group: %v -> %v", err, before, after)
				}
			}
		}
	})
}
