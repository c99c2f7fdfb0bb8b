package core

// The device TA's one command table: the speaker's and the doorbell's TA
// answer the same eight command IDs, 0x20–0x27, and nothing else.

import (
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

// deviceTAState is the TA state a rejected command must leave untouched.
func deviceTAState(ta *DeviceTA) string {
	return fmt.Sprintf("processed=%d version=%d epoch=%d msg=%d pending=%v",
		ta.count(), ta.ModelVersion(), ta.KeyEpoch(), ta.messageID.Load(), ta.PendingTokens())
}

// TestUnknownCommandsRejected: under both profiles, every command ID
// outside the table, the doorbell's former 0x31–0x35 among them, is
// rejected with ErrBadParam and changes no TA state.
func TestUnknownCommandsRejected(t *testing.T) {
	speaker, err := NewSystem(Config{Mode: ModeSecureFilter, Seed: 5, DeviceID: "dev", AttestKeySeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	doorbell, sess := newFuzzCamera(t, ModeSecureFilter, true)
	tas := []struct {
		kind string
		ta   *DeviceTA
		sess *teec.Session
	}{
		{"speaker", speaker.VoiceTA, openVoiceTA(t, speaker)},
		{"doorbell", doorbell.TA, sess},
	}
	ids := []uint32{0x1000, 0x10020, 1<<32 - 1}
	for id := uint32(0); id < 0x100; id++ {
		if id < CmdProcessItem || id > CmdResumeBatchHE {
			ids = append(ids, id)
		}
	}
	layouts := []func() *optee.Params{
		func() *optee.Params { return &optee.Params{} },
		frameItem,
		func() *optee.Params {
			return &optee.Params{
				{Type: optee.MemrefIn, Buf: make([]byte, len(attest.Nonce{}))},
				{Type: optee.MemrefOut, Buf: make([]byte, 512)},
				{},
			}
		},
	}
	for _, d := range tas {
		t.Run(d.kind, func(t *testing.T) {
			before := deviceTAState(d.ta)
			for _, id := range ids {
				for _, layout := range layouts {
					if err := d.sess.InvokeCommand(id, layout()); !errors.Is(err, optee.ErrBadParam) {
						t.Fatalf("cmd %#x: err = %v, want ErrBadParam", id, err)
					}
				}
			}
			if after := deviceTAState(d.ta); after != before {
				t.Fatalf("unknown commands changed TA state: %s -> %s", before, after)
			}
			// The table's own lifecycle command still serves the layout.
			if err := d.sess.InvokeCommand(CmdAttest, layouts[2]()); err != nil {
				t.Fatalf("CmdAttest: %v", err)
			}
		})
	}
	if got := len(doorbell.PTA.Truth()); got != 0 {
		t.Fatalf("unknown commands grabbed %d frames", got)
	}
}

// TestDoorbellStagedCommandsBadState: a doorbell stages no group, so it
// answers the staged commands with ErrBadState, however well formed.
func TestDoorbellStagedCommandsBadState(t *testing.T) {
	sys, sess := newFuzzCamera(t, ModeSecureFilter, true)
	before := deviceTAState(sys.TA)
	p := &optee.Params{{Type: optee.MemrefIn, Buf: lengthTable(cameraFrameBytes)}, {}}
	if err := sess.InvokeCommand(CmdTranscribeBatch, p); !errors.Is(err, optee.ErrBadState) {
		t.Fatalf("CmdTranscribeBatch: err = %v, want ErrBadState", err)
	}
	p = &optee.Params{{Type: optee.MemrefIn, Buf: make([]byte, 5)}, {Type: optee.ValueIn}, {}}
	if err := sess.InvokeCommand(CmdResumeBatch, p); !errors.Is(err, optee.ErrBadState) {
		t.Fatalf("CmdResumeBatch: err = %v, want ErrBadState", err)
	}
	if after := deviceTAState(sys.TA); after != before || len(sys.PTA.Truth()) != 0 {
		t.Fatalf("staged commands changed TA state: %s -> %s, %d frames grabbed", before, after, len(sys.PTA.Truth()))
	}
}

// TestDoorbellBatchMatchesItems: a doorbell's CmdProcessBatch of two
// frames reaches the verdicts, relay outcomes and sealed sizes that two
// CmdProcessItem calls reach on a twin doorbell; a batch of more frames
// than the sensor holds grabs none of them.
func TestDoorbellBatchMatchesItems(t *testing.T) {
	batched, batchSess := newFuzzCamera(t, ModeSecureFilter, true)
	single, singleSess := newFuzzCamera(t, ModeSecureFilter, true)

	p := &optee.Params{{Type: optee.MemrefIn, Buf: lengthTable(cameraFrameBytes, cameraFrameBytes, cameraFrameBytes)}, {}}
	if err := batchSess.InvokeCommand(CmdProcessBatch, p); !errors.Is(err, optee.ErrBadParam) {
		t.Fatalf("batch of 3 frames from a sensor holding 2: err = %v, want ErrBadParam", err)
	}
	if got := len(batched.PTA.Truth()); got != 0 {
		t.Fatalf("rejected batch grabbed %d frames", got)
	}
	p = &optee.Params{{Type: optee.MemrefIn, Buf: lengthTable(cameraFrameBytes, cameraFrameBytes)}, {}}
	if err := batchSess.InvokeCommand(CmdProcessBatch, p); err != nil {
		t.Fatal(err)
	}
	forwarded := p[1].A
	for range 2 {
		p := frameItem()
		if err := singleSess.InvokeCommand(CmdProcessItem, p); err != nil {
			t.Fatal(err)
		}
		forwarded -= p[1].A
	}
	if forwarded != 0 {
		t.Fatalf("batch forwarded %d more frames than the single commands", forwarded)
	}
	type outcome struct {
		flagged bool
		relay   RelayOutcome
		capture int
	}
	outcomes := func(ta *DeviceTA) []outcome {
		var out []outcome
		for _, rec := range ta.Processed() {
			out = append(out, outcome{rec.Flagged, rec.RelayOutcome, rec.CaptureBytes})
		}
		return out
	}
	got, want := outcomes(batched.TA), outcomes(single.TA)
	if len(got) != 2 || !reflect.DeepEqual(got, want) {
		t.Fatalf("batched frames %+v, single frames %+v", got, want)
	}
	if got[0].flagged == got[1].flagged {
		t.Fatalf("both frames flagged %t (test is vacuous)", got[0].flagged)
	}
}

// TestFrameCommandAllocs holds a forwarded secure-filter frame command —
// grab, classify, seal and relay — to the 27 allocations it made before
// the doorbell moved onto the device TA's command table.
func TestFrameCommandAllocs(t *testing.T) {
	sys, sess := newFuzzCamera(t, ModeSecureFilter, true)
	empty := make([]peripheral.Scene, 200)
	for i := range empty {
		empty[i] = peripheral.SceneEmpty
	}
	sys.Camera.Queue(empty...)
	for range 20 {
		if err := sess.InvokeCommand(CmdProcessItem, frameItem()); err != nil {
			t.Fatal(err)
		}
	}
	before := sys.TA.messageID.Load()
	allocs := collectedAllocsPerRun(100, func() {
		if err := sess.InvokeCommand(CmdProcessItem, frameItem()); err != nil {
			t.Fatal(err)
		}
	})
	if relayed := sys.TA.messageID.Load() - before; relayed != 101 {
		t.Fatalf("%d of 101 empty frames relayed (test measures the wrong path)", relayed)
	}
	if allocs > 27 {
		t.Errorf("a frame command allocates %v times, want at most 27", allocs)
	}
}

// TestStagedGroupSurvivesInlineCommand: a processing command issued
// while a group is staged runs over the TA's own scratch and leaves the
// staged group's records and tokens alone, so the resume relays them.
func TestStagedGroupSurvivesInlineCommand(t *testing.T) {
	utts, err := sensitive.Generate(sensitive.GenConfig{N: 3, SensitiveFraction: 0.5, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(Config{Mode: ModeSecureFilter, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	sess := openVoiceTA(t, sys)
	lens, err := sys.queueGroup(new(sessionScratch), 0, utts[:2])
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.InvokeCommand(CmdTranscribeBatch, &optee.Params{{Type: optee.MemrefIn, Buf: lens}, {}}); err != nil {
		t.Fatal(err)
	}
	staged := sys.VoiceTA.PendingTokens()
	recs := append([]ItemRecord(nil), sys.VoiceTA.pendingRecs...)
	one, err := sys.queueGroup(new(sessionScratch), 2, utts[2:])
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.InvokeCommand(CmdProcessBatch, &optee.Params{{Type: optee.MemrefIn, Buf: one}, {}}); err != nil {
		t.Fatal(err)
	}
	if got := sys.VoiceTA.PendingTokens(); !reflect.DeepEqual(got, staged) {
		t.Fatalf("inline command changed the staged tokens: %v, want %v", got, staged)
	}
	if got := sys.VoiceTA.pendingRecs; !reflect.DeepEqual(got, recs) {
		t.Fatalf("inline command changed the staged records: %+v, want %+v", got, recs)
	}
	p := &optee.Params{{Type: optee.MemrefIn, Buf: make([]byte, 10)}, {Type: optee.ValueIn}, {}}
	if err := sess.InvokeCommand(CmdResumeBatch, p); err != nil {
		t.Fatal(err)
	}
	logged := sys.VoiceTA.Processed()
	if len(logged) != 3 || !reflect.DeepEqual(logged[1].Transcript, recs[0].Transcript) {
		t.Fatalf("resumed group logged %d records, want the staged 2 after the inline 1", len(logged))
	}
}
