package core

import (
	"fmt"
	"testing"

	"repro/internal/cloud"
	"repro/internal/sensitive"
)

// shedSink models an ingest frontend refusing every delivery under
// admission pressure.
type shedSink struct{ n int }

func (s *shedSink) Deliver([]byte) ([]byte, error) {
	s.n++
	return nil, fmt.Errorf("frontend: %w", cloud.ErrShed)
}

// TestSessionToleratesShedDelivery: a frontend shedding every frame is
// an admission outcome, not a session fault — the run completes, each
// emitted event is marked Shed (still Forwarded: it was emitted and
// paid for), and the session aggregates the count. Speakers and secure
// doorbells take the same path through the completion step.
func TestSessionToleratesShedDelivery(t *testing.T) {
	for _, mode := range []Mode{ModeBaseline, ModeSecureNoFilter} {
		t.Run(mode.String(), func(t *testing.T) {
			sys, err := NewSystem(Config{Mode: mode, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			sink := &shedSink{}
			sys.SetUplink(sink)
			utts, err := sensitive.Generate(sensitive.GenConfig{N: 2, SensitiveFraction: 0.5, Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			res, err := sys.RunSession(utts)
			if err != nil {
				t.Fatalf("shed deliveries failed the session: %v", err)
			}
			if sink.n != len(utts) {
				t.Fatalf("sink saw %d deliveries, want %d", sink.n, len(utts))
			}
			if res.ShedEvents != len(utts) {
				t.Fatalf("ShedEvents = %d, want %d", res.ShedEvents, len(utts))
			}
			for i, u := range res.Utterances {
				if !u.Forwarded || !u.Shed {
					t.Fatalf("utterance %d: Forwarded=%v Shed=%v, want true/true", i, u.Forwarded, u.Shed)
				}
			}
			// On the secure path the shed travels through the RPC daemon,
			// which must classify it as Shed, not a transport error.
			if mode != ModeBaseline {
				if st := sys.Supplicant.Stats(); st.Shed != uint64(len(utts)) || st.Errors != 0 {
					t.Fatalf("supplicant stats = %+v, want Shed=%d Errors=0", st, len(utts))
				}
			}
		})
	}
	for _, mode := range []Mode{ModeSecureFilter, ModeHybridHE} {
		t.Run("doorbell/"+mode.String(), func(t *testing.T) {
			sys, err := NewCameraSystem(CameraConfig{Mode: mode, Seed: 11})
			if err != nil {
				t.Fatal(err)
			}
			sink := &shedSink{}
			sys.SetUplink(sink)
			res, err := sys.RunSession(daySenes())
			if err != nil {
				t.Fatalf("shed deliveries failed the session: %v", err)
			}
			if res.ForwardedFrames == 0 {
				t.Fatal("no frame forwarded (test is vacuous)")
			}
			for i, rec := range sys.TA.Processed() {
				if rec.Forwarded && !rec.Shed {
					t.Fatalf("frame %d: forwarded but not shed", i)
				}
			}
			if res.ShedFrames != res.ForwardedFrames || sink.n != res.ForwardedFrames {
				t.Fatalf("ShedFrames = %d, sink saw %d, want the %d forwarded",
					res.ShedFrames, sink.n, res.ForwardedFrames)
			}
			if res.ForwardedPersons != 0 {
				t.Fatalf("ForwardedPersons = %d counts shed frames", res.ForwardedPersons)
			}
			if st := sys.Supplicant.Stats(); st.Shed != uint64(res.ForwardedFrames) || st.Errors != 0 {
				t.Fatalf("supplicant stats = %+v, want Shed=%d Errors=0", st, res.ForwardedFrames)
			}
		})
	}
}
