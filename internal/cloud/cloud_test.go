package cloud

import (
	"bytes"
	"errors"
	"math/rand/v2"
	"testing"
	"time"

	"repro/internal/asr"
	"repro/internal/audio"
	"repro/internal/relay"
	"repro/internal/sensitive"
)

type seededReader struct{ rng *rand.Rand }

func (s seededReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(s.rng.Uint64())
	}
	return len(p), nil
}

func sealedFixture(t *testing.T) (*Service, *relay.Channel) {
	t.Helper()
	rng := seededReader{rand.New(rand.NewPCG(1, 2))}
	cloudID, err := relay.NewIdentity(rng)
	if err != nil {
		t.Fatalf("NewIdentity: %v", err)
	}
	taID, err := relay.NewIdentity(rng)
	if err != nil {
		t.Fatalf("NewIdentity: %v", err)
	}
	svc := NewService(NewIdentity(cloudID))
	if err := svc.Handshake(taID.PublicKey()); err != nil {
		t.Fatalf("Handshake: %v", err)
	}
	ch, err := relay.NewChannel(taID, svc.PublicKey(), true)
	if err != nil {
		t.Fatalf("NewChannel: %v", err)
	}
	return svc, ch
}

func sealEvent(t *testing.T, ch *relay.Channel, e relay.Event) []byte {
	t.Helper()
	data, err := relay.EncodeEvent(e)
	if err != nil {
		t.Fatalf("EncodeEvent: %v", err)
	}
	return ch.Seal(data)
}

func TestServiceRecordsTranscripts(t *testing.T) {
	svc, ch := sealedFixture(t)
	frame := sealEvent(t, ch, relay.Event{
		Namespace:  relay.NamespaceSpeech,
		Name:       relay.NameTranscript,
		MessageID:  1,
		Transcript: []string{"my", "password", "is", "tango"},
	})
	reply, err := svc.Deliver(frame)
	if err != nil {
		t.Fatalf("Deliver: %v", err)
	}
	// The reply is a sealed directive the TA can open.
	plain, err := ch.Open(reply)
	if err != nil {
		t.Fatalf("Open reply: %v", err)
	}
	dir, err := relay.DecodeEvent(plain)
	if err != nil || dir.Name != relay.NameAckDirective {
		t.Errorf("directive = %+v, %v", dir, err)
	}
	audit := svc.Audit()
	if audit.Events != 1 || audit.TokensSeen != 4 || audit.SensitiveTokens != 1 {
		t.Errorf("audit = %+v", audit)
	}
}

func TestServiceRejectsGarbage(t *testing.T) {
	svc, _ := sealedFixture(t)
	garbage := make([]byte, 64)
	garbage[7] = 1 // plausible sequence number, bogus ciphertext
	if _, err := svc.Deliver(garbage); !errors.Is(err, relay.ErrBadFrame) {
		t.Errorf("garbage Deliver = %v", err)
	}
	fresh := NewService(NewIdentity(mustIdentity(t)))
	if _, err := fresh.Deliver(make([]byte, 64)); !errors.Is(err, ErrNoChannel) {
		t.Errorf("pre-handshake Deliver = %v", err)
	}
}

func mustIdentity(t *testing.T) *relay.Identity {
	t.Helper()
	id, err := relay.NewIdentity(seededReader{rand.New(rand.NewPCG(7, 7))})
	if err != nil {
		t.Fatalf("NewIdentity: %v", err)
	}
	return id
}

func TestServiceReset(t *testing.T) {
	svc, ch := sealedFixture(t)
	if _, err := svc.Deliver(sealEvent(t, ch, relay.Event{Name: relay.NameTranscript, Transcript: []string{"hi"}})); err != nil {
		t.Fatalf("Deliver: %v", err)
	}
	svc.Reset()
	if a := svc.Audit(); a.Events != 0 {
		t.Errorf("audit after reset = %+v", a)
	}
}

func TestPlainServiceTranscribesRawAudio(t *testing.T) {
	voice := audio.DefaultVoice(1000)
	rec, err := asr.New(asr.DefaultConfig(voice.Rate))
	if err != nil {
		t.Fatalf("asr.New: %v", err)
	}
	vocab := sensitive.NewVocabulary()
	if err := rec.Train(vocab.Words(), voice); err != nil {
		t.Fatalf("Train: %v", err)
	}
	svc := NewPlainService(rec)

	speak := voice
	speak.Seed = 123
	pcm := speak.Synthesize([]string{"my", "password", "is", "tango"})
	reply, err := svc.Deliver(EncodePCM16(pcm))
	if err != nil {
		t.Fatalf("Deliver: %v", err)
	}
	if len(reply) == 0 {
		t.Error("empty reply")
	}
	audit := svc.Audit()
	if audit.Events != 1 {
		t.Fatalf("audit = %+v", audit)
	}
	// The provider transcribed the raw audio and saw the private token:
	// exactly the §I leak.
	if audit.SensitiveTokens == 0 {
		t.Errorf("cloud ASR missed the private token: transcripts %v", audit.Transcripts)
	}
	if audit.AudioBytes != len(pcm.Samples)*2 {
		t.Errorf("AudioBytes = %d, want %d", audit.AudioBytes, len(pcm.Samples)*2)
	}
	svc.Reset()
	if svc.Audit().Events != 0 {
		t.Error("reset failed")
	}
}

func TestPlainServiceOddPayload(t *testing.T) {
	rec, err := asr.New(asr.DefaultConfig(16000))
	if err != nil {
		t.Fatalf("asr.New: %v", err)
	}
	svc := NewPlainService(rec)
	if _, err := svc.Deliver([]byte{1, 2, 3}); err == nil {
		t.Error("odd payload accepted")
	}
}

func TestPCM16WireRoundTrip(t *testing.T) {
	pcm := audio.Sine(16000, 440, 0.5, 20*time.Millisecond)
	wire := EncodePCM16(pcm)
	samples, err := audio.DecodePCM16Into(nil, wire)
	if err != nil {
		t.Fatalf("DecodePCM16Into: %v", err)
	}
	if len(samples) != len(pcm.Samples) {
		t.Fatalf("lengths differ")
	}
	wire2 := EncodePCM16(audio.PCM{Rate: pcm.Rate, Samples: samples})
	if !bytes.Equal(wire, wire2) {
		t.Error("wire form not stable")
	}
}

func TestAuditCountsAcrossEvents(t *testing.T) {
	svc, ch := sealedFixture(t)
	events := []relay.Event{
		{Name: relay.NameTranscript, MessageID: 1, Transcript: []string{"turn", "on", "light"}},
		{Name: relay.NameTranscript, MessageID: 2, Transcript: []string{"password", "account"}},
		{Name: relay.NameAudio, MessageID: 3, Audio: make([]byte, 100)},
	}
	for _, e := range events {
		if _, err := svc.Deliver(sealEvent(t, ch, e)); err != nil {
			t.Fatalf("Deliver: %v", err)
		}
	}
	a := svc.Audit()
	if a.Events != 3 || a.TokensSeen != 5 || a.SensitiveTokens != 2 || a.AudioBytes != 100 {
		t.Errorf("audit = %+v", a)
	}
	if len(a.Transcripts) != 2 {
		t.Errorf("transcripts = %v", a.Transcripts)
	}
}
