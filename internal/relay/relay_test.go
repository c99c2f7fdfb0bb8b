package relay

import (
	"bytes"
	"errors"
	"math/rand/v2"
	"testing"
)

type seededReader struct{ rng *rand.Rand }

func (s seededReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(s.rng.Uint64())
	}
	return len(p), nil
}

func channelPair(t *testing.T) (client, server *Channel) {
	t.Helper()
	rng := seededReader{rand.New(rand.NewPCG(1, 2))}
	a, err := NewIdentity(rng)
	if err != nil {
		t.Fatalf("NewIdentity: %v", err)
	}
	b, err := NewIdentity(rng)
	if err != nil {
		t.Fatalf("NewIdentity: %v", err)
	}
	client, err = NewChannel(a, b.PublicKey(), true)
	if err != nil {
		t.Fatalf("NewChannel client: %v", err)
	}
	server, err = NewChannel(b, a.PublicKey(), false)
	if err != nil {
		t.Fatalf("NewChannel server: %v", err)
	}
	return client, server
}

// TestNewIdentityDeterministic: equal seeded readers give equal keys, so
// a device's sealed traffic is fixed by its seed.
func TestNewIdentityDeterministic(t *testing.T) {
	for seed := uint64(1); seed <= 16; seed++ {
		a, err := NewIdentity(seededReader{rand.New(rand.NewPCG(seed, 2))})
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewIdentity(seededReader{rand.New(rand.NewPCG(seed, 2))})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.PublicKey(), b.PublicKey()) {
			t.Fatalf("seed %d: two identities from equal readers differ", seed)
		}
	}
}

func TestChannelRoundTripBothDirections(t *testing.T) {
	client, server := channelPair(t)
	msg := []byte("the user said: weather please")
	frame := client.Seal(msg)
	got, err := server.Open(frame)
	if err != nil {
		t.Fatalf("server Open: %v", err)
	}
	if !bytes.Equal(got, msg) {
		t.Errorf("server read %q", got)
	}
	reply := []byte("directive: speak")
	back, err := client.Open(server.Seal(reply))
	if err != nil {
		t.Fatalf("client Open: %v", err)
	}
	if !bytes.Equal(back, reply) {
		t.Errorf("client read %q", back)
	}
}

func TestChannelConfidentiality(t *testing.T) {
	client, _ := channelPair(t)
	secret := []byte("password tango seven")
	frame := client.Seal(secret)
	if bytes.Contains(frame, secret) {
		t.Error("sealed frame contains plaintext")
	}
	// Even the word alone must not appear.
	if bytes.Contains(frame, []byte("password")) {
		t.Error("sealed frame leaks tokens")
	}
}

func TestChannelTamperDetected(t *testing.T) {
	client, server := channelPair(t)
	frame := client.Seal([]byte("hello"))
	frame[len(frame)-1] ^= 1
	if _, err := server.Open(frame); !errors.Is(err, ErrBadFrame) {
		t.Errorf("tampered Open = %v, want ErrBadFrame", err)
	}
}

func TestChannelReplayRejected(t *testing.T) {
	client, server := channelPair(t)
	frame := client.Seal([]byte("once"))
	if _, err := server.Open(frame); err != nil {
		t.Fatalf("first Open: %v", err)
	}
	if _, err := server.Open(frame); !errors.Is(err, ErrReplay) {
		t.Errorf("replayed Open = %v, want ErrReplay", err)
	}
}

func TestChannelShortFrame(t *testing.T) {
	_, server := channelPair(t)
	if _, err := server.Open([]byte{1, 2, 3}); !errors.Is(err, ErrBadFrame) {
		t.Errorf("short Open = %v", err)
	}
}

func TestChannelWrongKeyFails(t *testing.T) {
	client, _ := channelPair(t)
	rng := seededReader{rand.New(rand.NewPCG(9, 9))}
	mallory, err := NewIdentity(rng)
	if err != nil {
		t.Fatalf("NewIdentity: %v", err)
	}
	other, err := NewIdentity(rng)
	if err != nil {
		t.Fatalf("NewIdentity: %v", err)
	}
	wrong, err := NewChannel(mallory, other.PublicKey(), false)
	if err != nil {
		t.Fatalf("NewChannel: %v", err)
	}
	if _, err := wrong.Open(client.Seal([]byte("x"))); !errors.Is(err, ErrBadFrame) {
		t.Errorf("wrong-key Open = %v", err)
	}
}

func TestNewChannelBadPeerKey(t *testing.T) {
	rng := seededReader{rand.New(rand.NewPCG(3, 3))}
	id, err := NewIdentity(rng)
	if err != nil {
		t.Fatalf("NewIdentity: %v", err)
	}
	if _, err := NewChannel(id, []byte{1, 2, 3}, true); err == nil {
		t.Error("bad peer key accepted")
	}
}

func TestEventCodecRoundTrip(t *testing.T) {
	e := Event{
		Namespace:  NamespaceSpeech,
		Name:       NameTranscript,
		MessageID:  7,
		Transcript: []string{"turn", "on", "light"},
		Redacted:   1,
	}
	data, err := EncodeEvent(e)
	if err != nil {
		t.Fatalf("EncodeEvent: %v", err)
	}
	got, err := DecodeEvent(data)
	if err != nil {
		t.Fatalf("DecodeEvent: %v", err)
	}
	if got.Name != e.Name || len(got.Transcript) != 3 || got.Transcript[1] != "on" || got.Redacted != 1 {
		t.Errorf("round trip = %+v", got)
	}
	if _, err := DecodeEvent([]byte("{not json")); !errors.Is(err, ErrBadFrame) {
		t.Errorf("bad DecodeEvent = %v", err)
	}
}

func TestApplyPolicyPassThrough(t *testing.T) {
	tokens := []string{"my", "password", "is", "tango"}
	res, err := ApplyPolicy(PolicyPassThrough, true, tokens)
	if err != nil {
		t.Fatalf("ApplyPolicy: %v", err)
	}
	if !res.Forward || len(res.Tokens) != 4 || res.Redacted != 0 {
		t.Errorf("pass-through = %+v", res)
	}
}

func TestApplyPolicyBlock(t *testing.T) {
	res, err := ApplyPolicy(PolicyBlock, true, []string{"password"})
	if err != nil {
		t.Fatalf("ApplyPolicy: %v", err)
	}
	if res.Forward {
		t.Error("flagged utterance forwarded under block policy")
	}
	res, err = ApplyPolicy(PolicyBlock, false, []string{"weather"})
	if err != nil {
		t.Fatalf("ApplyPolicy: %v", err)
	}
	if !res.Forward {
		t.Error("benign utterance blocked")
	}
}

func TestApplyPolicyRedact(t *testing.T) {
	tokens := []string{"my", "password", "is", "tango", "account", "too"}
	res, err := ApplyPolicy(PolicyRedact, true, tokens)
	if err != nil {
		t.Fatalf("ApplyPolicy: %v", err)
	}
	if !res.Forward || res.Redacted != 2 {
		t.Errorf("redact = %+v", res)
	}
	if res.Tokens[1] != RedactedToken || res.Tokens[4] != RedactedToken {
		t.Errorf("tokens = %v", res.Tokens)
	}
	if res.Tokens[0] != "my" || res.Tokens[3] != "tango" {
		t.Error("non-sensitive tokens modified")
	}
	// Flagged but no lexicon hit: fail closed.
	res, err = ApplyPolicy(PolicyRedact, true, []string{"mumble", "mumble"})
	if err != nil {
		t.Fatalf("ApplyPolicy: %v", err)
	}
	if res.Forward {
		t.Error("lexicon-miss redact did not fail closed")
	}
	// Unflagged passes untouched.
	res, err = ApplyPolicy(PolicyRedact, false, tokens)
	if err != nil {
		t.Fatalf("ApplyPolicy: %v", err)
	}
	if !res.Forward || res.Redacted != 0 {
		t.Errorf("unflagged redact = %+v", res)
	}
}

func TestApplyPolicyUnknown(t *testing.T) {
	if _, err := ApplyPolicy(Policy(9), true, nil); !errors.Is(err, ErrBadPolicy) {
		t.Errorf("unknown policy = %v", err)
	}
}

func TestPolicyStrings(t *testing.T) {
	if PolicyPassThrough.String() != "pass-through" ||
		PolicyRedact.String() != "redact" ||
		PolicyBlock.String() != "block" ||
		Policy(9).String() != "policy(9)" {
		t.Error("policy names wrong")
	}
}

func TestSequenceNumbersIncrease(t *testing.T) {
	client, server := channelPair(t)
	for i := 0; i < 5; i++ {
		if _, err := server.Open(client.Seal([]byte{byte(i)})); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
}
