package relay

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand/v2"
	"sync"
	"testing"
)

// TestSealAppendOpenAppendIdentity: two channel pairs from one seed, one
// sealing and opening with Seal/Open and the other with
// SealAppend/OpenAppend into reused buffers that carry a prefix, give
// the same frames and the same plaintexts, byte for byte, and the append
// forms leave the prefix alone.
func TestSealAppendOpenAppendIdentity(t *testing.T) {
	c1, s1 := channelPair(t)
	c2, s2 := channelPair(t)
	prefix := []byte("kept")
	var sealBuf, openBuf []byte
	rng := rand.New(rand.NewPCG(4, 4))
	for i := range 200 {
		payload := make([]byte, rng.IntN(700))
		for j := range payload {
			payload[j] = byte(rng.Uint64())
		}
		want := c1.Seal(payload)
		sealBuf = c2.SealAppend(append(sealBuf[:0], prefix...), payload)
		if !bytes.HasPrefix(sealBuf, prefix) || !bytes.Equal(sealBuf[len(prefix):], want) {
			t.Fatalf("frame %d: SealAppend differs from Seal", i)
		}
		plain, err := s1.Open(want)
		if err != nil {
			t.Fatal(err)
		}
		openBuf, err = s2.OpenAppend(append(openBuf[:0], prefix...), sealBuf[len(prefix):])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(openBuf, prefix) || !bytes.Equal(openBuf[len(prefix):], plain) || !bytes.Equal(plain, payload) {
			t.Fatalf("frame %d: OpenAppend differs from Open", i)
		}
	}
}

// TestSealAppendOpenAppendAllocateNothing: with buffers that already
// have the capacity, sealing and opening allocate nothing (no nonce, no
// frame, no plaintext).
func TestSealAppendOpenAppendAllocateNothing(t *testing.T) {
	client, server := channelPair(t)
	payload := bytes.Repeat([]byte("x"), 600)
	sealed := client.SealAppend(nil, payload)
	plain, err := server.OpenAppend(nil, sealed)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		sealed = client.SealAppend(sealed[:0], payload)
		if plain, err = server.OpenAppend(plain[:0], sealed); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("SealAppend + OpenAppend allocate %v times, want 0", allocs)
	}
}

// TestOpenAppendErrorKeepsDst: a replayed frame authenticates but is
// refused, and neither it nor a forged frame leaves plaintext in dst's
// spare capacity.
func TestOpenAppendErrorKeepsDst(t *testing.T) {
	client, server := channelPair(t)
	frame := client.Seal([]byte("secret words"))
	if _, err := server.Open(frame); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 0, 64)
	if out, err := server.OpenAppend(dst, frame); !errors.Is(err, ErrReplay) || out != nil {
		t.Fatalf("replayed OpenAppend = %q, %v; want nil, ErrReplay", out, err)
	}
	if bytes.Contains(dst[:cap(dst)], []byte("secret")) {
		t.Error("a refused replay left its plaintext in dst")
	}
}

// TestConcurrentOpenOfOneFrame: goroutines racing to open the same
// sealed frame see exactly one success; every other open is a replay.
// Authentication, the replay check and the advance happen under one
// lock, so no two opens can both pass the check.
func TestConcurrentOpenOfOneFrame(t *testing.T) {
	const trials, racers = 2000, 4
	client, server := channelPair(t)
	for trial := range trials {
		frame := client.Seal([]byte("once only"))
		start := make(chan struct{})
		var wg sync.WaitGroup
		var mu sync.Mutex
		ok, replays := 0, 0
		for range racers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				_, err := server.Open(frame)
				mu.Lock()
				defer mu.Unlock()
				switch {
				case err == nil:
					ok++
				case errors.Is(err, ErrReplay):
					replays++
				default:
					t.Errorf("trial %d: %v", trial, err)
				}
			}()
		}
		close(start)
		wg.Wait()
		if ok != 1 || replays != racers-1 {
			t.Fatalf("trial %d: %d of %d concurrent opens of one frame succeeded (%d replays), want exactly 1",
				trial, ok, racers, replays)
		}
	}
}

// appendEventCases are events whose wire form must match json.Marshal:
// HTML-special and JSON-special characters, control bytes, non-ASCII,
// invalid UTF-8, U+2028/U+2029, and every omitempty field empty or set.
var appendEventCases = []Event{
	{},
	{Namespace: NamespaceSpeech, Name: NameTranscript, MessageID: 7, Transcript: []string{"turn", "on", "light"}, Redacted: 1},
	{Namespace: NamespaceSystem, Name: NameAckDirective, MessageID: 1<<64 - 1},
	{Namespace: NamespaceSpeech, Name: NameAudio, MessageID: 3, Audio: []byte{0, 1, 2, 0xfe, 0xff}},
	{Namespace: "a<b>&c", Name: `q"uote\back`, Transcript: []string{"<script>", "&amp;", "tom & jerry"}},
	{Name: "ctl\b\f\n\r\t\x00\x01\x1f\x7f", Transcript: []string{""}},
	{Name: "café", Transcript: []string{"naïve", "日本語", "emoji 🙂", "\u2028line\u2029para"}},
	{Name: "bad\xffutf8\xc3", Transcript: []string{"\xed\xa0\x80", "\xf4\x90\x80\x80"}},
	{Transcript: []string{}, Audio: []byte{}, Redacted: 0},
	{Transcript: []string{"", ""}, Audio: []byte{0}, Redacted: -2},
	{Name: RedactedToken, Transcript: []string{"my", RedactedToken, "is"}, Redacted: 1},
}

// TestAppendEventIdentity: AppendEvent writes json.Marshal's bytes for
// every case, and for a corpus of random events, after any prefix.
func TestAppendEventIdentity(t *testing.T) {
	events := append([]Event(nil), appendEventCases...)
	rng := rand.New(rand.NewPCG(8, 8))
	alphabet := []rune{'a', 'Z', '0', ' ', '<', '>', '&', '"', '\\', '\n', '\t', 0, 0x1f, 0x7f, 'é', '日', 0x2028, 0x2029, 0x1f642}
	str := func() string {
		var b []byte
		for range rng.IntN(12) {
			if rng.IntN(10) == 0 {
				b = append(b, byte(0x80+rng.IntN(0x80))) // stray continuation or lead byte
				continue
			}
			b = append(b, string(alphabet[rng.IntN(len(alphabet))])...)
		}
		return string(b)
	}
	for range 500 {
		e := Event{Namespace: str(), Name: str(), MessageID: rng.Uint64() >> rng.IntN(64), Redacted: rng.IntN(5) - 1}
		for range rng.IntN(4) {
			e.Transcript = append(e.Transcript, str())
		}
		if rng.IntN(2) == 0 {
			e.Audio = []byte(str())
		}
		events = append(events, e)
	}
	buf := []byte("prefix")
	for i, e := range events {
		want, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		buf = AppendEvent(buf[:6], e)
		if got := buf[6:]; !bytes.Equal(got, want) {
			t.Fatalf("event %d %+v:\nAppendEvent %s\njson        %s", i, e, got, want)
		}
		if got, _ := EncodeEvent(e); !bytes.Equal(got, want) {
			t.Fatalf("event %d: EncodeEvent differs from json.Marshal", i)
		}
	}
}

// FuzzAppendEvent: for any strings, bytes and numbers, AppendEvent
// writes json.Marshal's bytes.
func FuzzAppendEvent(f *testing.F) {
	for _, e := range appendEventCases {
		tok := ""
		if len(e.Transcript) > 0 {
			tok = e.Transcript[0]
		}
		f.Add(e.Namespace, e.Name, e.MessageID, tok, e.Audio, e.Redacted)
	}
	f.Fuzz(func(t *testing.T, ns, name string, id uint64, tok string, audio []byte, redacted int) {
		e := Event{Namespace: ns, Name: name, MessageID: id, Transcript: []string{tok, ns}, Audio: audio, Redacted: redacted}
		want, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendEvent(nil, e); !bytes.Equal(got, want) {
			t.Fatalf("AppendEvent %s\njson        %s", got, want)
		}
	})
}

// TestAppendEventAllocatesNothing: encoding into a buffer with the
// capacity allocates nothing.
func TestAppendEventAllocatesNothing(t *testing.T) {
	e := appendEventCases[1]
	e.Audio = bytes.Repeat([]byte{7}, 576)
	buf := AppendEvent(nil, e)
	if allocs := testing.AllocsPerRun(100, func() { buf = AppendEvent(buf[:0], e) }); allocs != 0 {
		t.Errorf("AppendEvent allocates %v times, want 0", allocs)
	}
}

// TestDecodeEventIntoIdentity: decoding a run of different events into
// one reused Event gives, each time, the event DecodeEvent gives: no
// field or token of an earlier event survives into a later one.
func TestDecodeEventIntoIdentity(t *testing.T) {
	var into Event
	for round := range 2 {
		for i, e := range appendEventCases {
			wire := AppendEvent(nil, e)
			want, err := DecodeEvent(wire)
			if err != nil {
				t.Fatal(err)
			}
			if err := DecodeEventInto(&into, wire); err != nil {
				t.Fatal(err)
			}
			if got, want := AppendEvent(nil, into), AppendEvent(nil, want); !bytes.Equal(got, want) {
				t.Fatalf("round %d event %d: reused decode re-encodes as %s, want %s", round, i, got, want)
			}
		}
	}
	if err := DecodeEventInto(&into, []byte("{not json")); !errors.Is(err, ErrBadFrame) {
		t.Errorf("bad DecodeEventInto = %v", err)
	}
}
