package supplicant

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"repro/internal/optee"
	"repro/internal/tz"
)

type fakeSink struct {
	got   [][]byte
	reply []byte
	err   error
}

func (f *fakeSink) Deliver(payload []byte) ([]byte, error) {
	f.got = append(f.got, append([]byte(nil), payload...))
	return f.reply, f.err
}

func newSupplicant() *Supplicant {
	return New(tz.NewClock(), tz.DefaultCostModel())
}

func TestNetSendRoutesAndRecords(t *testing.T) {
	s := newSupplicant()
	sink := &fakeSink{reply: []byte("ok")}
	s.Route("cloud", sink)

	resp, err := s.HandleRPC(optee.RPCRequest{
		Kind: optee.RPCNetSend, Target: "cloud", Payload: []byte("frame-1"),
	})
	if err != nil {
		t.Fatalf("HandleRPC: %v", err)
	}
	if string(resp.Payload) != "ok" {
		t.Errorf("reply = %q", resp.Payload)
	}
	if len(sink.got) != 1 || string(sink.got[0]) != "frame-1" {
		t.Errorf("sink saw %q", sink.got)
	}
	obs := s.Observed()
	if len(obs) != 1 || !bytes.Equal(obs[0], []byte("frame-1")) {
		t.Errorf("observed = %q", obs)
	}
	if st := s.Stats(); st.NetSends != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// TestNetSendClassifiesShed: a delivery the remote frontend shed by
// admission policy is counted as Shed, not as a transport error — the
// daemon carried the payload correctly.
func TestNetSendClassifiesShed(t *testing.T) {
	s := newSupplicant()
	sink := &fakeSink{err: fmt.Errorf("frontend says: %w", ErrShed)}
	s.Route("cloud", sink)
	_, err := s.HandleRPC(optee.RPCRequest{
		Kind: optee.RPCNetSend, Target: "cloud", Payload: []byte("frame"),
	})
	if !errors.Is(err, ErrShed) {
		t.Fatalf("HandleRPC = %v, want ErrShed in chain", err)
	}
	if st := s.Stats(); st.Shed != 1 || st.Errors != 0 {
		t.Fatalf("stats = %+v, want Shed=1 Errors=0", st)
	}
}

func TestNetSendNoRoute(t *testing.T) {
	s := newSupplicant()
	_, err := s.HandleRPC(optee.RPCRequest{Kind: optee.RPCNetSend, Target: "nowhere"})
	if !errors.Is(err, ErrNoRoute) {
		t.Errorf("HandleRPC = %v, want ErrNoRoute", err)
	}
	if st := s.Stats(); st.Errors != 1 {
		t.Errorf("Errors = %d", st.Errors)
	}
}

func TestNetSendSinkError(t *testing.T) {
	s := newSupplicant()
	boom := errors.New("connection reset")
	s.Route("cloud", &fakeSink{err: boom})
	if _, err := s.HandleRPC(optee.RPCRequest{Kind: optee.RPCNetSend, Target: "cloud"}); !errors.Is(err, boom) {
		t.Errorf("HandleRPC = %v, want wrapped sink error", err)
	}
}

func TestTimeGet(t *testing.T) {
	clock := tz.NewClock()
	s := New(clock, tz.DefaultCostModel())
	clock.Advance(5000)
	resp, err := s.HandleRPC(optee.RPCRequest{Kind: optee.RPCTimeGet})
	if err != nil {
		t.Fatalf("HandleRPC: %v", err)
	}
	got := binary.LittleEndian.Uint64(resp.Payload)
	// The handler itself advances the clock by the syscall cost.
	if got < 5000 {
		t.Errorf("time = %d, want >= 5000", got)
	}
}

func TestLogService(t *testing.T) {
	s := newSupplicant()
	if _, err := s.HandleRPC(optee.RPCRequest{Kind: optee.RPCLog, Payload: []byte("ta: hello")}); err != nil {
		t.Fatalf("HandleRPC: %v", err)
	}
	log := s.Log()
	if len(log) != 1 || log[0] != "ta: hello" {
		t.Errorf("Log = %v", log)
	}
}

func TestUnknownService(t *testing.T) {
	s := newSupplicant()
	if _, err := s.HandleRPC(optee.RPCRequest{Kind: optee.RPCKind(77)}); !errors.Is(err, ErrUnknownService) {
		t.Errorf("HandleRPC = %v, want ErrUnknownService", err)
	}
}

func TestHandleRPCAdvancesClock(t *testing.T) {
	clock := tz.NewClock()
	s := New(clock, tz.DefaultCostModel())
	s.Route("cloud", &fakeSink{})
	before := clock.Now()
	if _, err := s.HandleRPC(optee.RPCRequest{
		Kind: optee.RPCNetSend, Target: "cloud", Payload: make([]byte, 1000),
	}); err != nil {
		t.Fatalf("HandleRPC: %v", err)
	}
	// Syscall cost + 1000 bytes of copy cost.
	cost := tz.DefaultCostModel()
	want := cost.Syscall + 1000*cost.CopyPerByte
	if got := clock.Now() - before; got < want {
		t.Errorf("RPC cost %d cycles, want >= %d", got, want)
	}
}

// TestObservedRecordIdentity: the daemon keeps every forwarded payload
// in one record, not a heap copy each. Observed returns copies equal to
// what was sent, ScanObserved visits the same bytes in order, and
// neither aliases the sender's buffer, which the sender reuses.
func TestObservedRecordIdentity(t *testing.T) {
	s := newSupplicant()
	s.Route("cloud", &fakeSink{reply: []byte("ok")})
	var want [][]byte
	buf := make([]byte, 0, 64)
	for i := range 50 {
		buf = buf[:0]
		for j := range i % 7 {
			buf = append(buf, byte(i*j+1))
		}
		want = append(want, append([]byte{}, buf...))
		if _, err := s.HandleRPC(optee.RPCRequest{Kind: optee.RPCNetSend, Target: "cloud", Payload: buf}); err != nil {
			t.Fatal(err)
		}
		clear(buf[:cap(buf)]) // the sender rewrites its buffer
	}
	got := s.Observed()
	if len(got) != len(want) {
		t.Fatalf("observed %d payloads, sent %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("payload %d: observed %v, sent %v", i, got[i], want[i])
		}
	}
	i := 0
	s.ScanObserved(func(p []byte) {
		if !bytes.Equal(p, want[i]) {
			t.Errorf("scan payload %d: %v, sent %v", i, p, want[i])
		}
		i++
	})
	if i != len(want) {
		t.Errorf("scan visited %d payloads, sent %d", i, len(want))
	}
	got[3][0] ^= 0xff
	if again := s.Observed(); !bytes.Equal(again[3], want[3]) {
		t.Error("Observed handed out the daemon's own record")
	}
}

// TestObservedRecordAllocs: recording payloads copies them into shared
// chunks, so a long run of them allocates well under once per payload
// (the chunks and the slice of payload headers grow geometrically).
func TestObservedRecordAllocs(t *testing.T) {
	s := newSupplicant()
	payload := bytes.Repeat([]byte{0xab}, 140)
	if allocs := testing.AllocsPerRun(500, func() { s.record(payload) }); allocs != 0 {
		t.Errorf("recording a payload allocates %v times on average, want under 1", allocs)
	}
	if got := s.Observed(); len(got) != 501 || !bytes.Equal(got[500], payload) {
		t.Fatalf("recorded %d payloads, want 501 equal to the sent one", len(got))
	}
}
