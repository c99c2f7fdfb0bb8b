package optee

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/memory"
	"repro/internal/tz"
)

// echoTA copies memref-in to memref-out and doubles value params.
type echoTA struct {
	uuid    string
	opens   int
	closes  int
	invokes int
	openErr error
}

func (e *echoTA) UUID() string { return e.uuid }

func (e *echoTA) Open(sessionID uint32) error {
	if e.openErr != nil {
		return e.openErr
	}
	e.opens++
	return nil
}

func (e *echoTA) Invoke(sessionID uint32, cmd uint32, p *Params) error {
	e.invokes++
	if p[0].Type == ValueInOut {
		p[0].A *= 2
	}
	if p[1].Type == MemrefInOut {
		for i := range p[1].Buf {
			p[1].Buf[i] ^= 0x55
		}
	}
	return nil
}

func (e *echoTA) Close(sessionID uint32) { e.closes++ }

func newTEE(t *testing.T) (*OS, *tz.Monitor, *tz.Clock) {
	t.Helper()
	clock := tz.NewClock()
	mon := tz.NewMonitor(clock, tz.DefaultCostModel())
	plat, err := memory.NewPlatform(memory.DefaultLayout())
	if err != nil {
		t.Fatalf("NewPlatform: %v", err)
	}
	return New(mon, plat.SecureHeap), mon, clock
}

func TestSessionLifecycle(t *testing.T) {
	os, mon, _ := newTEE(t)
	ta := &echoTA{uuid: "echo"}
	os.RegisterTA(ta)

	id, err := os.OpenSession("echo")
	if err != nil {
		t.Fatalf("OpenSession: %v", err)
	}
	if id == 0 {
		t.Error("session id should be nonzero")
	}
	p := &Params{{Type: ValueInOut, A: 21}}
	if err := os.Invoke(id, 1, p); err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	if p[0].A != 42 {
		t.Errorf("value round trip = %d, want 42", p[0].A)
	}
	if err := os.CloseSession(id); err != nil {
		t.Fatalf("CloseSession: %v", err)
	}
	if ta.opens != 1 || ta.invokes != 1 || ta.closes != 1 {
		t.Errorf("ta saw %d/%d/%d", ta.opens, ta.invokes, ta.closes)
	}
	// All entries crossed the monitor: 3 SMCs = 6 switches.
	if st := mon.Stats(); st.SMCs != 3 || st.Switches != 6 {
		t.Errorf("monitor stats = %+v", st)
	}
	if st := os.Stats(); st.SessionsOpened != 1 || st.Invocations != 1 {
		t.Errorf("tee stats = %+v", st)
	}
}

func TestOpenSessionErrors(t *testing.T) {
	os, _, _ := newTEE(t)
	if _, err := os.OpenSession("ghost"); !errors.Is(err, ErrUnknownTA) {
		t.Errorf("OpenSession ghost = %v", err)
	}
	boom := errors.New("ta init failed")
	os.RegisterTA(&echoTA{uuid: "bad", openErr: boom})
	if _, err := os.OpenSession("bad"); !errors.Is(err, boom) {
		t.Errorf("OpenSession bad = %v", err)
	}
	// PTAs are not reachable from the normal world.
	os.RegisterPTA(&echoTA{uuid: "pta.driver"})
	if _, err := os.OpenSession("pta.driver"); !errors.Is(err, ErrAccessDenied) {
		t.Errorf("OpenSession on PTA = %v, want ErrAccessDenied", err)
	}
}

func TestInvokeBadSession(t *testing.T) {
	os, _, _ := newTEE(t)
	if err := os.Invoke(99, 1, nil); !errors.Is(err, ErrBadSession) {
		t.Errorf("Invoke bad session = %v", err)
	}
	if err := os.CloseSession(99); !errors.Is(err, ErrBadSession) {
		t.Errorf("Close bad session = %v", err)
	}
}

func TestParamsValidate(t *testing.T) {
	good := &Params{
		{Type: ValueIn, A: 1},
		{Type: MemrefIn, Buf: []byte{1}},
		{Type: MemrefOut, Buf: make([]byte, 4)},
	}
	if err := good.Validate(); err != nil {
		t.Errorf("good params rejected: %v", err)
	}
	bad1 := &Params{{Type: MemrefIn}}
	if err := bad1.Validate(); !errors.Is(err, ErrBadParam) {
		t.Errorf("memref without buffer = %v", err)
	}
	bad2 := &Params{{Type: ValueIn, Buf: []byte{1}}}
	if err := bad2.Validate(); !errors.Is(err, ErrBadParam) {
		t.Errorf("value with buffer = %v", err)
	}
}

func TestMemrefRoundTripAndCacheCost(t *testing.T) {
	os, mon, clock := newTEE(t)
	os.RegisterTA(&echoTA{uuid: "echo"})
	id, err := os.OpenSession("echo")
	if err != nil {
		t.Fatalf("OpenSession: %v", err)
	}
	buf := []byte{0x00, 0xff}
	before := clock.Now()
	p := &Params{{}, {Type: MemrefInOut, Buf: buf}}
	if err := os.Invoke(id, 1, p); err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	if buf[0] != 0x55 || buf[1] != 0xaa {
		t.Errorf("memref transform = %v", buf)
	}
	// One memref param must cost at least one cache flush beyond the SMC.
	cost := mon.Cost()
	minCycles := 2*cost.WorldSwitch + cost.SMCDispatch + cost.CacheFlush
	if got := clock.Now() - before; got < minCycles {
		t.Errorf("invoke cost %d cycles, want >= %d", got, minCycles)
	}
}

func TestInvokeSecureReachesPTAWithoutWorldSwitch(t *testing.T) {
	os, mon, _ := newTEE(t)
	pta := &echoTA{uuid: "pta.driver"}
	os.RegisterPTA(pta)

	// bridgeTA calls the PTA from inside the secure world.
	bridge := &bridgeTA{os: os, target: "pta.driver"}
	os.RegisterTA(bridge)

	id, err := os.OpenSession("bridge")
	if err != nil {
		t.Fatalf("OpenSession: %v", err)
	}
	switchesBefore := mon.Stats().Switches
	if err := os.Invoke(id, 7, &Params{{Type: ValueInOut, A: 5}}); err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	// Exactly one SMC round trip (2 switches) regardless of the nested
	// PTA call.
	if got := mon.Stats().Switches - switchesBefore; got != 2 {
		t.Errorf("TA->PTA invocation used %d switches, want 2", got)
	}
	if pta.invokes != 1 {
		t.Errorf("PTA invoked %d times", pta.invokes)
	}
	if st := os.Stats(); st.PTAInvocations != 1 {
		t.Errorf("PTAInvocations = %d", st.PTAInvocations)
	}
}

// bridgeTA forwards its command to another TA/PTA via InvokeSecure.
type bridgeTA struct {
	os     *OS
	target string
}

func (b *bridgeTA) UUID() string                { return "bridge" }
func (b *bridgeTA) Open(sessionID uint32) error { return nil }
func (b *bridgeTA) Close(sessionID uint32)      {}

func (b *bridgeTA) Invoke(sessionID uint32, cmd uint32, p *Params) error {
	return b.os.InvokeSecure(b.target, cmd, p)
}

func TestInvokeSecureDeniedFromNormalWorld(t *testing.T) {
	os, _, _ := newTEE(t)
	os.RegisterPTA(&echoTA{uuid: "pta.x"})
	if err := os.InvokeSecure("pta.x", 1, nil); !errors.Is(err, ErrAccessDenied) {
		t.Errorf("InvokeSecure from normal world = %v", err)
	}
}

// rpcTA issues an RPC from inside Invoke.
type rpcTA struct {
	os   *OS
	got  []byte
	rerr error
}

func (r *rpcTA) UUID() string                { return "rpc-ta" }
func (r *rpcTA) Open(sessionID uint32) error { return nil }
func (r *rpcTA) Close(sessionID uint32)      {}

func (r *rpcTA) Invoke(sessionID uint32, cmd uint32, p *Params) error {
	resp, err := r.os.RPC(RPCRequest{Kind: RPCNetSend, Target: "cloud", Payload: []byte("sealed")})
	r.got = resp.Payload
	r.rerr = err
	return err
}

type fakeRPC struct {
	reqs []RPCRequest
}

func (f *fakeRPC) HandleRPC(req RPCRequest) (RPCResponse, error) {
	f.reqs = append(f.reqs, req)
	return RPCResponse{Payload: []byte("ack")}, nil
}

func TestRPCChargesExtraSwitches(t *testing.T) {
	os, mon, _ := newTEE(t)
	handler := &fakeRPC{}
	os.SetRPCHandler(handler)
	ta := &rpcTA{os: os}
	os.RegisterTA(ta)

	id, err := os.OpenSession("rpc-ta")
	if err != nil {
		t.Fatalf("OpenSession: %v", err)
	}
	switchesBefore := mon.Stats().Switches
	if err := os.Invoke(id, 1, nil); err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	// SMC round trip (2) + RPC exit/re-enter (2) = 4 switches.
	if got := mon.Stats().Switches - switchesBefore; got != 4 {
		t.Errorf("RPC invoke used %d switches, want 4", got)
	}
	if string(ta.got) != "ack" {
		t.Errorf("RPC response = %q", ta.got)
	}
	if len(handler.reqs) != 1 || handler.reqs[0].Kind != RPCNetSend {
		t.Errorf("handler saw %+v", handler.reqs)
	}
	if st := os.Stats(); st.RPCs != 1 {
		t.Errorf("RPCs = %d", st.RPCs)
	}
}

func TestRPCWithoutHandler(t *testing.T) {
	os, _, _ := newTEE(t)
	ta := &rpcTA{os: os}
	os.RegisterTA(ta)
	id, err := os.OpenSession("rpc-ta")
	if err != nil {
		t.Fatalf("OpenSession: %v", err)
	}
	if err := os.Invoke(id, 1, nil); !errors.Is(err, ErrNoRPCHandler) {
		t.Errorf("Invoke without supplicant = %v", err)
	}
}

func TestConcurrentInvocationsSerialized(t *testing.T) {
	os, _, _ := newTEE(t)
	os.RegisterTA(&echoTA{uuid: "echo"})
	const workers = 8
	const perWorker = 50
	ids := make([]uint32, workers)
	for w := range ids {
		id, err := os.OpenSession("echo")
		if err != nil {
			t.Fatalf("OpenSession: %v", err)
		}
		ids[w] = id
	}
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			for i := 0; i < perWorker; i++ {
				p := &Params{{Type: ValueInOut, A: uint64(w*1000 + i)}}
				if err := os.Invoke(ids[w], 1, p); err != nil {
					errs <- fmt.Errorf("worker %d: %w", w, err)
					return
				}
				if p[0].A != uint64(w*1000+i)*2 {
					errs <- fmt.Errorf("worker %d: cross-talk: got %d", w, p[0].A)
					return
				}
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if st := os.Stats(); st.Invocations != workers*perWorker {
		t.Errorf("Invocations = %d, want %d", st.Invocations, workers*perWorker)
	}
}

// Property: value parameters of any magnitude round-trip unchanged
// through a session invoke (the echo TA doubles A; B is untouched).
func TestInvokeValueParamProperty(t *testing.T) {
	os, _, _ := newTEE(t)
	os.RegisterTA(&echoTA{uuid: "echo"})
	id, err := os.OpenSession("echo")
	if err != nil {
		t.Fatalf("OpenSession: %v", err)
	}
	prop := func(a, b uint64) bool {
		p := &Params{{Type: ValueInOut, A: a, B: b}}
		if err := os.Invoke(id, 1, p); err != nil {
			return false
		}
		return p[0].A == a*2 && p[0].B == b
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestParamTypeHelpers(t *testing.T) {
	if !MemrefIn.IsMemref() || !MemrefOut.IsMemref() || !MemrefInOut.IsMemref() {
		t.Error("memref types misclassified")
	}
	if ParamNone.IsMemref() || ValueIn.IsMemref() {
		t.Error("value types misclassified")
	}
	if RPCNetSend.String() != "net-send" || RPCKind(99).String() != "rpc(99)" {
		t.Error("RPCKind strings wrong")
	}
}

func TestStorageSealUnseal(t *testing.T) {
	st, err := NewStorage([]byte("device-unique-key"))
	if err != nil {
		t.Fatalf("NewStorage: %v", err)
	}
	weights := []byte("model-weights-v1: [0.1, 0.2, 0.3]")
	st.Put("classifier", weights)
	got, err := st.Get("classifier")
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if !bytes.Equal(got, weights) {
		t.Errorf("round trip = %q", got)
	}
	if _, err := st.Get("missing"); !errors.Is(err, ErrObjectNotFound) {
		t.Errorf("Get missing = %v", err)
	}
}

func TestStorageConfidentialityAndTamper(t *testing.T) {
	st, err := NewStorage([]byte("device-unique-key"))
	if err != nil {
		t.Fatalf("NewStorage: %v", err)
	}
	secret := []byte("sensitive model weights")
	st.Put("m", secret)
	sealed, ok := st.SealedBytes("m")
	if !ok {
		t.Fatal("sealed blob missing")
	}
	if bytes.Contains(sealed, secret) {
		t.Error("sealed blob contains plaintext")
	}
	if !st.Tamper("m", len(sealed)-1) {
		t.Fatal("tamper hook failed")
	}
	if _, err := st.Get("m"); !errors.Is(err, ErrCorruptObject) {
		t.Errorf("Get after tamper = %v, want ErrCorruptObject", err)
	}
}

func TestStorageDeleteAndList(t *testing.T) {
	st, err := NewStorage([]byte("k"))
	if err != nil {
		t.Fatalf("NewStorage: %v", err)
	}
	st.Put("a", []byte("1"))
	st.Put("b", []byte("2"))
	if got := st.List(); len(got) != 2 {
		t.Errorf("List = %v", got)
	}
	st.Delete("a")
	st.Delete("a") // idempotent
	if got := st.List(); len(got) != 1 || got[0] != "b" {
		t.Errorf("List after delete = %v", got)
	}
}

func TestStorageOverwriteReturnsLatest(t *testing.T) {
	st, err := NewStorage([]byte("k"))
	if err != nil {
		t.Fatalf("NewStorage: %v", err)
	}
	st.Put("m", []byte("v1"))
	blob1, _ := st.SealedBytes("m")
	st.Put("m", []byte("v2"))
	got, err := st.Get("m")
	if err != nil || string(got) != "v2" {
		t.Errorf("Get after overwrite = %q, %v", got, err)
	}
	// Nonces are unique per Put: the two sealed blobs must differ even
	// beyond the ciphertext (no nonce reuse).
	blob2, _ := st.SealedBytes("m")
	if bytes.Equal(blob1[:12], blob2[:12]) {
		t.Error("nonce reused across Puts")
	}
	// A rolled-back blob (the old sealed bytes re-installed by a hostile
	// normal world) still decrypts — rollback protection requires a
	// monotonic counter in hardware, which the paper's platform model
	// does not include; documented as out of scope.
}

func TestMonitorWorldInvariantUnderConcurrentSMC(t *testing.T) {
	os, mon, _ := newTEE(t)
	os.RegisterTA(&echoTA{uuid: "echo"})
	const workers = 6
	done := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func() {
			id, err := os.OpenSession("echo")
			if err != nil {
				done <- err
				return
			}
			for i := 0; i < 30; i++ {
				if err := os.Invoke(id, 1, &Params{{Type: ValueInOut, A: 1}}); err != nil {
					done <- err
					return
				}
			}
			done <- os.CloseSession(id)
		}()
	}
	for w := 0; w < workers; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	// After all entries drained, the CPU must be back in the normal world.
	if mon.World() != tz.WorldNormal {
		t.Errorf("world = %v after quiescence", mon.World())
	}
}

func TestStorageDistinctKeysPerDevice(t *testing.T) {
	a, _ := NewStorage([]byte("device-a"))
	b, _ := NewStorage([]byte("device-b"))
	a.Put("m", []byte("secret"))
	blob, _ := a.SealedBytes("m")
	// Device B cannot unseal device A's object (simulate by installing
	// the blob directly).
	b.Put("m", nil) // create the slot
	b.mu.Lock()
	b.objects["m"] = blob
	b.mu.Unlock()
	if _, err := b.Get("m"); !errors.Is(err, ErrCorruptObject) {
		t.Errorf("cross-device unseal = %v, want ErrCorruptObject", err)
	}
}

// TestStoragePutLayoutIdentity: the stored blob is the layout sealed
// storage has always had, rebuilt here independently: a 12-byte nonce
// holding the put counter little-endian in its first 8 bytes, then
// AES-256-GCM of the data under the id, with the key derived from the
// device secret. Put seals straight into the blob and allocates little
// more than the blob itself.
func TestStoragePutLayoutIdentity(t *testing.T) {
	secret := []byte("device-unique-key")
	st, err := NewStorage(secret)
	if err != nil {
		t.Fatal(err)
	}
	key := sha256.Sum256(append([]byte("optee-storage-v1:"), secret...))
	block, err := aes.NewCipher(key[:])
	if err != nil {
		t.Fatal(err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		t.Fatal(err)
	}
	objects := []struct {
		id   string
		data []byte
	}{
		{"voice-ta/weights", bytes.Repeat([]byte{0x5a}, 11<<10)},
		{"voice-ta/he-key", []byte("key material")},
		{"empty", nil},
		{"voice-ta/weights", []byte("overwritten")},
	}
	for i, o := range objects {
		st.Put(o.id, o.data)
		nonce := make([]byte, 12)
		binary.LittleEndian.PutUint64(nonce, uint64(i+1))
		want := append(nonce, aead.Seal(nil, nonce, o.data, []byte(o.id))...)
		got, ok := st.SealedBytes(o.id)
		if !ok || !bytes.Equal(got, want) {
			t.Fatalf("object %d (%q): stored blob differs from nonce || Seal(data)", i, o.id)
		}
		if plain, err := st.Get(o.id); err != nil || !bytes.Equal(plain, o.data) {
			t.Fatalf("object %d (%q): Get = %q, %v", i, o.id, plain, err)
		}
	}
	data := bytes.Repeat([]byte{1}, 4096)
	if allocs := testing.AllocsPerRun(50, func() { st.Put("voice-ta/weights", data) }); allocs > 2 {
		t.Errorf("Put allocates %v times, want at most 2 (the blob and the id's bytes)", allocs)
	}
}

// nopTA accepts every session and command and does nothing.
type nopTA struct{}

func (nopTA) UUID() string                         { return "nop" }
func (nopTA) Open(uint32) error                    { return nil }
func (nopTA) Invoke(uint32, uint32, *Params) error { return nil }
func (nopTA) Close(uint32)                         {}

// TestInvokeAllocs: a world switch into a TA that does nothing
// allocates nothing. Entries are serialized, so the OS carries every
// entry's arguments and results in its one message buffer.
func TestInvokeAllocs(t *testing.T) {
	os, _, _ := newTEE(t)
	os.RegisterTA(nopTA{})
	id, err := os.OpenSession("nop")
	if err != nil {
		t.Fatalf("OpenSession: %v", err)
	}
	p := &Params{{Type: ValueIn, A: 1}}
	allocs := testing.AllocsPerRun(100, func() {
		if err := os.Invoke(id, 1, p); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("Invoke of a no-op TA allocates %v times, want 0", allocs)
	}
}
