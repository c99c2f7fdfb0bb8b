package cloud

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
)

// countingProvider is a minimal endpoint: it records frame counts and
// byte totals like a real backend would.
type countingProvider struct {
	mu     sync.Mutex
	frames int
	bytes  int
	fail   bool
}

func (p *countingProvider) Deliver(frame []byte) ([]byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.fail {
		return nil, errors.New("endpoint down")
	}
	p.frames++
	p.bytes += len(frame)
	return []byte("ack"), nil
}

func (p *countingProvider) Audit() Audit {
	p.mu.Lock()
	defer p.mu.Unlock()
	return Audit{Events: p.frames, AudioBytes: p.bytes}
}

func (p *countingProvider) Reset() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.frames, p.bytes = 0, 0
}

func TestAuditMerge(t *testing.T) {
	a := Audit{Events: 2, TokensSeen: 5, SensitiveTokens: 1, AudioBytes: 10, Transcripts: [][]string{{"a"}}}
	b := Audit{Events: 3, TokensSeen: 7, SensitiveTokens: 4, AudioBytes: 20, Transcripts: [][]string{{"b"}, {"c"}}}
	m := a.Merge(b)
	if m.Events != 5 || m.TokensSeen != 12 || m.SensitiveTokens != 5 || m.AudioBytes != 30 {
		t.Fatalf("bad merge: %+v", m)
	}
	if len(m.Transcripts) != 3 {
		t.Fatalf("merge lost transcripts: %d", len(m.Transcripts))
	}
	// Merge must not mutate its receiver.
	if a.Events != 2 || len(a.Transcripts) != 1 {
		t.Fatalf("merge mutated receiver: %+v", a)
	}
}

func TestShardIngestAndAudit(t *testing.T) {
	s := NewShard("s0", 2, 4)
	defer s.Close()
	p0, p1 := &countingProvider{}, &countingProvider{}
	s.Register("dev-0", p0)
	s.Register("dev-1", p1)

	for i := 0; i < 10; i++ {
		id := fmt.Sprintf("dev-%d", i%2)
		ack, err := s.Ingest(id, []byte{byte(i)})
		if err != nil {
			t.Fatalf("ingest %d: %v", i, err)
		}
		if string(ack) != "ack" {
			t.Fatalf("ingest %d: bad directive %q", i, ack)
		}
	}
	if p0.Audit().Events != 5 || p1.Audit().Events != 5 {
		t.Fatalf("frames misrouted: %d/%d", p0.Audit().Events, p1.Audit().Events)
	}
	if got := s.Audit().Events; got != 10 {
		t.Fatalf("shard audit events = %d, want 10", got)
	}
	st := s.Stats()
	if st.Frames != 10 || st.Errors != 0 || st.Devices != 2 {
		t.Fatalf("bad stats: %+v", st)
	}
}

// allowGate admits only the device IDs in its set.
type allowGate struct{ allowed map[string]bool }

func (g *allowGate) Admit(deviceID string) error {
	if g.allowed[deviceID] {
		return nil
	}
	return errors.New("not attested")
}

func TestShardAdmissionGate(t *testing.T) {
	s := NewShard("s0", 1, 2)
	defer s.Close()
	good, bad := &countingProvider{}, &countingProvider{}
	s.Register("attested", good)
	s.Register("rogue", bad)
	s.SetGate(&allowGate{allowed: map[string]bool{"attested": true}})

	if _, err := s.Ingest("attested", []byte("x")); err != nil {
		t.Fatalf("attested device rejected: %v", err)
	}
	if _, err := s.Ingest("rogue", []byte("x")); !errors.Is(err, ErrRejected) {
		t.Fatalf("rogue: got %v, want ErrRejected", err)
	}
	if bad.Audit().Events != 0 {
		t.Fatalf("rejected frame reached the endpoint: %d events", bad.Audit().Events)
	}
	st := s.Stats()
	if st.Frames != 1 || st.Rejected != 1 || st.Errors != 0 {
		t.Fatalf("bad stats: %+v", st)
	}
	// Clearing the gate restores open admission.
	s.SetGate(nil)
	if _, err := s.Ingest("rogue", []byte("x")); err != nil {
		t.Fatalf("gateless ingest: %v", err)
	}
}

func TestShardErrors(t *testing.T) {
	s := NewShard("s0", 1, 1)
	if _, err := s.Ingest("ghost", nil); !errors.Is(err, ErrUnknownDevice) {
		t.Fatalf("want ErrUnknownDevice, got %v", err)
	}
	bad := &countingProvider{fail: true}
	s.Register("dev", bad)
	if _, err := s.Ingest("dev", []byte("x")); err == nil {
		t.Fatal("want endpoint error")
	}
	if st := s.Stats(); st.Errors != 1 {
		t.Fatalf("errors = %d, want 1", st.Errors)
	}
	s.Close()
	if _, err := s.Ingest("dev", []byte("x")); !errors.Is(err, ErrShardClosed) {
		t.Fatalf("want ErrShardClosed, got %v", err)
	}
	s.Close() // idempotent
}

func TestRouterConsistentHashing(t *testing.T) {
	shards := []*Shard{NewShard("s0", 1, 2), NewShard("s1", 1, 2), NewShard("s2", 1, 2), NewShard("s3", 1, 2)}
	r, err := NewRouter(shards, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// Placement is deterministic and spread over multiple shards.
	used := map[string]int{}
	for i := 0; i < 256; i++ {
		id := fmt.Sprintf("device-%d", i)
		a, b := r.ShardFor(id), r.ShardFor(id)
		if a != b {
			t.Fatalf("placement of %s not stable", id)
		}
		used[a.Name()]++
	}
	if len(used) != 4 {
		t.Fatalf("256 devices only landed on %d/4 shards: %v", len(used), used)
	}

	// A device registered via the router is ingestable via the router.
	p := &countingProvider{}
	r.Register("device-7", p)
	if _, err := r.Ingest("device-7", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if got := r.Audit().Events; got != 1 {
		t.Fatalf("router audit events = %d, want 1", got)
	}
	if got := len(r.Stats()); got != 4 {
		t.Fatalf("stats for %d shards, want 4", got)
	}

	if _, err := NewRouter(nil, 8); !errors.Is(err, ErrNoShards) {
		t.Fatalf("want ErrNoShards, got %v", err)
	}
}

func TestRouterRingMovesFewKeysOnShardAdd(t *testing.T) {
	mk := func(names ...string) *Router {
		ss := make([]*Shard, len(names))
		for i, n := range names {
			ss[i] = NewShard(n, 1, 1)
		}
		r, err := NewRouter(ss, 64)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	r4 := mk("s0", "s1", "s2", "s3")
	r5 := mk("s0", "s1", "s2", "s3", "s4")
	defer r4.Close()
	defer r5.Close()
	moved := 0
	const n = 1000
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("device-%d", i)
		if r4.ShardFor(id).Name() != r5.ShardFor(id).Name() {
			moved++
		}
	}
	// Consistent hashing moves ~1/5 of keys when going 4→5 shards; a
	// modulo hash would move ~4/5. Allow generous slack.
	if moved > n*2/5 {
		t.Fatalf("adding a shard moved %d/%d keys — not consistent hashing", moved, n)
	}
}

func TestShardBackpressureConcurrentIngest(t *testing.T) {
	// Many producers against one slow single-worker shard with a depth-2
	// queue: everything must still arrive exactly once.
	s := NewShard("s0", 1, 2)
	defer s.Close()
	p := &countingProvider{}
	s.Register("dev", p)
	var wg sync.WaitGroup
	const producers, frames = 16, 8
	for g := 0; g < producers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < frames; i++ {
				if _, err := s.Ingest("dev", []byte("f")); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := p.Audit().Events; got != producers*frames {
		t.Fatalf("delivered %d frames, want %d", got, producers*frames)
	}
}

func TestUplinkRoutesDeviceTraffic(t *testing.T) {
	s := NewShard("s0", 1, 1)
	defer s.Close()
	r, err := NewRouter([]*Shard{s}, 8)
	if err != nil {
		t.Fatal(err)
	}
	p := &countingProvider{}
	r.Register("dev", p)
	u := &Uplink{DeviceID: "dev", Router: r}
	if _, err := u.Deliver([]byte("frame")); err != nil {
		t.Fatal(err)
	}
	if p.Audit().Events != 1 {
		t.Fatal("uplink did not reach the endpoint")
	}
}

// TestIngestStartsNoGoroutine: the ingest tier serves every frame on the
// goroutine that ingests it, so building shards and a router and
// ingesting through them leaves the goroutine count where it was.
func TestIngestStartsNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	shards := make([]*Shard, 8)
	for i := range shards {
		shards[i] = NewShard(fmt.Sprintf("s%d", i), 4, 8)
	}
	r, err := NewRouter(shards, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i := 0; i < 64; i++ {
		id := fmt.Sprintf("device-%d", i)
		r.Register(id, &countingProvider{})
		if _, err := r.Ingest(id, []byte("frame")); err != nil {
			t.Fatal(err)
		}
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("ingest tier started %d goroutines", after-before)
	}
}

// utilizationProvider records the highest Utilization its shard reports
// while a frame is being served.
type utilizationProvider struct {
	countingProvider
	shard   *Shard
	umu     sync.Mutex
	maxUtil float64
}

func (p *utilizationProvider) Deliver(frame []byte) ([]byte, error) {
	u := p.shard.Utilization()
	p.umu.Lock()
	p.maxUtil = max(p.maxUtil, u)
	p.umu.Unlock()
	return p.countingProvider.Deliver(frame)
}

// TestQueuePeakWithinSlots: while no more frames arrive at once than the
// shard has slots, every admitted frame takes a slot at once, so the
// queue never holds more than the frame being admitted (QueuePeak 1) and
// the bulk queue the scheduler's gauge reads stays empty. Both follow
// from the senders alone, not from how their goroutines interleave.
func TestQueuePeakWithinSlots(t *testing.T) {
	const slots, frames = 4, 200
	s := NewShard("s0", slots, 2*slots)
	defer s.Close()
	p := &utilizationProvider{shard: s}
	s.Register("dev", p)
	var wg sync.WaitGroup
	for g := 0; g < slots; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < frames; i++ {
				if _, err := s.Ingest("dev", []byte("f")); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if st := s.Stats(); st.QueuePeak != 1 || st.Frames != slots*frames {
		t.Fatalf("queue peak %d over %d frames, want 1 over %d", st.QueuePeak, st.Frames, slots*frames)
	}
	if p.maxUtil != 0 || s.Utilization() != 0 {
		t.Fatalf("utilization read %v during the run and %v after, want 0", p.maxUtil, s.Utilization())
	}
}
