package cloud

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/supplicant"
)

// TestShardCrashReplay: a crash strands the admitted queue, the senders
// keep blocking on their replies, and a restart replays every stranded
// frame to completion — counted in Restarts/Recovered, delivered exactly
// once. Each sender is its own device: the senders race to admission, and
// one device's frames served out of order would trip the shard's
// per-device dedup (TestShardDedup covers that).
func TestShardCrashReplay(t *testing.T) {
	s := NewShard("s0", 1, 8)
	defer s.Close()
	p := &countingProvider{}
	const frames = 6
	for i := 0; i < frames; i++ {
		s.Register(fmt.Sprintf("dev%d", i), p)
	}
	s.SetServeDelay(2 * time.Millisecond) // keep frames queued at crash time

	var wg sync.WaitGroup
	for i := 0; i < frames; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := s.IngestMeta(fmt.Sprintf("dev%d", i), []byte("x"), FrameMeta{Seq: uint64(i + 1)}); err != nil {
				t.Errorf("frame %d: %v", i, err)
			}
		}(i)
	}
	// Let the senders enqueue, then pull the rug.
	time.Sleep(5 * time.Millisecond)
	queued := s.Crash()

	// While crashed, new ingest fails transiently — retriable, never lost.
	if _, err := s.IngestMeta("dev0", []byte("x"), FrameMeta{Seq: 99}); !errors.Is(err, ErrShardCrashed) ||
		!errors.Is(err, supplicant.ErrTransient) {
		t.Fatalf("ingest while crashed misclassified: %v", err)
	}

	s.SetServeDelay(0)
	s.Restart()
	wg.Wait()

	st := s.Stats()
	if st.Restarts != 1 {
		t.Fatalf("restarts %d, want 1", st.Restarts)
	}
	if st.Recovered != uint64(queued) {
		t.Fatalf("recovered %d frames, %d were stranded at crash", st.Recovered, queued)
	}
	if p.Audit().Events != frames {
		t.Fatalf("delivered %d frames, want %d (crash lost or duplicated frames)", p.Audit().Events, frames)
	}
	if st.Frames != frames {
		t.Fatalf("shard counted %d frames, want %d", st.Frames, frames)
	}
}

// TestShardDedup: a duplicate of an already-served (device, seq) is
// dropped at admission — before gate, policy and audit — while seq 0
// (unsequenced probes) is exempt.
func TestShardDedup(t *testing.T) {
	s := NewShard("s0", 1, 4)
	defer s.Close()
	p := &countingProvider{}
	s.Register("dev", p)

	if _, err := s.IngestMeta("dev", []byte("a"), FrameMeta{Seq: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.IngestMeta("dev", []byte("a"), FrameMeta{Seq: 1}); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("replayed seq 1 was not deduplicated: %v", err)
	}
	if _, err := s.IngestMeta("dev", []byte("b"), FrameMeta{Seq: 2}); err != nil {
		t.Fatalf("fresh seq after a duplicate: %v", err)
	}
	for i := 0; i < 2; i++ {
		if _, err := s.IngestMeta("dev", []byte("probe"), FrameMeta{}); err != nil {
			t.Fatalf("unsequenced frame %d blocked by dedup: %v", i, err)
		}
	}
	st := s.Stats()
	if st.DuplicatesDropped != 1 {
		t.Fatalf("duplicates dropped %d, want 1", st.DuplicatesDropped)
	}
	if ev := p.Audit().Events; ev != 4 {
		t.Fatalf("endpoint saw %d events, want 4 (duplicate double-counted or frame lost)", ev)
	}
}

// TestRouterIngestGiveUpExpires is the give-up regression test: when
// every re-resolution lands on the same dead shard, the router's give-up
// path must classify the frame as expired — the error chains through
// ErrExpired to supplicant.ErrExpired with the underlying cause intact —
// not silently surface a bare routing error.
func TestRouterIngestGiveUpExpires(t *testing.T) {
	s := NewShard("s0", 1, 2)
	r, err := NewRouter([]*Shard{s}, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.Register("dev", &countingProvider{})
	s.Close() // kill the only shard under the router

	_, err = r.Ingest("dev", []byte("x"))
	if !errors.Is(err, ErrExpired) {
		t.Fatalf("give-up path did not expire: %v", err)
	}
	if !errors.Is(err, supplicant.ErrExpired) {
		t.Fatalf("expiry does not reach the supplicant classification: %v", err)
	}
	if !errors.Is(err, ErrShardClosed) {
		t.Fatalf("give-up error lost its cause: %v", err)
	}
}

// TestCrashRecoveryUnderLoadRace is the crash-under-churn race test (run
// with -race): devices keep ingesting while a supervised shard crashes
// and restarts twice, a weighted shard joins the ring, and a founding
// shard drains — all concurrently. Senders retry transient failures the
// way the device retry layer does; every frame must land exactly once.
func TestCrashRecoveryUnderLoadRace(t *testing.T) {
	shards := []*Shard{NewShard("s0", 2, 4), NewShard("s1", 2, 4), NewShard("s2", 2, 4)}
	r, err := NewRouter(shards, 32)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var crashEvents, restartEvents atomic.Int64
	sup := r.Supervise(func(e SupervisorEvent) {
		switch e.Kind {
		case "shard-crash":
			crashEvents.Add(1)
		case "shard-restart":
			restartEvents.Add(1)
		}
	})
	defer sup.Close()

	const (
		devices = 32
		frames  = 20
	)
	providers := make([]*countingProvider, devices)
	for i := range providers {
		providers[i] = &countingProvider{}
		r.Register(fmt.Sprintf("device-%d", i), providers[i])
	}

	var wg sync.WaitGroup
	for i := 0; i < devices; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := fmt.Sprintf("device-%d", i)
			for f := 0; f < frames; f++ {
				seq := uint64(f + 1)
				for {
					_, err := r.IngestMeta(id, []byte("frame"), FrameMeta{Seq: seq})
					if err == nil {
						break
					}
					if !errors.Is(err, supplicant.ErrTransient) {
						t.Errorf("%s frame %d: %v", id, f, err)
						return
					}
					time.Sleep(200 * time.Microsecond)
				}
			}
		}(i)
	}
	// The tier churns under the load: s1 crashes twice (supervised
	// restarts), a weighted shard joins, s0 drains.
	var queuedAtCrash atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; k < 2; k++ {
			time.Sleep(time.Millisecond)
			if queued, ok := r.CrashShard("s1"); ok {
				queuedAtCrash.Add(int64(queued))
			} else {
				t.Error("s1 not found for crash")
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		r.AddShard(NewShard("s3", 2, 4), 2)
		if err := r.Drain("s0"); err != nil {
			t.Errorf("drain: %v", err)
		}
	}()
	wg.Wait()
	sup.Close() // settle pending restarts before reading stats

	for i, p := range providers {
		if ev := p.Audit().Events; ev != frames {
			t.Fatalf("device-%d delivered %d frames, want %d", i, ev, frames)
		}
	}
	var restarts, recovered, total uint64
	for _, st := range r.Stats() {
		restarts += st.Restarts
		recovered += st.Recovered
		total += st.Frames
		if st.Errors != 0 {
			t.Fatalf("shard %s: %d endpoint errors", st.Name, st.Errors)
		}
	}
	if restarts != 2 {
		t.Fatalf("restarts %d, want 2", restarts)
	}
	if recovered != uint64(queuedAtCrash.Load()) {
		t.Fatalf("recovered %d frames, %d were stranded at crash", recovered, queuedAtCrash.Load())
	}
	if total != devices*frames {
		t.Fatalf("shard-counted %d frames, want %d", total, devices*frames)
	}
	if crashEvents.Load() != 2 || restartEvents.Load() != 2 {
		t.Fatalf("supervisor events: %d crashes / %d restarts, want 2/2",
			crashEvents.Load(), restartEvents.Load())
	}
}

// TestCloseCrashedShardThenRestart: Close of a crashed shard waits for
// the queue the crash stranded, and a Restart that arrives while Close
// waits still serves it — a closing shard owes its queue, so the restart
// must not be skipped. This is the Router.Drain path racing a supervised
// crash of the shard it drains.
func TestCloseCrashedShardThenRestart(t *testing.T) {
	s := NewShard("s0", 1, 4)
	p := newSlowProvider()
	s.Register("dev", p)

	const frames = 4
	var wg sync.WaitGroup
	for i := 0; i < frames; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := s.IngestMeta("dev", []byte("x"), FrameMeta{Seq: uint64(i + 1)}); err != nil {
				t.Errorf("frame %d: %v", i, err)
			}
		}(i)
	}
	<-p.started // one frame holds the slot
	waitForPending(t, s, frames-1)
	// Crash waits for the frame in service, so release it once the
	// crash has withheld the slots.
	crashed := make(chan int)
	go func() { crashed <- s.Crash() }()
	waitFor(t, s, func() bool { return s.crashed })
	close(p.gate)
	if queued := <-crashed; queued != frames-1 {
		t.Fatalf("crash stranded %d frames, want %d", queued, frames-1)
	}

	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	waitFor(t, s, func() bool { return s.closed })
	s.Restart()
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("Close of a crashed shard did not return after Restart")
	}
	wg.Wait()

	st := s.Stats()
	if p.Audit().Events != frames || st.Frames != frames {
		t.Fatalf("delivered %d frames (shard counted %d), want %d", p.Audit().Events, st.Frames, frames)
	}
	if st.Restarts != 1 || st.Recovered != frames-1 {
		t.Fatalf("restarts %d recovered %d, want 1 and %d", st.Restarts, st.Recovered, frames-1)
	}
}

// waitFor polls cond under the shard lock until it holds.
func waitFor(t *testing.T, s *Shard, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		ok := cond()
		s.mu.Unlock()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(100 * time.Microsecond)
	}
}
