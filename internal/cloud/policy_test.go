package cloud

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"
	"time"
)

// slowProvider holds every delivery until released, so tests can build
// real queue pressure deterministically; started signals each Deliver
// entry so a test can wait until the worker holds a frame.
type slowProvider struct {
	mu        sync.Mutex
	delivered int
	gate      chan struct{}
	started   chan struct{}
}

func newSlowProvider() *slowProvider {
	return &slowProvider{gate: make(chan struct{}), started: make(chan struct{}, 64)}
}

func (p *slowProvider) Deliver(frame []byte) ([]byte, error) {
	select {
	case p.started <- struct{}{}:
	default: // signal is best-effort; tests consume only the first
	}
	<-p.gate
	p.mu.Lock()
	p.delivered++
	p.mu.Unlock()
	return []byte("ack"), nil
}

func (p *slowProvider) Audit() Audit {
	p.mu.Lock()
	defer p.mu.Unlock()
	return Audit{Events: p.delivered}
}

func (p *slowProvider) Reset() {}

func TestPolicyByName(t *testing.T) {
	for name, want := range map[string]string{
		"": "fixed", "fixed": "fixed", "shed": "shed", "fair": "fair",
	} {
		p, ok := PolicyByName(name)
		if !ok || p.Name() != want {
			t.Fatalf("PolicyByName(%q) = %v, %v", name, p, ok)
		}
	}
	if _, ok := PolicyByName("bogus"); ok {
		t.Fatal("accepted unknown policy name")
	}
}

// TestLoadShedUnderPressure: with the queue held at its high-water mark,
// bulk frames shed and priority frames do not.
func TestLoadShedUnderPressure(t *testing.T) {
	s := NewShard("s0", 1, 4)
	s.SetPolicy(&LoadShedPolicy{HighWater: 0.5})
	p := newSlowProvider()
	s.Register("dev", p)

	// Fill the queue to the mark one admitted frame at a time (so no
	// fill frame ever sees the mark itself): the single worker blocks on
	// the provider holding the first frame, two more sit queued
	// (bulk pending 2 = mark).
	var wg sync.WaitGroup
	fill := func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Ingest("dev", []byte("fill")); err != nil {
				t.Errorf("fill frame: %v", err)
			}
		}()
	}
	fill()
	<-p.started // worker holds frame 1; queue empty
	fill()
	waitForPending(t, s, 1)
	fill()
	waitForPending(t, s, 2)

	if _, err := s.Ingest("dev", []byte("bulk")); !errors.Is(err, ErrShed) {
		t.Fatalf("bulk frame above high water: got %v, want ErrShed", err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := s.IngestMeta("dev", []byte("prio"), FrameMeta{Priority: true})
		done <- err
	}()

	close(p.gate)
	wg.Wait()
	if err := <-done; err != nil {
		t.Fatalf("priority frame under pressure: %v", err)
	}
	st := s.Stats()
	if st.Shed != 1 || st.Prioritized != 1 {
		t.Fatalf("stats: %+v (want Shed=1 Prioritized=1)", st)
	}
	s.Close()
}

// TestFairShareShedsOnlyOverShareTenants: above the high-water mark the
// fair-share policy sheds the tenant hogging the queue but still admits
// a tenant under its share.
func TestFairShareShedsOnlyOverShareTenants(t *testing.T) {
	s := NewShard("s0", 1, 4)
	s.SetPolicy(NewFairSharePolicy(0.5))
	p := newSlowProvider()
	s.Register("dev", p)

	hog := FrameMeta{Tenant: "hog"}
	var wg sync.WaitGroup
	send := func(meta FrameMeta) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.IngestMeta("dev", []byte("fill"), meta); err != nil {
				t.Errorf("fill frame (%+v): %v", meta, err)
			}
		}()
	}
	// Build pressure one admitted frame at a time so the policy's view is
	// deterministic: the worker holds one hog frame, three more hog frames
	// and one quiet frame sit queued. With only "hog" active its fair
	// share is the whole queue, so nothing sheds while it is alone.
	send(hog)
	<-p.started // worker holds frame 1; queue empty
	send(hog)
	waitForPending(t, s, 1)
	send(hog)
	waitForPending(t, s, 2)
	send(hog)
	waitForPending(t, s, 3)
	send(FrameMeta{Tenant: "quiet"})
	waitForPending(t, s, 4)

	// Two active tenants now split a capacity-4 queue: fair share 2.
	// "hog" queues 3 frames (over share) → its next bulk frame sheds;
	// "quiet" queues 1 (under share) → its next frame is admitted.
	if _, err := s.IngestMeta("dev", []byte("more"), hog); !errors.Is(err, ErrShed) {
		t.Fatalf("over-share tenant: got %v, want ErrShed", err)
	}
	send(FrameMeta{Tenant: "quiet"})

	close(p.gate)
	wg.Wait()
	if st := s.Stats(); st.Shed != 1 || st.Frames != 6 {
		t.Fatalf("stats: %+v (want Shed=1 Frames=6)", st)
	}
	s.Close()
}

// TestShedOnlyEverDropsBulkFrames is the shed-safety property test: for
// randomized mixes of priority/bulk traffic, tenants, queue depths and
// policies, fired concurrently against slow shards, a shed frame is only
// ever a bulk frame. The property is structural (the shard never asks
// the policy about a priority frame), and this is the behavioural check:
// priority senders must never observe ErrShed, no matter the pressure.
func TestShedOnlyEverDropsBulkFrames(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial=%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(0xe1a57, uint64(trial)))
			var policy AdmissionPolicy = &LoadShedPolicy{HighWater: 0.25 + rng.Float64()/2}
			if trial%2 == 1 {
				policy = NewFairSharePolicy(0.25 + rng.Float64()/2)
			}
			depth := 1 + rng.IntN(4)
			s := NewShard("s0", 1, depth)
			s.SetPolicy(policy)
			p := newSlowProvider()
			s.Register("dev", p)

			const senders = 24
			frames := 4 + rng.IntN(8)
			prioBySender := make([]bool, senders)
			tenantBySender := make([]string, senders)
			for i := range prioBySender {
				prioBySender[i] = rng.Float64() < 0.4
				tenantBySender[i] = fmt.Sprintf("tenant-%d", rng.IntN(3))
			}

			var wg sync.WaitGroup
			var mu sync.Mutex
			prioShed, bulkShed, otherErrs := 0, 0, 0
			for i := 0; i < senders; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					meta := FrameMeta{Tenant: tenantBySender[i], Priority: prioBySender[i]}
					for f := 0; f < frames; f++ {
						_, err := s.IngestMeta("dev", []byte("x"), meta)
						switch {
						case err == nil:
						case errors.Is(err, ErrShed):
							mu.Lock()
							if meta.Priority {
								prioShed++
							} else {
								bulkShed++
							}
							mu.Unlock()
						default:
							mu.Lock()
							otherErrs++
							mu.Unlock()
						}
					}
				}(i)
			}
			// Keep the provider slow long enough for pressure to build,
			// then let the queue drain so every sender finishes.
			time.Sleep(2 * time.Millisecond)
			close(p.gate)
			wg.Wait()

			if prioShed != 0 {
				t.Fatalf("%d priority frames shed (bulk shed %d)", prioShed, bulkShed)
			}
			if otherErrs != 0 {
				t.Fatalf("%d unexpected errors", otherErrs)
			}
			st := s.Stats()
			if int(st.Shed) != bulkShed {
				t.Fatalf("shard counted %d shed, senders observed %d", st.Shed, bulkShed)
			}
			if int(st.Frames)+bulkShed != senders*frames {
				t.Fatalf("frames %d + shed %d != sent %d", st.Frames, bulkShed, senders*frames)
			}
			s.Close()
		})
	}
}

// orderProvider is a slowProvider that records the order frames are
// served in.
type orderProvider struct {
	*slowProvider
	omu   sync.Mutex
	order []string
}

func (p *orderProvider) Deliver(frame []byte) ([]byte, error) {
	ack, err := p.slowProvider.Deliver(frame)
	p.omu.Lock()
	p.order = append(p.order, string(frame))
	p.omu.Unlock()
	return ack, err
}

// TestPriorityFrameTakesNextSlot: when the one slot frees, a waiting
// priority frame is served before a bulk frame that has waited longer.
func TestPriorityFrameTakesNextSlot(t *testing.T) {
	s := NewShard("s0", 1, 4)
	defer s.Close()
	p := &orderProvider{slowProvider: newSlowProvider()}
	s.Register("dev", p)

	var wg sync.WaitGroup
	send := func(frame string, meta FrameMeta) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.IngestMeta("dev", []byte(frame), meta); err != nil {
				t.Errorf("%s: %v", frame, err)
			}
		}()
	}
	send("hold", FrameMeta{})
	<-p.started // "hold" has the slot
	send("bulk", FrameMeta{})
	waitForPending(t, s, 1)
	send("prio", FrameMeta{Priority: true})
	waitForPending(t, s, 2)
	close(p.gate)
	wg.Wait()

	if got := fmt.Sprint(p.order); got != "[hold prio bulk]" {
		t.Fatalf("served %s, want [hold prio bulk]", got)
	}
}

// waitForPending blocks until the shard has n admitted-but-unserved
// frames (the test's pressure precondition).
func waitForPending(t *testing.T, s *Shard, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		pending := s.pending
		s.mu.Unlock()
		if pending >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("pending stuck at %d, want %d", pending, n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}
