package sched

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/tz"
)

// testExec flags items whose first token is odd and charges 100 cycles
// per item, recording every (version, batch-size) call it serves.
type testExec struct {
	mu    sync.Mutex
	calls []struct {
		version uint64
		items   int
	}
}

func (x *testExec) run(version uint64, items [][]int) ([]bool, tz.Cycles, error) {
	x.mu.Lock()
	x.calls = append(x.calls, struct {
		version uint64
		items   int
	}{version, len(items)})
	x.mu.Unlock()
	flagged := make([]bool, len(items))
	for i, toks := range items {
		flagged[i] = len(toks) > 0 && toks[0]%2 == 1
	}
	return flagged, tz.Cycles(100 * len(items)), nil
}

func item(tok int) []int { return []int{tok} }

// pool stands in for the fleet's executor pool: each of its live
// submitters parks on its own submission, and once every live submitter
// is parked the pool drives the scheduler's idle rule (NotifyIdle), as
// the fleet engine's executors do when no task is runnable.
type pool struct {
	s            *Scheduler
	mu           sync.Mutex
	live, parked int
}

func newPool(s *Scheduler, live int) *pool { return &pool{s: s, live: live} }

// done retires one submitter; the rest may now be all parked.
func (p *pool) done() {
	p.mu.Lock()
	p.live--
	p.mu.Unlock()
}

// classify submits req and parks until its callback fires, probing the
// idle rule while every live submitter is parked.
func (p *pool) classify(req Request) (Response, error) {
	var resp Response
	var err error
	fired := make(chan struct{})
	if err := p.s.SubmitAsync(req, func(r Response, e error) {
		resp, err = r, e
		close(fired)
	}); err != nil {
		return Response{}, err
	}
	p.mu.Lock()
	p.parked++
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		p.parked--
		p.mu.Unlock()
	}()
	for {
		select {
		case <-fired:
			return resp, err
		case <-time.After(20 * time.Microsecond):
		}
		p.mu.Lock()
		idle := p.parked == p.live
		p.mu.Unlock()
		if idle {
			p.s.NotifyIdle()
		}
	}
}

func TestBadConfig(t *testing.T) {
	if _, err := New(Config{Batch: 4}, nil); err == nil {
		t.Fatal("nil executor accepted")
	}
	x := &testExec{}
	if _, err := New(Config{Batch: 0}, x.run); err == nil {
		t.Fatal("zero batch accepted")
	}
	s, err := New(Config{Batch: 2}, x.run)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain()
	p := newPool(s, 1)
	if _, err := p.classify(Request{DeviceID: "d", Version: 1, Items: [][]int{item(1), item(2), item(3)}}); err == nil {
		t.Fatal("oversized request accepted")
	}
	if _, err := p.classify(Request{DeviceID: "d", Version: 1}); err == nil {
		t.Fatal("empty request accepted")
	}
}

// TestFlushOnFull: four submitters fill the batch exactly; one full flush
// serves all of them with correct per-item flags and occupancy.
func TestFlushOnFull(t *testing.T) {
	x := &testExec{}
	s, err := New(Config{Batch: 4, MaxAge: 1 << 40}, x.run)
	if err != nil {
		t.Fatal(err)
	}
	const n = 4
	p := newPool(s, n)
	var wg sync.WaitGroup
	resps := make([]Response, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer p.done()
			r, err := p.classify(Request{
				DeviceID: fmt.Sprintf("d%d", i), Version: 1,
				Items: [][]int{item(i)}, Now: 0,
			})
			if err != nil {
				t.Error(err)
				return
			}
			resps[i] = r
		}(i)
	}
	wg.Wait()
	s.Drain()
	for i, r := range resps {
		if len(r.Flagged) != 1 || r.Flagged[0] != (i%2 == 1) {
			t.Errorf("producer %d: flags %v", i, r.Flagged)
		}
		if r.Occupancy != 4 {
			t.Errorf("producer %d: occupancy %d, want 4", i, r.Occupancy)
		}
		if r.Wait < 100 {
			t.Errorf("producer %d: wait %d missing the pass share", i, r.Wait)
		}
	}
	st := s.Stats()
	if st.Flushes[ReasonFull] != 1 || st.Batches != 1 || st.Items != 4 {
		t.Fatalf("stats: %+v", st)
	}
	if st.MaxOccupancy != 4 || st.Occupancy[4] != 1 {
		t.Fatalf("occupancy: %+v", st)
	}
}

// TestDeadlineStarvation: a lone device whose single utterance can never
// fill the batch still flushes, charged exactly the deadline plus its
// pass share — batch-full is not required for progress.
func TestDeadlineStarvation(t *testing.T) {
	x := &testExec{}
	const maxAge = tz.Cycles(50_000)
	s, err := New(Config{Batch: 8, MaxAge: maxAge}, x.run)
	if err != nil {
		t.Fatal(err)
	}
	r, err := newPool(s, 1).classify(Request{DeviceID: "lone", Version: 1, Items: [][]int{item(3)}, Now: 1000})
	if err != nil {
		t.Fatal(err)
	}
	s.Drain()
	if !r.Flagged[0] {
		t.Fatal("odd token not flagged")
	}
	if want := maxAge + 100; r.Wait != want {
		t.Fatalf("wait %d, want deadline+share %d", r.Wait, want)
	}
	st := s.Stats()
	if st.Flushes[ReasonIdle] != 1 {
		t.Fatalf("expected one idle flush: %+v", st.Flushes)
	}
}

// TestFlushOnAge: a late submitter whose virtual clock is already past
// the head entry's deadline triggers an age flush carrying both.
func TestFlushOnAge(t *testing.T) {
	x := &testExec{}
	const maxAge = tz.Cycles(10_000)
	s, err := New(Config{Batch: 8, MaxAge: maxAge}, x.run)
	if err != nil {
		t.Fatal(err)
	}
	p := newPool(s, 2)
	var wg sync.WaitGroup
	var early Response
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer p.done()
		r, err := p.classify(Request{DeviceID: "early", Version: 1, Items: [][]int{item(1)}, Now: 0})
		if err != nil {
			t.Error(err)
			return
		}
		early = r
	}()
	waitPending(t, s, 1)
	r, err := p.classify(Request{DeviceID: "late", Version: 1, Items: [][]int{item(2)}, Now: maxAge})
	p.done()
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	s.Drain()
	if early.Wait != maxAge+100 {
		t.Fatalf("early wait %d, want %d", early.Wait, maxAge+100)
	}
	if r.Wait != 100 {
		t.Fatalf("late wait %d, want pass share only", r.Wait)
	}
	st := s.Stats()
	if st.Flushes[ReasonAge] != 1 {
		t.Fatalf("expected one age flush: %+v", st.Flushes)
	}
}

// TestPerVersionQueues: stable and canary cohorts flush separately even
// when interleaved; no executor call ever spans versions.
func TestPerVersionQueues(t *testing.T) {
	x := &testExec{}
	s, err := New(Config{Batch: 4, MaxAge: 1 << 40}, x.run)
	if err != nil {
		t.Fatal(err)
	}
	const perVersion = 4
	p := newPool(s, 2*perVersion)
	var wg sync.WaitGroup
	for v := uint64(1); v <= 2; v++ {
		for i := 0; i < perVersion; i++ {
			wg.Add(1)
			go func(v uint64, i int) {
				defer wg.Done()
				defer p.done()
				r, err := p.classify(Request{
					DeviceID: fmt.Sprintf("v%d-d%d", v, i), Version: v,
					Items: [][]int{item(i)},
				})
				if err != nil {
					t.Error(err)
					return
				}
				if r.Flagged[0] != (i%2 == 1) {
					t.Errorf("v%d d%d: wrong flag", v, i)
				}
			}(v, i)
		}
	}
	wg.Wait()
	s.Drain()
	st := s.Stats()
	if st.MixedVersionFlushes != 0 {
		t.Fatalf("%d mixed-version flushes", st.MixedVersionFlushes)
	}
	if st.ItemsByVersion[1] != perVersion || st.ItemsByVersion[2] != perVersion {
		t.Fatalf("items by version: %+v", st.ItemsByVersion)
	}
}

// TestPressureHalvesDeadline: with downstream utilization above the
// high-water mark, the idle deadline halves and the flush is tallied as
// pressure-driven.
func TestPressureHalvesDeadline(t *testing.T) {
	x := &testExec{}
	const maxAge = tz.Cycles(40_000)
	s, err := New(Config{
		Batch: 8, MaxAge: maxAge,
		Pressured: func() bool { return true },
	}, x.run)
	if err != nil {
		t.Fatal(err)
	}
	r, err := newPool(s, 1).classify(Request{DeviceID: "d", Version: 1, Items: [][]int{item(2)}})
	if err != nil {
		t.Fatal(err)
	}
	s.Drain()
	if want := maxAge/2 + 100; r.Wait != want {
		t.Fatalf("wait %d, want halved deadline %d", r.Wait, want)
	}
	if st := s.Stats(); st.PressureFlushes != 1 {
		t.Fatalf("pressure flushes: %+v", st)
	}
}

// TestDrainFlushesLeftovers: entries that neither fill a batch nor hit a
// deadline are flushed by Drain with the drain reason.
func TestDrainFlushesLeftovers(t *testing.T) {
	x := &testExec{}
	s, err := New(Config{Batch: 8, MaxAge: 1 << 40}, x.run)
	if err != nil {
		t.Fatal(err)
	}
	// Two live submitters, only one submits: the idle rule cannot fire,
	// so the entry sits queued until Drain.
	p := newPool(s, 2)
	var wg sync.WaitGroup
	var r Response
	wg.Add(1)
	go func() {
		defer wg.Done()
		var err error
		r, err = p.classify(Request{DeviceID: "d", Version: 1, Items: [][]int{item(5)}})
		if err != nil {
			t.Error(err)
		}
	}()
	waitPending(t, s, 1)
	s.Drain()
	wg.Wait()
	if !r.Flagged[0] {
		t.Fatal("flag lost in drain")
	}
	st := s.Stats()
	if st.Flushes[ReasonDrain] != 1 {
		t.Fatalf("expected one drain flush: %+v", st.Flushes)
	}
	if _, err := p.classify(Request{DeviceID: "d", Version: 1, Items: [][]int{item(1)}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submission after Drain: err = %v, want ErrClosed", err)
	}

	// Leftovers of several model versions drain in ascending version
	// order, whatever order the versions arrived in: Drain runs its cuts
	// in the order it makes them.
	for run := 0; run < 20; run++ {
		x := &testExec{}
		s, err := New(Config{Batch: 8, MaxAge: 1 << 40}, x.run)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range []uint64{3, 1, 2} {
			req := Request{DeviceID: fmt.Sprintf("v%d", v), Version: v, Items: [][]int{item(int(v))}}
			if err := s.SubmitAsync(req, func(Response, error) {}); err != nil {
				t.Fatal(err)
			}
		}
		s.Drain()
		var order []uint64
		for _, c := range x.calls {
			order = append(order, c.version)
		}
		if fmt.Sprint(order) != "[1 2 3]" {
			t.Fatalf("run %d: drain flushed versions in order %v, want [1 2 3]", run, order)
		}
	}
}

// TestSchedulerHammer drives many submitters over mixed versions and
// random item counts concurrently (meaningful under -race): every item's
// flag must match the per-sample rule regardless of flush composition,
// and no flush may mix versions.
func TestSchedulerHammer(t *testing.T) {
	x := &testExec{}
	s, err := New(Config{Batch: 8, MaxAge: 5_000}, x.run)
	if err != nil {
		t.Fatal(err)
	}
	const producers = 16
	const rounds = 25
	pl := newPool(s, producers)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			defer pl.done()
			for r := 0; r < rounds; r++ {
				n := 1 + (p+r)%3
				items := make([][]int, n)
				for i := range items {
					items[i] = item(p*1000 + r*10 + i)
				}
				resp, err := pl.classify(Request{
					DeviceID: fmt.Sprintf("d%d", p),
					Version:  uint64(1 + p%3),
					Items:    items,
					Now:      tz.Cycles(r * 1000),
				})
				if err != nil {
					t.Error(err)
					return
				}
				for i := range items {
					if resp.Flagged[i] != (items[i][0]%2 == 1) {
						t.Errorf("p%d r%d item %d: flag mismatch", p, r, i)
					}
				}
				if resp.Occupancy < n || resp.Occupancy > 8 {
					t.Errorf("occupancy %d out of range", resp.Occupancy)
				}
			}
		}(p)
	}
	wg.Wait()
	s.Drain()
	st := s.Stats()
	var want uint64
	for p := 0; p < producers; p++ {
		for r := 0; r < rounds; r++ {
			want += uint64(1 + (p+r)%3)
		}
	}
	if st.Items != want {
		t.Fatalf("classified %d items, want %d", st.Items, want)
	}
	if st.MixedVersionFlushes != 0 {
		t.Fatalf("%d mixed-version flushes", st.MixedVersionFlushes)
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	for _, c := range x.calls {
		if c.items > 8 {
			t.Fatalf("executor saw a %d-item batch over the cap", c.items)
		}
	}
}

// TestSubmitAsyncCoalesces: single-item asynchronous enqueues from one
// logical caller coalesce into a full flush and the callbacks see the
// flush occupancy. No callback runs before its flush is cut, and the
// submission that fills the batch runs the flush: every callback has
// fired by the time that SubmitAsync returns.
func TestSubmitAsyncCoalesces(t *testing.T) {
	x := &testExec{}
	s, err := New(Config{Batch: 4, MaxAge: 1 << 40}, x.run)
	if err != nil {
		t.Fatal(err)
	}
	const n = 4
	resps := make([]Response, n)
	fired, submitting := 0, 0
	for i := 0; i < n; i++ {
		i := i
		submitting = i
		err := s.SubmitAsync(Request{
			DeviceID: fmt.Sprintf("d%d", i), Version: 1, Items: [][]int{item(i)},
		}, func(r Response, err error) {
			if err != nil {
				t.Error(err)
			}
			if submitting != n-1 {
				t.Errorf("callback %d fired during submission %d, before the batch filled", i, submitting)
			}
			resps[i] = r
			fired++
		})
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		if i == n-1 {
			want = n
		}
		if fired != want {
			t.Fatalf("after submission %d: %d callbacks fired, want %d", i, fired, want)
		}
	}
	for i, r := range resps {
		if len(r.Flagged) != 1 || r.Flagged[0] != (i%2 == 1) {
			t.Errorf("submission %d: flags %v", i, r.Flagged)
		}
		if r.Occupancy != 4 {
			t.Errorf("submission %d: occupancy %d, want the full flush", i, r.Occupancy)
		}
	}
	st := s.Stats()
	if st.Flushes[ReasonFull] != 1 || st.Batches != 1 || st.Items != 4 {
		t.Fatalf("four single-item async submissions did not coalesce: %+v", st)
	}
	s.Drain()

	// Invalid submissions are rejected up front, never via callback.
	if err := s.SubmitAsync(Request{Items: [][]int{item(1)}}, nil); err == nil {
		t.Fatal("nil callback accepted")
	}
}

// TestNotifyIdleCutsStarvedQueue: with no flush in flight, NotifyIdle
// advances the virtual clock to the starved queue's deadline and cuts it
// — the scheduler's only idle rule, driven by the caller.
func TestNotifyIdleCutsStarvedQueue(t *testing.T) {
	x := &testExec{}
	s, err := New(Config{Batch: 8, MaxAge: 50_000}, x.run)
	if err != nil {
		t.Fatal(err)
	}
	if s.NotifyIdle() {
		t.Fatal("NotifyIdle cut an empty scheduler")
	}
	done := make(chan Response, 1)
	if err := s.SubmitAsync(Request{DeviceID: "d", Version: 1, Items: [][]int{item(3)}},
		func(r Response, err error) {
			if err != nil {
				t.Error(err)
			}
			done <- r
		}); err != nil {
		t.Fatal(err)
	}
	if !s.NotifyIdle() {
		t.Fatal("NotifyIdle found nothing to cut with one item starved")
	}
	var r Response
	select {
	case r = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("idle cut never completed the submission")
	}
	if r.Wait < 50_000 {
		t.Fatalf("idle-cut wait %d did not charge the deadline", r.Wait)
	}
	st := s.Stats()
	if st.Flushes[ReasonIdle] != 1 {
		t.Fatalf("expected one idle flush: %+v", st.Flushes)
	}
	s.Drain()
	if s.NotifyIdle() {
		t.Fatal("NotifyIdle cut a drained scheduler")
	}
}

// TestDrainStatsSeparated is the occupancy bugfix's unit regression: the
// raw mean occupancy averages over every flush including the end-of-run
// drain tail, while DrainBatches/DrainItems let callers recover the
// steady-state figure. One full flush of 4 plus a drain flush of 1 must
// report raw mean 2.5 with exactly one drain batch carrying one item.
func TestDrainStatsSeparated(t *testing.T) {
	x := &testExec{}
	s, err := New(Config{Batch: 4, MaxAge: 1 << 40}, x.run)
	if err != nil {
		t.Fatal(err)
	}
	fired := make(chan struct{}, 5)
	cb := func(r Response, err error) {
		if err != nil {
			t.Error(err)
		}
		fired <- struct{}{}
	}
	for i := 0; i < 4; i++ {
		if err := s.SubmitAsync(Request{DeviceID: "d", Version: 1, Items: [][]int{item(i)}}, cb); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < 4; k++ {
		select {
		case <-fired:
		case <-time.After(5 * time.Second):
			t.Fatal("full flush callbacks missing")
		}
	}
	if err := s.SubmitAsync(Request{DeviceID: "d", Version: 1, Items: [][]int{item(9)}}, cb); err != nil {
		t.Fatal(err)
	}
	s.Drain()
	select {
	case <-fired:
	default:
		t.Fatal("drain returned before the leftover's callback fired")
	}
	st := s.Stats()
	if st.Batches != 2 || st.Items != 5 {
		t.Fatalf("stats: %+v, want 2 batches / 5 items", st)
	}
	if st.DrainBatches != 1 || st.DrainItems != 1 {
		t.Fatalf("drain tally %d batches / %d items, want 1/1: %+v",
			st.DrainBatches, st.DrainItems, st)
	}
	if got := float64(st.Items) / float64(st.Batches); got != 2.5 {
		t.Fatalf("raw mean occupancy %v, want 2.5 (drain tail included)", got)
	}
	if steady := float64(st.Items-st.DrainItems) / float64(st.Batches-st.DrainBatches); steady != 4 {
		t.Fatalf("steady occupancy %v, want 4 (drain tail excluded)", steady)
	}
}

// TestNotifyIdleDefersToPendingDelivery is the idle-probe regression: an
// executor pool probing while a flush's completions are still being
// delivered must not cut queued entries as "idle" — the continuations
// being delivered may submit the work that fills the batch, so the
// premature cut would advance the virtual clock and record a spurious
// idle flush. A flush stays in flight until its callbacks have run, so
// NotifyIdle returns false during delivery and the deferred cut fires
// once delivery has finished.
func TestNotifyIdleDefersToPendingDelivery(t *testing.T) {
	x := &testExec{}
	s, err := New(Config{Batch: 2, MaxAge: 50_000}, x.run)
	if err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{})
	gate := make(chan struct{})
	done := make(chan int, 3)
	// A full flush of two whose first completion parks mid-delivery,
	// pinning the goroutine that cut the flush inside its delivery loop.
	if err := s.SubmitAsync(Request{DeviceID: "a", Version: 1, Items: [][]int{item(2)}},
		func(Response, error) {
			close(entered)
			<-gate
			done <- 1
		}); err != nil {
		t.Fatal(err)
	}
	submitted := make(chan error, 1)
	go func() { // fills the batch, so this goroutine runs the flush
		submitted <- s.SubmitAsync(Request{DeviceID: "b", Version: 1, Items: [][]int{item(4)}},
			func(Response, error) { done <- 2 })
	}()
	select {
	case <-entered: // the cutter is delivering the full flush's completions
	case <-time.After(5 * time.Second):
		t.Fatal("full flush never started delivering")
	}
	if err := s.SubmitAsync(Request{DeviceID: "c", Version: 1, Items: [][]int{item(6)}},
		func(Response, error) { done <- 3 }); err != nil {
		t.Fatal(err)
	}
	if s.NotifyIdle() {
		t.Fatal("NotifyIdle cut while the full flush's completions were still being delivered")
	}
	if st := s.Stats(); st.Flushes[ReasonIdle] != 0 {
		t.Fatalf("spurious idle flush during delivery: %+v", st.Flushes)
	}
	close(gate)
	for _, want := range []int{1, 2} {
		select {
		case got := <-done:
			if got != want {
				t.Fatalf("completion %d delivered, want %d", got, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("full-flush completions missing")
		}
	}
	if err := <-submitted; err != nil {
		t.Fatal(err)
	}
	// The filling submission has returned, so its flush released the
	// in-flight slot: the deferred idle cut runs now, on this goroutine.
	if !s.NotifyIdle() {
		t.Fatal("NotifyIdle never cut the starved queue after delivery finished")
	}
	select {
	case got := <-done:
		if got != 3 {
			t.Fatalf("idle cut delivered completion %d, want 3", got)
		}
	default:
		t.Fatal("idle cut returned before delivering the queued entry")
	}
	st := s.Stats()
	if st.Flushes[ReasonFull] != 1 || st.Flushes[ReasonIdle] != 1 {
		t.Fatalf("flush tally %+v, want one full and one idle", st.Flushes)
	}
	s.Drain()
}

// waitPending spins until the scheduler holds n queued items (test
// synchronization only; production code never polls).
func waitPending(t *testing.T, s *Scheduler, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		s.mu.Lock()
		queued := 0
		for _, q := range s.queues {
			queued += q.items
		}
		s.mu.Unlock()
		if queued == n {
			return
		}
		time.Sleep(100 * time.Microsecond)
	}
	t.Fatalf("scheduler never reached %d pending items", n)
}
