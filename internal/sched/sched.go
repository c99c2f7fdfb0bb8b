// Package sched implements the cross-device TEE inference scheduler:
// pending utterances from many devices are coalesced into one batched
// forward pass on a shared per-model-version enclave classifier, instead
// of each device paying a per-device pass. Admission is deadline-aware —
// a queue flushes when it reaches the configured batch size OR when its
// oldest entry has waited the configured max age in virtual cycles — and
// queues are segregated by model version, so a rollout's canary cohort
// never shares a batch with the stable cohort.
//
// The scheduler is latency machinery only: it never drops, reorders
// within a device, or re-labels work. Classifier predictions are
// per-sample, so a device's flags (and therefore its transcripts, audit
// counters, and cloud events) are bit-identical to the per-device
// unbatched path no matter how flushes compose. Only virtual wait time
// and batch occupancy differ — that is the invariant the fleet-level
// batch-equivalence property suite pins.
//
// Trust boundary: the scheduler runs in the shared service enclave. It
// sees encoded token IDs (already vocabulary-clamped inside the device
// TA) and cleartext queue metadata (device ID, model version, virtual
// timestamps) — never raw audio, transcript words, or sealed payloads.
package sched

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/tz"
)

// ErrBadConfig is returned for invalid scheduler configurations.
var ErrBadConfig = errors.New("sched: invalid config")

// ErrClosed is returned for submissions after Close.
var ErrClosed = errors.New("sched: scheduler closed")

// DefaultMaxAge is the flush deadline when none is configured: 2 virtual
// milliseconds at the 1 GHz cycle model — about the cost of one batched
// forward pass, so deadline flushes do not dominate under light load.
const DefaultMaxAge tz.Cycles = 2_000_000

// DefaultWorkers bounds concurrent flush executions when unset.
const DefaultWorkers = 2

// Request is one device's pending classification work: the encoded token
// sequences of its queued utterances plus the device's virtual clock at
// submit time. Items from one request always ride the same flush.
type Request struct {
	DeviceID string
	Version  uint64  // model version; selects the queue and shared classifier
	Items    [][]int // encoded token sequences, one per utterance
	Now      tz.Cycles
}

// Response carries the per-item verdicts back to the submitting device,
// the virtual cycles its clock must advance (queue wait plus its share of
// the shared forward pass), and the occupancy of the flush it rode in.
type Response struct {
	Flagged   []bool
	Wait      tz.Cycles
	Occupancy int
}

// Executor runs one batched forward pass over items of a single model
// version, returning per-item flags and the total pass cost in cycles.
// The scheduler never mixes versions in one call.
type Executor func(version uint64, items [][]int) ([]bool, tz.Cycles, error)

// Config parameterizes a Scheduler.
type Config struct {
	// Batch is the flush occupancy cap (items per shared forward pass).
	Batch int
	// MaxAge is the deadline in virtual cycles: a queue whose oldest
	// entry has waited this long flushes regardless of occupancy.
	// Default DefaultMaxAge.
	MaxAge tz.Cycles
	// Workers bounds concurrent flush executions. Default DefaultWorkers.
	Workers int
	// Pressure, when set, reports downstream uplink utilization in
	// [0,1] (the cloud admission policy's occupancy signal). At or above
	// HighWater the scheduler halves its effective max age: it flushes
	// smaller batches sooner, smoothing arrivals into a loaded uplink
	// instead of bursting into queues the admission policy would shed.
	Pressure func() float64
	// HighWater is the pressure threshold; default 0.75, matching
	// cloud.DefaultHighWater.
	HighWater float64
}

// Flush reasons, tallied in Stats.Flushes.
const (
	ReasonFull  = "full"  // queue reached the batch size
	ReasonAge   = "age"   // oldest entry exceeded max age
	ReasonIdle  = "idle"  // deadline timer fired with every submitter parked (NotifyIdle)
	ReasonDrain = "drain" // end-of-run drain
)

// Stats is a snapshot of scheduler behavior for results and snapshots.
type Stats struct {
	Flushes        map[string]uint64 // flush count by reason
	Batches        uint64            // total flushes
	Items          uint64            // total items classified
	ItemsByVersion map[uint64]uint64 // items per model version
	Occupancy      map[int]uint64    // flush size -> count
	MaxOccupancy   int
	// MixedVersionFlushes counts flushes whose items spanned more than
	// one model version. Per-version queues make this impossible by
	// construction; it is tallied defensively and asserted zero in tests.
	MixedVersionFlushes uint64
	// PressureFlushes counts flushes cut under the halved deadline while
	// downstream pressure was at or above the high-water mark.
	PressureFlushes uint64
	// DrainBatches/DrainItems single out the end-of-run drain flushes
	// (reason "drain", typically size 0–1), so steady-state occupancy can
	// be reported without the drain tail dragging the mean down.
	DrainBatches uint64
	DrainItems   uint64
}

// entry is one queued request with its completion callback.
type entry struct {
	req   Request
	stamp tz.Cycles // scheduler clock at enqueue
	resp  Response
	err   error
	cb    func(Response, error)
}

// queue is the FIFO for one model version.
type queue struct {
	version uint64
	entries []*entry
	items   int // sum of len(req.Items) over entries
}

// flushJob is one cut batch handed to the worker pool.
type flushJob struct {
	version    uint64
	entries    []*entry
	items      int
	reason     string
	flushClock tz.Cycles
}

// Scheduler coalesces classification requests across devices. Submitters
// enqueue with SubmitAsync and get a callback once their flush executes;
// a bounded worker pool runs the shared forward passes. A queue flushes
// when full, when its head passes the deadline, when the caller reports
// that nothing new can arrive (NotifyIdle), or at Drain.
type Scheduler struct {
	cfg  Config
	exec Executor

	mu         sync.Mutex
	cond       *sync.Cond // signals pending flush jobs to workers
	clock      tz.Cycles  // scheduler virtual clock: max over submit stamps
	queues     []*queue   // one per model version, ascending by version
	jobs       []*flushJob
	inflight   int // flush jobs queued or executing
	delivering int // executed flushes whose completions are being delivered
	closed     bool

	flushes        map[string]uint64
	itemsByVersion map[uint64]uint64
	occupancy      map[int]uint64
	maxOccupancy   int
	batches        uint64
	totalItems     uint64
	mixed          uint64
	pressureCuts   uint64
	drainBatches   uint64
	drainItems     uint64

	wg sync.WaitGroup
}

// New validates the config and starts the flush worker pool.
func New(cfg Config, exec Executor) (*Scheduler, error) {
	if exec == nil {
		return nil, fmt.Errorf("%w: nil executor", ErrBadConfig)
	}
	if cfg.Batch <= 0 {
		return nil, fmt.Errorf("%w: batch %d", ErrBadConfig, cfg.Batch)
	}
	if cfg.MaxAge <= 0 {
		cfg.MaxAge = DefaultMaxAge
	}
	if cfg.Workers <= 0 {
		cfg.Workers = DefaultWorkers
	}
	if cfg.HighWater <= 0 || cfg.HighWater > 1 {
		cfg.HighWater = 0.75
	}
	s := &Scheduler{
		cfg:            cfg,
		exec:           exec,
		flushes:        make(map[string]uint64),
		itemsByVersion: make(map[uint64]uint64),
		occupancy:      make(map[int]uint64),
	}
	s.cond = sync.NewCond(&s.mu)
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s, nil
}

// SubmitAsync enqueues a request without blocking: cb fires exactly once
// with the response once the flush carrying the request has executed.
// Callbacks run on scheduler worker goroutines, never synchronously on
// the submit path, and always after the flush's inflight slot has been
// released — so a callback may safely re-submit or probe NotifyIdle.
func (s *Scheduler) SubmitAsync(req Request, cb func(Response, error)) error {
	if cb == nil {
		return fmt.Errorf("%w: nil callback", ErrBadConfig)
	}
	if len(req.Items) == 0 {
		return fmt.Errorf("%w: empty async request", ErrBadConfig)
	}
	if len(req.Items) > s.cfg.Batch {
		return fmt.Errorf("%w: request of %d items exceeds batch %d",
			ErrBadConfig, len(req.Items), s.cfg.Batch)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	if req.Now > s.clock {
		s.clock = req.Now
	}
	e := &entry{req: req, stamp: s.clock, cb: cb}
	q := s.queue(req.Version)
	q.entries = append(q.entries, e)
	q.items += len(req.Items)
	s.maybeFlush()
	s.mu.Unlock()
	return nil
}

// NotifyIdle is the scheduler's idle rule, driven by the caller: an
// executor pool with no runnable work asserts that nothing new can
// arrive until a pending flush completes, which models the oldest
// queue's deadline timer firing. If no flush is
// in flight and entries are queued, the scheduler advances its clock to
// the oldest queue's deadline and cuts it (reason "idle"), returning
// true. Returns false when there was nothing to cut — closed, a flush
// already in flight (its completion will re-evaluate the queues),
// completions still being delivered (the continuations they fire may
// submit the work that fills a batch, so cutting now would be premature
// and would advance the clock on a false idle premise), or no queued
// entries.
func (s *Scheduler) NotifyIdle() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.inflight > 0 || s.delivering > 0 {
		return false
	}
	maxAge, pressured := s.effectiveMaxAge()
	// s.queues ascends by version, so a tie goes to the lower version.
	var oldest *queue
	for _, q := range s.queues {
		if len(q.entries) > 0 && (oldest == nil || q.entries[0].stamp < oldest.entries[0].stamp) {
			oldest = q
		}
	}
	if oldest == nil {
		return false
	}
	deadline := oldest.entries[0].stamp + maxAge
	if deadline > s.clock {
		s.clock = deadline
	}
	s.cut(oldest, ReasonIdle, s.clock)
	if pressured {
		s.pressureCuts++
	}
	return true
}

// Drain flushes every remaining queue and waits for all in-flight work,
// then stops the worker pool. Call after all submitters are done; further
// submissions fail with ErrClosed.
func (s *Scheduler) Drain() {
	s.mu.Lock()
	for _, q := range s.queues {
		for len(q.entries) > 0 {
			s.cut(q, ReasonDrain, s.clock)
		}
	}
	for s.inflight > 0 {
		// Workers broadcast on completion; wait for the tail.
		s.cond.Wait()
	}
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
}

// Pending returns the number of items currently queued (not yet cut
// into a flush) across all version queues.
func (s *Scheduler) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, q := range s.queues {
		n += q.items
	}
	return n
}

// Stats returns a copy of the scheduler's counters.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Flushes:             make(map[string]uint64, len(s.flushes)),
		Batches:             s.batches,
		Items:               s.totalItems,
		ItemsByVersion:      make(map[uint64]uint64, len(s.itemsByVersion)),
		Occupancy:           make(map[int]uint64, len(s.occupancy)),
		MaxOccupancy:        s.maxOccupancy,
		MixedVersionFlushes: s.mixed,
		PressureFlushes:     s.pressureCuts,
		DrainBatches:        s.drainBatches,
		DrainItems:          s.drainItems,
	}
	for k, v := range s.flushes {
		st.Flushes[k] = v
	}
	for k, v := range s.itemsByVersion {
		st.ItemsByVersion[k] = v
	}
	for k, v := range s.occupancy {
		st.Occupancy[k] = v
	}
	return st
}

// effectiveMaxAge applies the backpressure coupling: at or above the
// high-water mark the deadline halves, trading batch occupancy for
// smoother arrival at the loaded uplink.
func (s *Scheduler) effectiveMaxAge() (tz.Cycles, bool) {
	if s.cfg.Pressure != nil && s.cfg.Pressure() >= s.cfg.HighWater {
		return s.cfg.MaxAge / 2, true
	}
	return s.cfg.MaxAge, false
}

// maybeFlush cuts every batch the admission rules currently allow.
// Called with s.mu held.
func (s *Scheduler) maybeFlush() {
	maxAge, pressured := s.effectiveMaxAge()
	for {
		cutAny := false
		for _, q := range s.queues {
			for q.items >= s.cfg.Batch {
				s.cut(q, ReasonFull, s.clock)
				cutAny = true
			}
			if len(q.entries) > 0 && s.clock-q.entries[0].stamp >= maxAge {
				s.cut(q, ReasonAge, s.clock)
				if pressured {
					s.pressureCuts++
				}
				cutAny = true
			}
		}
		if !cutAny {
			return
		}
	}
}

// queue returns the FIFO for version, inserting an empty one in version
// order if there is none yet. Called with s.mu held.
func (s *Scheduler) queue(version uint64) *queue {
	i, ok := slices.BinarySearchFunc(s.queues, version, func(q *queue, v uint64) int { return cmp.Compare(q.version, v) })
	if !ok {
		s.queues = slices.Insert(s.queues, i, &queue{version: version})
	}
	return s.queues[i]
}

// cut takes whole entries from the head of q up to the batch size and
// enqueues the flush job. Entries are never split: a request's items all
// ride one flush, so its occupancy and wait are well-defined. Called with
// s.mu held.
func (s *Scheduler) cut(q *queue, reason string, flushClock tz.Cycles) {
	job := &flushJob{version: q.version, reason: reason, flushClock: flushClock}
	for len(q.entries) > 0 {
		head := q.entries[0]
		n := len(head.req.Items)
		if job.items > 0 && job.items+n > s.cfg.Batch {
			break
		}
		job.entries = append(job.entries, head)
		job.items += n
		q.entries = q.entries[1:]
		q.items -= n
	}
	if len(job.entries) == 0 {
		return
	}
	s.inflight++
	s.jobs = append(s.jobs, job)
	// Broadcast, not Signal: Drain waits on the same cond for the
	// in-flight count, and a lone Signal could wake it instead of a
	// worker, stalling the job.
	s.cond.Broadcast()
}

// worker executes flush jobs until the scheduler closes.
func (s *Scheduler) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for len(s.jobs) == 0 && !s.closed {
			s.cond.Wait()
		}
		if len(s.jobs) == 0 && s.closed {
			s.mu.Unlock()
			return
		}
		job := s.jobs[0]
		s.jobs = s.jobs[1:]
		s.mu.Unlock()

		s.execute(job)

		s.mu.Lock()
		s.inflight--
		// The delivering count keeps the idle rule honest between the
		// slot release and the completions below: an idle probe in that
		// window would see inflight==0 while continuations that may
		// immediately resubmit are still pending, and cut a spurious
		// "idle" flush on a false premise.
		s.delivering++
		s.maybeFlush()
		s.cond.Broadcast()
		s.mu.Unlock()

		// Deliver completions only after the inflight slot is released:
		// an async continuation that re-submits (or checks NotifyIdle)
		// must not observe this flush as still in flight, or an executor
		// pool could park forever waiting for a completion that already
		// happened.
		for _, e := range job.entries {
			e.cb(e.resp, e.err)
		}

		s.mu.Lock()
		s.delivering--
		s.mu.Unlock()
	}
}

// execute runs the shared forward pass for one flush and fills each
// entry's flags, wait cycles, and occupancy.
func (s *Scheduler) execute(job *flushJob) {
	items := make([][]int, 0, job.items)
	for _, e := range job.entries {
		items = append(items, e.req.Items...)
	}
	flagged, passCycles, err := s.exec(job.version, items)

	s.mu.Lock()
	s.batches++
	s.flushes[job.reason]++
	s.totalItems += uint64(job.items)
	s.itemsByVersion[job.version] += uint64(job.items)
	s.occupancy[job.items]++
	if job.items > s.maxOccupancy {
		s.maxOccupancy = job.items
	}
	if job.reason == ReasonDrain {
		s.drainBatches++
		s.drainItems += uint64(job.items)
	}
	versions := make(map[uint64]bool)
	for _, e := range job.entries {
		versions[e.req.Version] = true
	}
	if len(versions) > 1 {
		s.mixed++
	}
	s.mu.Unlock()

	if err == nil && len(flagged) != job.items {
		err = fmt.Errorf("sched: executor returned %d flags for %d items", len(flagged), job.items)
	}
	// The pass cost is shared evenly per item, mirroring the per-item
	// charge of the unbatched path; queue wait is capped at max age
	// (the deadline would have fired by then).
	perItem := tz.Cycles(0)
	if err == nil && job.items > 0 {
		perItem = passCycles / tz.Cycles(job.items)
	}
	off := 0
	for _, e := range job.entries {
		n := len(e.req.Items)
		if err != nil {
			e.err = err
		} else {
			wait := job.flushClock - e.stamp
			if wait < 0 {
				wait = 0
			}
			if wait > s.cfg.MaxAge {
				wait = s.cfg.MaxAge
			}
			e.resp = Response{
				Flagged:   append([]bool(nil), flagged[off:off+n]...),
				Wait:      wait + perItem*tz.Cycles(n),
				Occupancy: job.items,
			}
		}
		off += n
	}
	// Completion delivery is the worker's job, after it releases the
	// inflight slot.
}
