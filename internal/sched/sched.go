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
// The scheduler owns no goroutines. Whoever cuts a flush runs it: a
// SubmitAsync that fills a batch, a NotifyIdle that makes the idle cut,
// or Drain. The cutter runs the shared forward pass and delivers the
// flush's callbacks on its own goroutine, outside the scheduler's lock,
// and only then releases the flush's in-flight slot and cuts whatever
// the clock now allows.
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
	// Pressured, when set, reports whether the downstream uplink is at
	// or above its high-water mark (the cloud admission policy's
	// occupancy signal). While it is, the scheduler halves its effective
	// max age: it flushes smaller batches sooner, smoothing arrivals into
	// a loaded uplink instead of bursting into queues the admission
	// policy would shed.
	Pressured func() bool
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

// flushJob is one cut batch, run by the goroutine that cut it.
type flushJob struct {
	version    uint64
	entries    []*entry
	items      int
	reason     string
	flushClock tz.Cycles
}

// Scheduler coalesces classification requests across devices. Submitters
// enqueue with SubmitAsync and get a callback once their flush executes.
// A queue flushes when full, when its head passes the deadline, when the
// caller reports that nothing new can arrive (NotifyIdle), or at Drain;
// the caller that cuts a flush runs it.
type Scheduler struct {
	cfg  Config
	exec Executor

	mu       sync.Mutex
	cond     *sync.Cond // signals Drain that a flush was delivered
	clock    tz.Cycles  // scheduler virtual clock: max over submit stamps
	queues   []*queue   // one per model version, ascending by version
	inflight int        // flushes cut and not yet delivered
	closed   bool

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
}

// New validates the config.
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
	s := &Scheduler{
		cfg:            cfg,
		exec:           exec,
		flushes:        make(map[string]uint64),
		itemsByVersion: make(map[uint64]uint64),
		occupancy:      make(map[int]uint64),
	}
	s.cond = sync.NewCond(&s.mu)
	return s, nil
}

// SubmitAsync enqueues a request: cb fires exactly once with the response
// once the flush carrying the request has executed. No callback runs
// before its flush is cut. A submission that fills a batch cuts the flush
// and runs it on the calling goroutine, so that flush's callbacks have
// all run when SubmitAsync returns. Callbacks run outside the
// scheduler's lock, before the flush's in-flight slot is released.
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
	jobs := s.maybeFlush(nil)
	s.mu.Unlock()
	s.run(jobs)
	return nil
}

// NotifyIdle is the scheduler's idle rule, driven by the caller: an
// executor pool with no runnable work asserts that nothing new can
// arrive until a pending flush completes, which models the oldest
// queue's deadline timer firing. If no flush is in flight and entries
// are queued, the scheduler advances its clock to the oldest queue's
// deadline and cuts it (reason "idle"), runs the flush on the calling
// goroutine, and returns true once its callbacks have run. Returns false
// when there was nothing to cut: closed, no queued entries, or a flush
// in flight. A flush stays in flight until its callbacks have run, and
// the continuations they fire may submit the work that fills a batch, so
// an idle cut before then would advance the clock on a false premise.
// The caller running that flush probes again once it is delivered.
func (s *Scheduler) NotifyIdle() bool {
	s.mu.Lock()
	if s.closed || s.inflight > 0 {
		s.mu.Unlock()
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
		s.mu.Unlock()
		return false
	}
	deadline := oldest.entries[0].stamp + maxAge
	if deadline > s.clock {
		s.clock = deadline
	}
	job := s.cut(oldest, ReasonIdle, s.clock)
	if pressured {
		s.pressureCuts++
	}
	s.mu.Unlock()
	s.run([]*flushJob{job})
	return true
}

// Drain runs every remaining queue's flushes on the calling goroutine,
// waits for the flushes other goroutines are running, and closes the
// scheduler. Call after all submitters are done; further submissions
// fail with ErrClosed.
func (s *Scheduler) Drain() {
	s.mu.Lock()
	var jobs []*flushJob
	for _, q := range s.queues {
		for len(q.entries) > 0 {
			jobs = append(jobs, s.cut(q, ReasonDrain, s.clock))
		}
	}
	s.mu.Unlock()
	s.run(jobs)
	s.mu.Lock()
	for s.inflight > 0 {
		s.cond.Wait()
	}
	s.closed = true
	s.mu.Unlock()
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
	if s.cfg.Pressured != nil && s.cfg.Pressured() {
		return s.cfg.MaxAge / 2, true
	}
	return s.cfg.MaxAge, false
}

// maybeFlush cuts every batch the admission rules currently allow and
// appends the flushes to jobs. Called with s.mu held.
func (s *Scheduler) maybeFlush(jobs []*flushJob) []*flushJob {
	maxAge, pressured := s.effectiveMaxAge()
	for {
		cutAny := false
		for _, q := range s.queues {
			for q.items >= s.cfg.Batch {
				jobs = append(jobs, s.cut(q, ReasonFull, s.clock))
				cutAny = true
			}
			if len(q.entries) > 0 && s.clock-q.entries[0].stamp >= maxAge {
				jobs = append(jobs, s.cut(q, ReasonAge, s.clock))
				if pressured {
					s.pressureCuts++
				}
				cutAny = true
			}
		}
		if !cutAny {
			return jobs
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

// cut takes whole entries from the head of q (never empty) up to the
// batch size, tallies the flush and takes its in-flight slot. Entries
// are never split: a request's items all ride one flush, so its
// occupancy and wait are well-defined. Called with s.mu held.
func (s *Scheduler) cut(q *queue, reason string, flushClock tz.Cycles) *flushJob {
	job := &flushJob{version: q.version, reason: reason, flushClock: flushClock}
	mixed := false
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
		mixed = mixed || head.req.Version != job.version
	}
	if mixed {
		s.mixed++
	}
	s.inflight++
	s.batches++
	s.flushes[reason]++
	s.totalItems += uint64(job.items)
	s.itemsByVersion[job.version] += uint64(job.items)
	s.occupancy[job.items]++
	s.maxOccupancy = max(s.maxOccupancy, job.items)
	if reason == ReasonDrain {
		s.drainBatches++
		s.drainItems += uint64(job.items)
	}
	return job
}

// run executes cut flushes on the calling goroutine, outside s.mu: each
// flush's shared forward pass, then its callbacks, then the release of
// its in-flight slot, which cuts whatever the clock now allows (run here
// too). A callback may re-submit; it sees its own flush still in flight.
func (s *Scheduler) run(jobs []*flushJob) {
	for len(jobs) > 0 {
		job := jobs[0]
		jobs = jobs[1:]
		s.execute(job)
		for _, e := range job.entries {
			e.cb(e.resp, e.err)
		}
		s.mu.Lock()
		s.inflight--
		jobs = s.maybeFlush(jobs)
		s.cond.Broadcast()
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
}
