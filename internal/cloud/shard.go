// Fleet-scale ingest. A single Service terminates one device's channel;
// a provider serving millions of devices runs many such terminators
// behind a sharded frontend. Shard hosts the per-device endpoints hashed
// to it and serves their frames on the goroutines that ingest them, a
// bounded number at a time: an admitted frame waits for a service slot
// (the wait pushes back on the radio), and a waiting priority frame —
// a flagged/security event — takes the next free slot before any bulk
// frame.
// Router places devices on shards with a weighted consistent-hash ring
// (virtual nodes per shard × shard weight) so membership changes move
// only neighbouring devices — and the membership *can* change at
// runtime: AddShard grows the ring, SetWeight retunes it, and Drain
// retires a shard without dropping an in-flight frame (stop accepting,
// flush the queue, hand the ownership ranges and their endpoints to the
// ring successors, retire the audit counters into the router's history).
//
// Two pluggable checks run per frame before it is served, in
// order: the AdmissionGate (the attestation verifier in attested fleets
// — an identity decision: may this device ingest at all?) and the
// AdmissionPolicy (a capacity decision: does this frame fit right now,
// or is it shed?). Rejections, sheds, priority admissions and frames
// redirected by a rebalance are all counted per shard (ShardStats).
package cloud

import (
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/attest"
	"repro/internal/obs"
	"repro/internal/supplicant"
)

// Provider is the ingest-side contract every backend flavour satisfies
// (sealed Service, baseline PlainService): deliver one frame, account for
// what was learned.
type Provider interface {
	Deliver(frame []byte) ([]byte, error)
	Audit() Audit
	Reset()
}

var (
	_ Provider = (*Service)(nil)
	_ Provider = (*PlainService)(nil)
)

// Merge folds b's counters and transcripts into a copy of a, so per-shard
// and per-fleet views aggregate from per-device audits.
func (a Audit) Merge(b Audit) Audit {
	a.Events += b.Events
	a.TokensSeen += b.TokensSeen
	a.SensitiveTokens += b.SensitiveTokens
	a.AudioBytes += b.AudioBytes
	a.Transcripts = append(a.Transcripts, b.Transcripts...)
	return a
}

// AdmissionGate decides, per frame, whether a device's traffic may
// reach its endpoint. attest.Verifier implements it; a nil gate admits
// everything (the pre-attestation deployment).
type AdmissionGate interface {
	// Admit returns nil to accept the device's frame, or the policy
	// error that rejected it (e.g. attest.ErrUnattested).
	Admit(deviceID string) error
}

// TenantAdmissionGate is an AdmissionGate that routes the admission
// decision by the tenant label the frontend reads from the connection
// (FrameMeta.Tenant) — attest.Federation implements it, giving every
// tenant its own digest policy, minimum version and revocation list. A
// gate that implements this interface is consulted through AdmitTenant
// on every frame; plain gates keep the identity-only Admit path. Like
// the admission policy, the gate sees only cleartext connection
// metadata, never sealed frame content.
type TenantAdmissionGate interface {
	AdmissionGate
	// AdmitTenant judges the device's frame by its tenant's policy.
	AdmitTenant(deviceID, tenant string) error
}

// Errors returned by the ingest tier.
var (
	// ErrUnknownDevice is returned for frames from unregistered devices.
	ErrUnknownDevice = errors.New("cloud: unknown device")
	// ErrRejected wraps admission-gate rejections.
	ErrRejected = errors.New("cloud: admission rejected")
	// ErrShed is returned for frames the admission policy dropped under
	// queue pressure. Senders treat it as a retriable drop, not a fault.
	// It wraps supplicant.ErrShed so the RPC daemon ferrying a sealed
	// frame can classify the refusal separately from transport errors.
	ErrShed = fmt.Errorf("cloud: frame shed by admission policy (%w)", supplicant.ErrShed)
	// ErrShardClosed is returned for ingest after Close (or Drain).
	ErrShardClosed = errors.New("cloud: shard closed")
	// ErrShardCrashed is returned for ingest attempts while a shard is
	// crashed and awaiting its supervisor restart. It wraps
	// supplicant.ErrTransient: the ring still names this shard as the
	// owner — it is briefly down, not gone — so senders retry with
	// backoff instead of re-resolving.
	ErrShardCrashed = fmt.Errorf("cloud: shard crashed (%w)", supplicant.ErrTransient)
	// ErrExpired is returned for frames whose delivery was explicitly
	// given up on: the device-side retry budget ran out, or the router's
	// re-resolution stopped making progress. It wraps
	// supplicant.ErrExpired so the RPC daemon and the device TA classify
	// the frame as an explicit Expired outcome — accounted, never lost.
	ErrExpired = fmt.Errorf("cloud: frame delivery expired (%w)", supplicant.ErrExpired)
	// ErrDuplicate is returned for a frame the shard already served under
	// the same (device, seq): deduplicated so audits never double-count.
	ErrDuplicate = errors.New("cloud: duplicate frame")
	// ErrNoShards is returned when a router is built without shards.
	ErrNoShards = errors.New("cloud: router needs at least one shard")
	// ErrLastShard is returned when draining would empty the ring.
	ErrLastShard = errors.New("cloud: cannot drain the last shard")
)

// ShardStats is a snapshot of one shard's ingest counters.
type ShardStats struct {
	Name        string
	Devices     int
	Weight      int    // ring weight (virtual nodes = replicas × weight)
	Frames      uint64 // frames fully processed
	Errors      uint64 // frames whose endpoint rejected them
	Rejected    uint64 // frames the admission gate turned away
	Shed        uint64 // bulk frames the admission policy dropped
	Prioritized uint64 // frames admitted through the priority lane
	Rebalanced  uint64 // frames redirected here after a ring change
	QueuePeak   int    // high-water mark of admitted-but-not-yet-served frames
	Drained     bool   // shard was drained out of the ring

	// Crash/recovery counters (zero outside fault runs).
	Restarts          uint64 // supervised restarts after a crash
	Recovered         uint64 // in-queue frames replayed to completion after a restart
	DuplicatesDropped uint64 // frames deduplicated by (device, seq)

	// Per-reason split of Rejected, classified from the gate error's
	// %w chain (RejectVerdict). The four always sum to Rejected.
	RejectedRevoked uint64 // revocation-list hits (attest.ErrRevoked)
	RejectedStale   uint64 // model/epoch floor (attest.ErrStaleModel, ErrKeyEpoch)
	RejectedForged  uint64 // forged or replayed evidence (attest.ErrBadReport, ErrReplay)
	RejectedPolicy  uint64 // everything else (unattested, measurement, unknown)
}

// RejectVerdict classifies an admission-gate rejection by the %w-wrapped
// cause chain the gate returned, mapping it onto the telemetry verdict
// that names the reason. Anything the chain does not identify is a
// policy rejection.
func RejectVerdict(gateErr error) obs.Verdict {
	switch {
	case errors.Is(gateErr, attest.ErrRevoked):
		return obs.VerdictRejectedRevoked
	case errors.Is(gateErr, attest.ErrStaleModel), errors.Is(gateErr, attest.ErrKeyEpoch):
		return obs.VerdictRejectedStale
	case errors.Is(gateErr, attest.ErrReplay), errors.Is(gateErr, attest.ErrBadReport):
		return obs.VerdictRejectedForged
	default:
		return obs.VerdictRejectedPolicy
	}
}

// Shard is one ingest partition: a set of device endpoints served a
// bounded number of frames at a time. A Shard owns no goroutines: each
// frame is served on the goroutine that ingests it, once it holds one of
// the shard's service slots. Admitted frames wait for a slot (the wait is
// the backpressure on the radio); a waiting priority frame takes the next
// free slot before any bulk frame.
type Shard struct {
	name  string
	slots int // frames served at once
	depth int // bulk-queue depth the admission policy judges occupancy against

	mu          sync.Mutex
	cond        sync.Cond // on mu: a slot freed, a crash healed or a frame finished
	gate        AdmissionGate
	tenantGate  TenantAdmissionGate // gate, when it routes by tenant (cached assertion)
	policy      AdmissionPolicy
	flight      *obs.FlightRecorder // nil outside traced runs (nil-safe Note)
	sup         *Supervisor         // notified on Crash (nil unsupervised)
	endpoints   map[string]Provider
	closed      bool
	crashed     bool // slots withheld, awaiting Restart
	frames      uint64
	errs        uint64
	rejected    uint64
	rejRevoked  uint64
	rejStale    uint64
	rejForged   uint64
	rejPolicy   uint64
	shed        uint64
	prioritized uint64
	rebalanced  uint64
	restarts    uint64
	recovered   uint64
	dupDropped  uint64
	slowServe   time.Duration // fault-injected wall latency per served frame
	replaying   int           // queued-at-crash frames the restart still owes
	busy        int           // frames holding a slot
	pending     int           // admitted frames waiting for a slot
	bulkPending int           // bulk share of pending: the policy's occupancy signal
	queuePeak   int
	// maxServed records the highest frame seq served per device, so a
	// duplicate of an already-served frame is dropped at admission (a
	// retried-but-never-served frame is not a duplicate).
	maxServed map[string]uint64
}

// NewShard builds a shard serving `workers` frames at once with the given
// bulk-queue depth (both floored at 1).
func NewShard(name string, workers, queueDepth int) *Shard {
	s := &Shard{
		name:      name,
		slots:     max(workers, 1),
		depth:     max(queueDepth, 1),
		endpoints: make(map[string]Provider),
		maxServed: make(map[string]uint64),
	}
	s.cond.L = &s.mu
	return s
}

// Name returns the shard's ring label.
func (s *Shard) Name() string { return s.name }

// Utilization reports the bulk admission-queue occupancy in [0,1] —
// the same pending/capacity signal the admission policy sheds on
// (AdmissionPolicy.ShouldShed). Upstream batch schedulers consult it as
// a backpressure gauge: above the policy's high-water mark they flush
// smaller batches sooner instead of bursting into a queue that is about
// to shed.
func (s *Shard) Utilization() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.depth <= 0 {
		return 0
	}
	u := float64(s.bulkPending) / float64(s.depth)
	if u > 1 {
		u = 1
	}
	return u
}

// Register binds a device ID to its channel-terminating endpoint.
func (s *Shard) Register(deviceID string, p Provider) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.endpoints[deviceID] = p
}

// Deregister removes a device's endpoint; later frames from the ID fail
// with ErrUnknownDevice. Removing an unknown ID is not an error.
func (s *Shard) Deregister(deviceID string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.endpoints, deviceID)
}

// endpointsSnapshot copies the registration map (for ring migrations).
func (s *Shard) endpointsSnapshot() map[string]Provider {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]Provider, len(s.endpoints))
	for id, p := range s.endpoints {
		out[id] = p
	}
	return out
}

// SetGate installs (or clears, with nil) the admission gate. A gate
// that routes by tenant (TenantAdmissionGate) is detected here once, so
// the per-frame path pays no type assertion.
func (s *Shard) SetGate(g AdmissionGate) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gate = g
	s.tenantGate, _ = g.(TenantAdmissionGate)
}

// SetPolicy installs (or clears, with nil) the admission policy.
func (s *Shard) SetPolicy(p AdmissionPolicy) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.policy = p
}

// SetFlightRecorder installs (or clears, with nil) the shard's telemetry
// flight recorder. Every admission verdict — delivered, shed, rejected —
// is noted with the queue depth at decision time; a nil recorder keeps
// the path free of telemetry work.
func (s *Shard) SetFlightRecorder(f *obs.FlightRecorder) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.flight = f
}

// noteRebalanced counts a frame that reached this shard only after a
// ring change redirected it away from its previously resolved owner.
func (s *Shard) noteRebalanced() {
	s.mu.Lock()
	s.rebalanced++
	s.mu.Unlock()
}

// setSupervisor binds the shard to a supervisor notified on Crash.
func (s *Shard) setSupervisor(sup *Supervisor) {
	s.mu.Lock()
	s.sup = sup
	s.mu.Unlock()
}

// Crash takes the shard's service slots away mid-run, simulating a
// serving-tier failure. Frames already in service finish; frames already
// admitted keep waiting (the queue survives the crash, the service does
// not) and are served after the restart, counted in
// ShardStats.Recovered. New ingest attempts while crashed fail with
// ErrShardCrashed, a transient error senders retry with backoff. Returns
// the number of queued frames owed to the restart; 0 if the shard was
// already crashed or closed. Close of a crashed shard waits for its
// Restart — the Supervisor does this automatically.
func (s *Shard) Crash() int {
	s.mu.Lock()
	if s.closed || s.crashed {
		s.mu.Unlock()
		return 0
	}
	s.crashed = true
	queued := s.pending
	s.replaying += queued
	sup := s.sup
	for s.busy > 0 {
		s.cond.Wait()
	}
	s.mu.Unlock()
	if sup != nil {
		sup.notifyCrash(s, queued)
	}
	return queued
}

// Restart brings a crashed shard back: its slots serve the surviving
// queue — replaying the frames the crash stranded — and new ingest is
// admitted again. No-op unless crashed. A closing shard is restarted too,
// since its Close waits for the queue the restart serves.
func (s *Shard) Restart() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.crashed {
		return
	}
	s.crashed = false
	s.restarts++
	s.cond.Broadcast()
}

// SetServeDelay installs (or clears, with 0) a fault-injected wall-clock
// delay per served frame, simulating a straggler shard.
func (s *Shard) SetServeDelay(d time.Duration) {
	s.mu.Lock()
	s.slowServe = d
	s.mu.Unlock()
}

// Ingest processes one bulk frame from the device; see IngestMeta.
func (s *Shard) Ingest(deviceID string, frame []byte) ([]byte, error) {
	return s.IngestMeta(deviceID, frame, FrameMeta{})
}

// IngestMeta processes one frame on the calling goroutine. The admission
// gate runs first (identity), then — for bulk frames only — the
// admission policy (capacity): a shed frame returns ErrShed without ever
// queueing. An admitted frame waits for a free slot (backpressure), then
// is delivered and its directive returned; a waiting priority frame takes
// the next free slot before any bulk frame.
func (s *Shard) IngestMeta(deviceID string, frame []byte, meta FrameMeta) ([]byte, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrShardClosed, s.name)
	}
	if s.crashed {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrShardCrashed, s.name)
	}
	endpoint, ok := s.endpoints[deviceID]
	if !ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %q on shard %s", ErrUnknownDevice, deviceID, s.name)
	}
	if meta.Seq != 0 && meta.Seq <= s.maxServed[deviceID] {
		// A duplicate of a frame this shard already served under the same
		// (device, seq): drop it before the gate and policy see it, so
		// neither the audit nor the capacity counters double-count.
		s.dupDropped++
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %q seq %d on shard %s", ErrDuplicate, deviceID, meta.Seq, s.name)
	}
	if s.gate != nil {
		var gateErr error
		if s.tenantGate != nil {
			gateErr = s.tenantGate.AdmitTenant(deviceID, meta.Tenant)
		} else {
			gateErr = s.gate.Admit(deviceID)
		}
		if gateErr != nil {
			s.rejected++
			verdict := RejectVerdict(gateErr)
			switch verdict {
			case obs.VerdictRejectedRevoked:
				s.rejRevoked++
			case obs.VerdictRejectedStale:
				s.rejStale++
			case obs.VerdictRejectedForged:
				s.rejForged++
			default:
				s.rejPolicy++
			}
			flight, depth := s.flight, s.pending
			s.mu.Unlock()
			flight.Note(deviceID, meta.Tenant, verdict, depth)
			return nil, fmt.Errorf("%w: %q on shard %s: %w", ErrRejected, deviceID, s.name, gateErr)
		}
	}
	// The priority lane is enforced here, not in the policy: ShouldShed
	// is never consulted for a priority frame, so no policy — however
	// buggy — can shed one. The occupancy it sees is the bulk frames'
	// alone, judged against the bulk-queue depth: a burst of priority
	// traffic must not make the policy shed bulk frames out of an empty
	// bulk queue.
	if s.policy != nil && !meta.Priority && s.policy.ShouldShed(meta, s.bulkPending, s.depth) {
		s.shed++
		flight, depth := s.flight, s.bulkPending
		s.mu.Unlock()
		flight.Note(deviceID, meta.Tenant, obs.VerdictShed, depth)
		return nil, fmt.Errorf("%w: %q on shard %s", ErrShed, deviceID, s.name)
	}
	if meta.Priority {
		s.prioritized++
	} else {
		s.bulkPending++
	}
	if s.policy != nil {
		s.policy.Admitted(meta)
	}
	// Admitted while holding the lock, so Close cannot finish under an
	// in-flight frame; pending counts admitted frames waiting for a slot —
	// its high-water mark is the real backpressure signal. The frame takes
	// a free slot in the same lock hold (the note is taken under it too),
	// so a frame that need not wait never meets another in the queue and
	// the peak stays 1. A bulk frame also yields to every waiting
	// priority frame (pending > bulkPending).
	s.pending++
	s.queuePeak = max(s.queuePeak, s.pending)
	s.flight.Note(deviceID, meta.Tenant, obs.VerdictDelivered, s.pending)
	for s.crashed || s.busy >= s.slots || (!meta.Priority && s.pending > s.bulkPending) {
		s.cond.Wait()
	}
	s.pending--
	if !meta.Priority {
		s.bulkPending--
	}
	s.busy++
	if s.policy != nil {
		s.policy.Served(meta)
	}
	if s.replaying > 0 {
		// A frame that sat in the queue when the shard crashed: the
		// restarted shard is replaying it now.
		s.replaying--
		s.recovered++
	}
	slow := s.slowServe
	s.mu.Unlock()
	if slow > 0 {
		// Fault-injected straggler: the shard serves every frame late. Wall
		// latency only — the device's virtual clock and the audit counters
		// are untouched, so a slow shard degrades throughput, not accounting.
		time.Sleep(slow)
	}
	directive, err := endpoint.Deliver(frame)
	s.mu.Lock()
	if err != nil {
		s.errs++
	} else {
		s.frames++
		if meta.Seq != 0 && meta.Seq > s.maxServed[deviceID] {
			s.maxServed[deviceID] = meta.Seq
		}
	}
	s.busy--
	s.cond.Broadcast()
	s.mu.Unlock()
	// Yield before the caller goes back to its own work. A frame served
	// on its caller no longer passes through two goroutine switches, and
	// those were the scheduling points the GC's mark worker ran at: at
	// GOMAXPROCS 2 that worker is a fractional one a P runs only when it
	// schedules, so executors that never yield stretch a collection's
	// mark phase and the heap grows behind it (docs/PERFORMANCE.md,
	// "Ingest on the executors").
	runtime.Gosched()
	return directive, err
}

// Audit merges the audits of every endpoint hosted on the shard.
func (s *Shard) Audit() Audit {
	s.mu.Lock()
	endpoints := make([]Provider, 0, len(s.endpoints))
	for _, p := range s.endpoints {
		endpoints = append(endpoints, p)
	}
	s.mu.Unlock()
	var a Audit
	for _, p := range endpoints {
		a = a.Merge(p.Audit())
	}
	return a
}

// Stats snapshots the shard's counters.
func (s *Shard) Stats() ShardStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return ShardStats{
		Name:              s.name,
		Devices:           len(s.endpoints),
		Frames:            s.frames,
		Errors:            s.errs,
		Rejected:          s.rejected,
		RejectedRevoked:   s.rejRevoked,
		RejectedStale:     s.rejStale,
		RejectedForged:    s.rejForged,
		RejectedPolicy:    s.rejPolicy,
		Shed:              s.shed,
		Prioritized:       s.prioritized,
		Rebalanced:        s.rebalanced,
		QueuePeak:         s.queuePeak,
		Restarts:          s.restarts,
		Recovered:         s.recovered,
		DuplicatesDropped: s.dupDropped,
	}
}

// Close stops admission and waits until every admitted frame has been
// served. Ingest after Close fails with ErrShardClosed.
func (s *Shard) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	for s.pending+s.busy > 0 {
		s.cond.Wait()
	}
}

// Router maps device IDs onto shards with a weighted consistent-hash
// ring. Membership is elastic: shards can be added, reweighted and
// drained at runtime; the router migrates endpoint registrations to the
// new owners atomically with each ring change and redirects frames that
// raced with the change, so no frame is lost to a rebalance.
type Router struct {
	mu       sync.RWMutex
	replicas int
	gate     AdmissionGate
	policy   AdmissionPolicy
	flight   func(string) *obs.FlightRecorder // per-shard recorder source (nil untraced)
	sup      *Supervisor                      // crash supervision (nil unsupervised)
	shards   []*Shard
	weights  map[string]int
	ring     []ringPoint // sorted by hash
	retired  []ShardStats
}

type ringPoint struct {
	hash  uint64
	shard *Shard
}

// NewRouter builds the ring with `replicas` virtual nodes per
// weight-unit per shard (floored at 1; 64 is a sensible default for even
// spread). Every shard starts at weight 1; use AddShard or SetWeight for
// heavier ones.
func NewRouter(shards []*Shard, replicas int) (*Router, error) {
	if len(shards) == 0 {
		return nil, ErrNoShards
	}
	if replicas < 1 {
		replicas = 1
	}
	// The ring owns its shard list: Drain removes in place, which must
	// not rewrite the caller's slice.
	r := &Router{replicas: replicas, shards: slices.Clone(shards), weights: make(map[string]int, len(shards))}
	for _, s := range shards {
		r.weights[s.Name()] = 1
	}
	r.rebuildRingLocked()
	return r, nil
}

// rebuildRingLocked recomputes the ring from the active shard list and
// weights. Caller holds r.mu for writing (or is the constructor).
func (r *Router) rebuildRingLocked() {
	r.ring = r.ring[:0]
	for _, s := range r.shards {
		w := r.weights[s.Name()]
		if w < 1 {
			w = 1
		}
		for v := 0; v < r.replicas*w; v++ {
			r.ring = append(r.ring, ringPoint{
				hash:  ringHash(fmt.Sprintf("%s#%d", s.Name(), v)),
				shard: s,
			})
		}
	}
	sort.Slice(r.ring, func(i, j int) bool { return r.ring[i].hash < r.ring[j].hash })
}

// migrateLocked moves every endpoint whose ring owner changed to its new
// owner and returns how many moved. Registration moves are atomic with
// the ring swap (caller holds r.mu for writing), so a resolver never
// observes a half-migrated tier.
func (r *Router) migrateLocked() int {
	moved := 0
	for _, s := range r.shards {
		for id, ep := range s.endpointsSnapshot() {
			owner := r.shardForLocked(id)
			if owner != s {
				owner.Register(id, ep)
				s.Deregister(id)
				moved++
			}
		}
	}
	return moved
}

func ringHash(key string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(key))
	// FNV avalanches poorly on short keys that differ only in a suffix
	// (exactly what "shard#replica" and "device-N" are); a splitmix64
	// finalizer spreads ring points and device keys evenly.
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// ShardFor returns the shard owning the device ID (first ring point at or
// after the key's hash, wrapping).
func (r *Router) ShardFor(deviceID string) *Shard {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.shardForLocked(deviceID)
}

func (r *Router) shardForLocked(deviceID string) *Shard {
	if len(r.ring) == 0 {
		return nil
	}
	h := ringHash(deviceID)
	i := sort.Search(len(r.ring), func(i int) bool { return r.ring[i].hash >= h })
	if i == len(r.ring) {
		i = 0
	}
	return r.ring[i].shard
}

// AddShard joins a fresh shard to the ring with the given weight
// (floored at 1): the router's gate and policy are installed on it, the
// ring gains replicas×weight points, and endpoints in the ownership
// ranges it takes over migrate to it before any frame can resolve there.
func (r *Router) AddShard(s *Shard, weight int) {
	if weight < 1 {
		weight = 1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s.SetGate(r.gate)
	s.SetPolicy(r.policy)
	if r.flight != nil {
		s.SetFlightRecorder(r.flight(s.Name()))
	}
	if r.sup != nil {
		s.setSupervisor(r.sup)
	}
	r.shards = append(r.shards, s)
	r.weights[s.Name()] = weight
	r.rebuildRingLocked()
	r.migrateLocked()
}

// SetWeight retunes a shard's share of the ring (floored at 1) and
// migrates endpoints to the rebalanced owners. Unknown names are a no-op.
func (r *Router) SetWeight(name string, weight int) {
	if weight < 1 {
		weight = 1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.weights[name]; !ok {
		return
	}
	r.weights[name] = weight
	r.rebuildRingLocked()
	r.migrateLocked()
}

// Drain retires a shard from the ring without dropping a frame: its ring
// points are removed and its endpoints handed to the ring successors
// (atomically, so new frames resolve to the successors), then the shard
// stops accepting and flushes its queue — frames already admitted are
// served to completion, frames that raced the ring swap are redirected
// by Ingest — and finally its counters are retired into the router's
// stats history (Drained=true).
func (r *Router) Drain(name string) error {
	r.mu.Lock()
	var victim *Shard
	for i, s := range r.shards {
		if s.Name() == name {
			if len(r.shards) == 1 {
				r.mu.Unlock()
				return ErrLastShard
			}
			victim = s
			r.shards = append(r.shards[:i], r.shards[i+1:]...)
			break
		}
	}
	if victim == nil {
		r.mu.Unlock()
		return fmt.Errorf("cloud: drain: unknown shard %q", name)
	}
	delete(r.weights, name)
	r.rebuildRingLocked()
	// Hand the victim's endpoints to their ring successors. The victim
	// is out of the ring, so every endpoint resolves elsewhere.
	for id, ep := range victim.endpointsSnapshot() {
		r.shardForLocked(id).Register(id, ep)
		victim.Deregister(id)
	}
	r.mu.Unlock()

	// Flush outside the router lock: admitted frames finish against the
	// victim's workers while new frames already resolve to successors.
	victim.Close()

	r.mu.Lock()
	st := victim.Stats()
	st.Drained = true
	r.retired = append(r.retired, st)
	r.mu.Unlock()
	return nil
}

// Register places the device's endpoint on its ring shard and returns
// that shard. The read lock spans resolve+register so a concurrent
// rebalance cannot strand the registration on a stale owner.
func (r *Router) Register(deviceID string, p Provider) *Shard {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := r.shardForLocked(deviceID)
	if s != nil {
		s.Register(deviceID, p)
	}
	return s
}

// Deregister removes the device's endpoint from its ring shard.
func (r *Router) Deregister(deviceID string) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if s := r.shardForLocked(deviceID); s != nil {
		s.Deregister(deviceID)
	}
}

// SetGate installs the admission gate on every shard (including shards
// added later).
func (r *Router) SetGate(g AdmissionGate) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gate = g
	for _, s := range r.shards {
		s.SetGate(g)
	}
}

// SetPolicy installs the admission policy on every shard (including
// shards added later). Stateful policies installed this way track
// occupancy tier-wide.
func (r *Router) SetPolicy(p AdmissionPolicy) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.policy = p
	for _, s := range r.shards {
		s.SetPolicy(p)
	}
}

// SetFlight installs a per-shard flight-recorder source (obs.Tracer's
// Flight method fits) on every shard, including shards added later. A
// nil source clears the recorders.
func (r *Router) SetFlight(fn func(string) *obs.FlightRecorder) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.flight = fn
	for _, s := range r.shards {
		if fn == nil {
			s.SetFlightRecorder(nil)
		} else {
			s.SetFlightRecorder(fn(s.Name()))
		}
	}
}

// Policy returns the installed admission policy (nil if none).
func (r *Router) Policy() AdmissionPolicy {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.policy
}

// Ingest routes one bulk frame to the owning shard; see IngestMeta.
func (r *Router) Ingest(deviceID string, frame []byte) ([]byte, error) {
	return r.IngestMeta(deviceID, frame, FrameMeta{})
}

// IngestMeta routes one frame to the owning shard. If a rebalance races
// the resolution — the resolved shard drained, or the device's endpoint
// migrated before the frame arrived — the frame is re-resolved against
// the current ring and redirected (counted in ShardStats.Rebalanced)
// rather than dropped. The retry gives up when a re-resolution stops
// making progress (same owner twice); the give-up is classified as an
// explicit ErrExpired wrapping the underlying cause, so the frame keeps
// its accounting context (the device counts it expired — never lost)
// while errors.Is still surfaces the genuine unknown-device or
// closed-tier error underneath. A crashed shard is not re-resolved: the
// ring is unchanged, the owner is briefly down, and ErrShardCrashed is
// returned to the sender's retry layer as a transient failure.
func (r *Router) IngestMeta(deviceID string, frame []byte, meta FrameMeta) ([]byte, error) {
	var last *Shard
	var lastErr error
	for {
		s := r.ShardFor(deviceID)
		if s == nil {
			return nil, ErrNoShards
		}
		if s == last {
			return nil, fmt.Errorf("%w: ingest of %q gave up after re-resolution stalled: %w", ErrExpired, deviceID, lastErr)
		}
		directive, err := s.IngestMeta(deviceID, frame, meta)
		switch {
		case err == nil:
			if last != nil {
				s.noteRebalanced()
			}
			return directive, nil
		case errors.Is(err, ErrShardClosed) || errors.Is(err, ErrUnknownDevice):
			// Membership changed between resolve and ingest; re-resolve.
			last, lastErr = s, err
		default:
			return nil, err
		}
	}
}

// Audit aggregates every active shard's audit. Drained shards hand their
// endpoints to successors before retiring, so their traffic is counted
// exactly once.
func (r *Router) Audit() Audit {
	r.mu.RLock()
	shards := append([]*Shard(nil), r.shards...)
	r.mu.RUnlock()
	var a Audit
	for _, s := range shards {
		a = a.Merge(s.Audit())
	}
	return a
}

// Utilization returns the worst bulk-lane utilization (Shard.Utilization)
// across the active shards: shards added since the router was built
// count, drained ones do not.
func (r *Router) Utilization() float64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	worst := 0.0
	for _, s := range r.shards {
		worst = max(worst, s.Utilization())
	}
	return worst
}

// Stats snapshots every active shard (with its ring weight) followed by
// the retired stats of every drained shard.
func (r *Router) Stats() []ShardStats {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]ShardStats, 0, len(r.shards)+len(r.retired))
	for _, s := range r.shards {
		st := s.Stats()
		st.Weight = r.weights[s.Name()]
		out = append(out, st)
	}
	out = append(out, r.retired...)
	return out
}

// Close drains all active shards.
func (r *Router) Close() {
	r.mu.RLock()
	shards := append([]*Shard(nil), r.shards...)
	r.mu.RUnlock()
	for _, s := range shards {
		s.Close()
	}
}

// Ingestor is the frame-ingest contract an Uplink delivers through.
// Router implements it; fault injectors wrap it so chaos plans can drop,
// delay or duplicate frames below the sequence-number assignment (an
// injected duplicate carries the same seq and is deduplicated at the
// shard).
type Ingestor interface {
	IngestMeta(deviceID string, frame []byte, meta FrameMeta) ([]byte, error)
}

var _ Ingestor = (*Router)(nil)

// Uplink adapts one device's ID to the router's ingest so it can stand in
// as the device's network sink (supplicant.NetSink without the import).
// Meta is the cleartext connection metadata the frontend reads per frame
// (tenant label, traffic class). Every Deliver stamps the frame with the
// device's next sequence number — retried frames are new deliveries and
// get fresh seqs; only an injected duplicate of the same delivery shares
// one, which is what shard-side dedup keys on.
type Uplink struct {
	DeviceID string
	Router   *Router
	Meta     FrameMeta
	// Ingest overrides Router as the delivery path when set (fault
	// injectors wrap the router); nil delivers straight to Router.
	Ingest Ingestor

	seq atomic.Uint64
}

// Deliver implements the device-side sink by routing through the ring.
func (u *Uplink) Deliver(frame []byte) ([]byte, error) {
	meta := u.Meta
	meta.Seq = u.seq.Add(1)
	if u.Ingest != nil {
		return u.Ingest.IngestMeta(u.DeviceID, frame, meta)
	}
	return u.Router.IngestMeta(u.DeviceID, frame, meta)
}
