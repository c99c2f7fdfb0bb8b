package core

// Device-side uplink retry. The fleet's uplink was fire-once: any
// delivery failure surfaced straight to the TA. Under a chaos plan the
// uplink drops attempts and shards crash mid-restart, so the device
// needs the classic edge strategy — bounded exponential backoff with
// deterministic jitter, spent in *virtual* cycles on the device's own
// clock, under a per-frame deadline budget. A frame that exhausts the
// budget becomes an explicit Expired outcome (cloud.ErrExpired →
// supplicant.ErrExpired), never a silent loss: the accounting identity
// is expected == ingested + shed + expired.
//
// Determinism: the backoff schedule is a pure function of the retry
// seed and the sequence of transient failures the sink reports. The
// same seed and the same failure pattern replay the same schedule
// bit-for-bit; wall-clock scheduling can change *when* a retry runs,
// never how long it charges the virtual clock.

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"time"

	"repro/internal/cloud"
	"repro/internal/supplicant"
	"repro/internal/tz"
)

// RetryAttempts is the default bound on delivery attempts per frame. A
// chaos plan's expiry blackhole (internal/fault) swallows this many
// deliveries so that its frame deterministically exhausts them.
const RetryAttempts = 8

// RetryConfig bounds the uplink retry loop.
type RetryConfig struct {
	// Attempts is the maximum delivery attempts per frame (default
	// RetryAttempts; the first attempt counts, so Attempts=1 disables
	// retry).
	Attempts int
	// BaseBackoff is the first retry's backoff in virtual cycles
	// (default 10_000); each further retry doubles it up to MaxBackoff
	// (default 320_000).
	BaseBackoff tz.Cycles
	MaxBackoff  tz.Cycles
	// Budget is the per-frame deadline: the total backoff a frame may
	// charge the device clock before it expires (default 4_000_000).
	Budget tz.Cycles
	// Seed feeds the deterministic jitter stream (uniform in
	// [0, backoff/2], drawn per retry).
	Seed uint64
}

func (c *RetryConfig) fillDefaults() {
	if c.Attempts <= 0 {
		c.Attempts = RetryAttempts
	}
	if c.BaseBackoff == 0 {
		c.BaseBackoff = 10_000
	}
	if c.MaxBackoff == 0 {
		c.MaxBackoff = 320_000
	}
	if c.Budget == 0 {
		c.Budget = 4_000_000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// RetryStats counts what the retry layer did.
type RetryStats struct {
	// Deliveries is frames that ultimately succeeded; Recovered the
	// subset that needed at least one retry.
	Deliveries uint64
	Recovered  uint64
	// Retries is individual retry attempts across all frames.
	Retries uint64
	// Expired is frames given up on (budget or attempts exhausted).
	Expired uint64
	// BackoffCycles is the total virtual time charged for backoff waits.
	BackoffCycles tz.Cycles
}

// RetrySink wraps a device's uplink sink with the retry loop. It is the
// outermost delivery layer: the supplicant (or the baseline speaker)
// hands it a frame once, and everything it takes to land that frame —
// backoff, re-delivery, expiry classification — happens inside.
type RetrySink struct {
	sink  supplicant.NetSink
	clock *tz.Clock
	cfg   RetryConfig
	rng   *rand.Rand

	mu    sync.Mutex
	stats RetryStats
}

// NewRetrySink builds the retry layer over sink, charging backoff to the
// device clock. Zero-valued config fields take the documented defaults.
func NewRetrySink(sink supplicant.NetSink, clock *tz.Clock, cfg RetryConfig) *RetrySink {
	cfg.fillDefaults()
	return &RetrySink{
		sink:  sink,
		clock: clock,
		cfg:   cfg,
		// The stream label is offset from SaltFault so a retry layer and a
		// fault injector sharing one derived device seed draw from
		// independent streams (jitter must not correlate with injections).
		rng: NewRNG(cfg.Seed, SaltFault^0xbac0ff),
	}
}

// Deliver implements supplicant.NetSink. A frame that succeeds is never
// re-sent — an admitted frame cannot be retried into a double-count.
// Transient failures (supplicant.ErrTransient chain: injected drops,
// ErrShardCrashed) back off and retry; anything else returns unchanged.
func (r *RetrySink) Deliver(frame []byte) ([]byte, error) {
	var waited tz.Cycles
	for attempt := 1; ; attempt++ {
		reply, err := r.sink.Deliver(frame)
		if err == nil {
			r.mu.Lock()
			r.stats.Deliveries++
			if attempt > 1 {
				r.stats.Recovered++
			}
			r.mu.Unlock()
			return reply, nil
		}
		if !errors.Is(err, supplicant.ErrTransient) {
			return nil, err
		}
		if attempt >= r.cfg.Attempts {
			return nil, r.expire(attempt, err)
		}
		d := r.backoff(attempt)
		if waited+d > r.cfg.Budget {
			return nil, r.expire(attempt, err)
		}
		waited += d
		r.clock.Advance(d)
		r.mu.Lock()
		r.stats.Retries++
		r.stats.BackoffCycles += d
		r.mu.Unlock()
		if errors.Is(err, cloud.ErrShardCrashed) {
			// The owner is briefly down awaiting its supervisor restart —
			// a wall-clock condition, so give the supervisor wall time
			// (growing, bounded). The virtual charge above is what the
			// device accounts; this sleep only paces the wall-clock race.
			sleep := 100 * time.Microsecond << uint(attempt)
			if sleep > 5*time.Millisecond {
				sleep = 5 * time.Millisecond
			}
			time.Sleep(sleep)
		} else {
			runtime.Gosched()
		}
	}
}

// backoff returns retry attempt's wait: BaseBackoff doubled per attempt,
// capped at MaxBackoff, plus deterministic jitter in [0, wait/2].
func (r *RetrySink) backoff(attempt int) tz.Cycles {
	d := r.cfg.MaxBackoff
	if attempt-1 < 32 {
		if shifted := r.cfg.BaseBackoff << uint(attempt-1); shifted < d {
			d = shifted
		}
	}
	return d + tz.Cycles(r.rng.Uint64N(uint64(d)/2+1))
}

func (r *RetrySink) expire(attempts int, cause error) error {
	r.mu.Lock()
	r.stats.Expired++
	r.mu.Unlock()
	return fmt.Errorf("%w: retry budget exhausted after %d attempts: %w", cloud.ErrExpired, attempts, cause)
}

// Stats snapshots the retry counters.
func (r *RetrySink) Stats() RetryStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}
