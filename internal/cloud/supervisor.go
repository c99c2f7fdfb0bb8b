// Shard supervision. A production ingest tier does not stay up because
// shards never fail — it stays up because something notices when one
// does and brings it back without losing the frames it was holding. The
// Supervisor is that something: every Shard.Crash notifies it, and its
// loop restarts the crashed shard, handing back its service slots so
// the queue that survived the crash is replayed to completion
// (ShardStats.Recovered). Recovery preserves the trust invariants: the
// admission gate, policy and endpoints are untouched by a restart, so a
// replayed frame is judged exactly as it was when first admitted.
package cloud

import (
	"sync"
	"time"
)

// SupervisorEvent describes one supervision action, surfaced to the
// observability layer (flight-recorder notes, tracer anomalies).
type SupervisorEvent struct {
	// Kind is "shard-crash" or "shard-restart".
	Kind string
	// Shard is the affected shard's ring label.
	Shard string
	// Queued is the number of admitted frames stranded in the shard's
	// queue at crash time — the frames the restart must replay.
	Queued int
}

type crashNotice struct {
	shard  *Shard
	queued int
}

// Supervisor watches the ring for crashed shards and restarts them.
// Create one with Router.Supervise; Close it after the run (a closed
// supervisor still restarts inline, so a late crash cannot wedge the
// tier).
type Supervisor struct {
	onEvent func(SupervisorEvent) // nil drops events
	notify  chan crashNotice
	wg      sync.WaitGroup

	mu       sync.Mutex
	closed   bool
	restarts int
}

// Supervise attaches a supervisor to every shard on the ring (including
// shards added later): a crash is detected via the shard's notification
// and healed by restarting the shard. onEvent, if non-nil, observes every
// crash and restart.
func (r *Router) Supervise(onEvent func(SupervisorEvent)) *Supervisor {
	sup := &Supervisor{
		onEvent: onEvent,
		notify:  make(chan crashNotice, 64),
	}
	sup.wg.Add(1)
	go sup.loop()
	r.mu.Lock()
	r.sup = sup
	for _, s := range r.shards {
		s.setSupervisor(sup)
	}
	r.mu.Unlock()
	return sup
}

// CrashShard crashes the named active shard (see Shard.Crash), returning
// the number of queued frames the restart will replay and whether the
// shard was found on the ring. Drained or unknown shards report false.
func (r *Router) CrashShard(name string) (queued int, ok bool) {
	r.mu.RLock()
	var victim *Shard
	for _, s := range r.shards {
		if s.Name() == name {
			victim = s
			break
		}
	}
	r.mu.RUnlock()
	if victim == nil {
		return 0, false
	}
	// Crash blocks until the frames in service finish; never under the
	// router lock, so routing stays live for the other shards.
	return victim.Crash(), true
}

// SlowShard installs a fault-injected per-frame serve delay on the named
// active shard (see Shard.SetServeDelay); reports whether it was found.
func (r *Router) SlowShard(name string, d time.Duration) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, s := range r.shards {
		if s.Name() == name {
			s.SetServeDelay(d)
			return true
		}
	}
	return false
}

func (sup *Supervisor) loop() {
	defer sup.wg.Done()
	for n := range sup.notify {
		sup.event(SupervisorEvent{Kind: "shard-crash", Shard: n.shard.Name(), Queued: n.queued})
		n.shard.Restart()
		sup.mu.Lock()
		sup.restarts++
		sup.mu.Unlock()
		sup.event(SupervisorEvent{Kind: "shard-restart", Shard: n.shard.Name(), Queued: n.queued})
	}
}

func (sup *Supervisor) event(e SupervisorEvent) {
	if sup.onEvent != nil {
		sup.onEvent(e)
	}
}

// notifyCrash hands a crashed shard to the supervision loop. After Close
// the restart happens inline instead, so a crash can never strand a
// queue just because supervision already wound down.
func (sup *Supervisor) notifyCrash(s *Shard, queued int) {
	sup.mu.Lock()
	if sup.closed {
		sup.mu.Unlock()
		s.Restart()
		return
	}
	sup.notify <- crashNotice{shard: s, queued: queued}
	sup.mu.Unlock()
}

// Restarts reports how many shard restarts the supervisor performed.
func (sup *Supervisor) Restarts() int {
	sup.mu.Lock()
	defer sup.mu.Unlock()
	return sup.restarts
}

// Close drains pending supervision work and stops the loop. Crashes
// after Close are still healed (inline).
func (sup *Supervisor) Close() {
	sup.mu.Lock()
	if sup.closed {
		sup.mu.Unlock()
		return
	}
	sup.closed = true
	sup.mu.Unlock()
	close(sup.notify)
	sup.wg.Wait()
}
