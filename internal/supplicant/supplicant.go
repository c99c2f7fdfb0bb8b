// Package supplicant models the OP-TEE user-space daemon (tee-supplicant)
// that "provides OS-level services such as network communication" to the
// secure world (paper §II). It runs in the normal world and is therefore
// untrusted: the relay's security argument depends on the supplicant only
// ever carrying AEAD-sealed frames it cannot read. The daemon records
// everything it forwards so tests and the leakage experiment can audit
// exactly what an adversarial supplicant would observe.
package supplicant

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"repro/internal/optee"
	"repro/internal/tz"
)

// Errors returned by the daemon.
var (
	// ErrUnknownService is returned for unsupported RPC kinds.
	ErrUnknownService = errors.New("supplicant: unknown service")
	// ErrNoRoute is returned when no network sink matches the target.
	ErrNoRoute = errors.New("supplicant: no route to target")
	// ErrShed marks a delivery the remote frontend refused under
	// admission pressure (load shedding). It lives here, on the NetSink
	// contract, so both sides of the daemon can classify it: sinks
	// (cloud.ErrShed wraps it) signal "carried correctly, dropped by
	// policy", and the daemon counts it as Stats.Shed rather than a
	// transport error.
	ErrShed = errors.New("supplicant: delivery shed by remote admission policy")
	// ErrTransient marks a delivery failure the sender may retry: the
	// frame was neither admitted nor refused by policy (a dropped uplink
	// attempt, a crashed shard mid-restart). Sinks wrap it so retry layers
	// can classify without importing them.
	ErrTransient = errors.New("supplicant: transient delivery failure")
	// ErrExpired marks a delivery whose retry budget ran out: the frame
	// was never admitted, and the sender accounts it explicitly as
	// expired — never silently lost. The daemon counts it as
	// Stats.Expired, parallel to ErrShed/Stats.Shed.
	ErrExpired = errors.New("supplicant: delivery expired after retry budget")
)

// NetSink receives payloads forwarded by the supplicant's network service
// and returns the remote peer's reply. The cloud endpoint implements it.
type NetSink interface {
	Deliver(payload []byte) ([]byte, error)
}

// Stats counts serviced requests.
type Stats struct {
	NetSends uint64
	TimeGets uint64
	Logs     uint64
	Errors   uint64
	// Shed counts deliveries the remote frontend dropped by admission
	// policy (ErrShed) — payloads the daemon carried correctly, kept
	// separate from transport Errors.
	Shed uint64
	// Expired counts deliveries whose retry budget ran out (ErrExpired):
	// the frame was retried deterministically and given up on explicitly,
	// kept separate from both Shed and transport Errors.
	Expired uint64
}

// Supplicant is the RPC daemon instance.
type Supplicant struct {
	clock *tz.Clock
	cost  tz.CostModel

	mu     sync.Mutex
	routes map[string]NetSink
	log    []string
	// observed is every network payload the daemon could inspect, in
	// order, each a slice of a shared chunk rather than a heap copy of
	// its own. A new chunk holds at least as many bytes as all before
	// it, so n payloads take O(log n) chunks and at most twice their
	// bytes, and a chunk is never reallocated, so recording copies each
	// byte once.
	observed [][]byte
	chunk    []byte // the newest chunk; its spare capacity takes the next payloads
	recorded int    // bytes in all chunks
	stats    Stats
}

var _ optee.RPCHandler = (*Supplicant)(nil)

// New creates a supplicant daemon.
func New(clock *tz.Clock, cost tz.CostModel) *Supplicant {
	return &Supplicant{
		clock:  clock,
		cost:   cost,
		routes: make(map[string]NetSink),
	}
}

// Route binds a network target name to a sink.
func (s *Supplicant) Route(target string, sink NetSink) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.routes[target] = sink
}

// HandleRPC implements optee.RPCHandler.
func (s *Supplicant) HandleRPC(req optee.RPCRequest) (optee.RPCResponse, error) {
	// Each RPC is a syscall-weight round trip in the normal world.
	s.clock.Advance(s.cost.Syscall)
	switch req.Kind {
	case optee.RPCNetSend:
		return s.netSend(req)
	case optee.RPCTimeGet:
		s.mu.Lock()
		s.stats.TimeGets++
		s.mu.Unlock()
		out := make([]byte, 8)
		binary.LittleEndian.PutUint64(out, uint64(s.clock.Now()))
		return optee.RPCResponse{Payload: out}, nil
	case optee.RPCLog:
		s.mu.Lock()
		s.stats.Logs++
		s.log = append(s.log, string(req.Payload))
		s.mu.Unlock()
		return optee.RPCResponse{}, nil
	default:
		s.mu.Lock()
		s.stats.Errors++
		s.mu.Unlock()
		return optee.RPCResponse{}, fmt.Errorf("%w: %v", ErrUnknownService, req.Kind)
	}
}

func (s *Supplicant) netSend(req optee.RPCRequest) (optee.RPCResponse, error) {
	s.mu.Lock()
	sink, ok := s.routes[req.Target]
	if ok {
		s.stats.NetSends++
		// The daemon sees every byte it forwards; remember them so the
		// experiment can measure what a hostile supplicant learns.
		s.record(req.Payload)
	} else {
		s.stats.Errors++
	}
	s.mu.Unlock()
	if !ok {
		return optee.RPCResponse{}, fmt.Errorf("%w: %q", ErrNoRoute, req.Target)
	}
	// Per-byte transmission cost.
	s.clock.Advance(tz.Cycles(len(req.Payload)) * s.cost.CopyPerByte)
	reply, err := sink.Deliver(req.Payload)
	if err != nil {
		s.mu.Lock()
		switch {
		case errors.Is(err, ErrShed):
			s.stats.Shed++ // carried correctly, refused by policy — not a fault
		case errors.Is(err, ErrExpired):
			s.stats.Expired++ // retried, budget exhausted — explicit give-up
		default:
			s.stats.Errors++
		}
		s.mu.Unlock()
		return optee.RPCResponse{}, fmt.Errorf("deliver to %q: %w", req.Target, err)
	}
	return optee.RPCResponse{Payload: reply}, nil
}

// Observed returns copies of every network payload the daemon forwarded.
func (s *Supplicant) Observed() [][]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([][]byte, len(s.observed))
	for i, p := range s.observed {
		out[i] = append([]byte(nil), p...)
	}
	return out
}

// ScanObserved calls fn on every network payload the daemon forwarded,
// in order, without copying. fn runs under the daemon's lock: it must
// not keep or modify the payload, nor call back into the daemon.
func (s *Supplicant) ScanObserved(fn func(payload []byte)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range s.observed {
		fn(p)
	}
}

// record appends a copy of payload to the observed record; s.mu is held.
func (s *Supplicant) record(payload []byte) {
	if cap(s.chunk)-len(s.chunk) < len(payload) {
		s.chunk = make([]byte, 0, max(len(payload), s.recorded))
	}
	start := len(s.chunk)
	s.chunk = append(s.chunk, payload...)
	s.recorded += len(payload)
	s.observed = append(s.observed, s.chunk[start:len(s.chunk):len(s.chunk)])
}

// Log returns the diagnostic lines TAs asked the daemon to record.
func (s *Supplicant) Log() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.log...)
}

// Stats returns a snapshot of serviced requests.
func (s *Supplicant) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}
