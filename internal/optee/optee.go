// Package optee models the OP-TEE trusted OS the paper builds on (§II):
// trusted applications (TAs) with GlobalPlatform-style sessions, commands
// and parameters; pseudo trusted applications (PTAs) — "secure modules with
// OS-level privileges that serve as an intermediary between a TA and
// low-level code like device driver software"; RPC to the normal-world
// tee-supplicant for OS services; and AES-GCM secure storage for TA
// objects such as model weights.
//
// Every entry from the normal world crosses the secure monitor (tz.Monitor)
// and is cost-accounted; every RPC to the supplicant pays two extra world
// switches, exactly the traffic pattern whose overhead the paper's §V
// flags as the main performance limitation.
package optee

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/memory"
	"repro/internal/tz"
)

// Errors returned by the TEE.
var (
	// ErrUnknownTA is returned when opening a session to an unknown UUID.
	ErrUnknownTA = errors.New("optee: unknown trusted application")
	// ErrBadSession is returned for operations on closed sessions.
	ErrBadSession = errors.New("optee: bad session")
	// ErrNoRPCHandler is returned when an RPC fires with no supplicant.
	ErrNoRPCHandler = errors.New("optee: no RPC handler registered")
	// ErrBadParam is returned for malformed parameter lists.
	ErrBadParam = errors.New("optee: bad parameter")
	// ErrBadState is returned for a well-formed command the TA cannot
	// take in its current state (GlobalPlatform TEE_ERROR_BAD_STATE),
	// e.g. a resume with no staged batch.
	ErrBadState = errors.New("optee: bad state")
	// ErrAccessDenied is returned when a normal-world client addresses a
	// PTA directly; PTAs are reachable only from inside the secure world.
	ErrAccessDenied = errors.New("optee: access denied")
)

// ParamType tags one invocation parameter, following the GlobalPlatform
// TEE Client API types. ParamNone is the zero value so unused slots need
// no initialization.
type ParamType int

const (
	// ParamNone marks an unused slot.
	ParamNone ParamType = iota
	// ValueIn passes two scalars into the TEE.
	ValueIn
	// ValueOut returns two scalars from the TEE.
	ValueOut
	// ValueInOut passes and returns scalars.
	ValueInOut
	// MemrefIn passes a buffer into the TEE.
	MemrefIn
	// MemrefOut returns a buffer from the TEE (TA sets Buf length used).
	MemrefOut
	// MemrefInOut passes and returns a buffer.
	MemrefInOut
)

// IsMemref reports whether the type carries a buffer.
func (t ParamType) IsMemref() bool {
	return t == MemrefIn || t == MemrefOut || t == MemrefInOut
}

// Param is one invocation parameter.
type Param struct {
	Type ParamType
	A, B uint64
	Buf  []byte
}

// Params is the GlobalPlatform fixed four-slot parameter list.
type Params [4]Param

// Validate rejects inconsistent parameter lists.
func (p *Params) Validate() error {
	for i, prm := range p {
		if prm.Type.IsMemref() && prm.Buf == nil && prm.Type != MemrefOut {
			return fmt.Errorf("%w: slot %d: memref without buffer", ErrBadParam, i)
		}
		if !prm.Type.IsMemref() && prm.Buf != nil {
			return fmt.Errorf("%w: slot %d: buffer on value param", ErrBadParam, i)
		}
	}
	return nil
}

// TA is a trusted application (or pseudo TA). Implementations run with the
// CPU in the secure world.
type TA interface {
	// UUID identifies the application.
	UUID() string
	// Open is called when a session is opened.
	Open(sessionID uint32) error
	// Invoke executes a command. Memref-out parameters are written in
	// place.
	Invoke(sessionID uint32, cmd uint32, p *Params) error
	// Close is called when the session closes.
	Close(sessionID uint32)
}

// RPCKind selects a supplicant service.
type RPCKind int

const (
	// RPCNetSend forwards a payload to the network and returns the reply.
	RPCNetSend RPCKind = iota + 1
	// RPCTimeGet returns the current virtual time.
	RPCTimeGet
	// RPCLog appends a diagnostic line to the normal-world log.
	RPCLog
)

// String returns the RPC kind name.
func (k RPCKind) String() string {
	switch k {
	case RPCNetSend:
		return "net-send"
	case RPCTimeGet:
		return "time-get"
	case RPCLog:
		return "log"
	default:
		return fmt.Sprintf("rpc(%d)", int(k))
	}
}

// RPCRequest is one supplicant service request.
type RPCRequest struct {
	Kind    RPCKind
	Target  string // e.g. cloud endpoint name for RPCNetSend
	Payload []byte
}

// RPCResponse carries the supplicant's answer.
type RPCResponse struct {
	Payload []byte
}

// RPCHandler services requests in the normal world (the tee-supplicant).
type RPCHandler interface {
	HandleRPC(req RPCRequest) (RPCResponse, error)
}

// Stats snapshots TEE activity.
type Stats struct {
	SessionsOpened uint64
	Invocations    uint64
	PTAInvocations uint64
	RPCs           uint64
}

// SMC function IDs used by the TEE entry vector.
const (
	smcOpenSession  tz.SMCFunc = 0xb200_0001
	smcInvoke       tz.SMCFunc = 0xb200_0002
	smcCloseSession tz.SMCFunc = 0xb200_0003
)

type session struct {
	id   uint32
	ta   TA
	uuid string
}

// OS is the OP-TEE core instance.
type OS struct {
	monitor *tz.Monitor
	heap    *memory.Heap

	// entryMu serializes normal-world entries into the TEE. The model is
	// a single-CPU platform: only one thread can be inside the secure
	// world at a time, which is exactly how OP-TEE gates SMC entry per
	// core.
	entryMu sync.Mutex

	mu       sync.Mutex
	tas      map[string]TA
	ptas     map[string]TA
	sessions map[uint32]*session
	nextID   uint32
	rpc      RPCHandler
	stats    Stats

	// pending carries the rich argument payload across the SMC register
	// interface (real OP-TEE passes a physical pointer to a message
	// structure in shared memory; the cost of that indirection is charged
	// via the cache-flush penalty on memref parameters). It points at
	// entry, the one message buffer: entryMu admits one entry at a time.
	pending *message
	entry   message
}

type message struct {
	uuid    string
	session uint32
	cmd     uint32
	params  *Params
	// results
	newSession uint32
	err        error
}

// New creates the TEE core and installs its SMC handlers on the monitor.
func New(monitor *tz.Monitor, heap *memory.Heap) *OS {
	o := &OS{
		monitor:  monitor,
		heap:     heap,
		tas:      make(map[string]TA),
		ptas:     make(map[string]TA),
		sessions: make(map[uint32]*session),
		nextID:   1,
	}
	monitor.Register(smcOpenSession, o.handleOpen)
	monitor.Register(smcInvoke, o.handleInvoke)
	monitor.Register(smcCloseSession, o.handleClose)
	return o
}

// Monitor returns the secure monitor the OS is bound to.
func (o *OS) Monitor() *tz.Monitor { return o.monitor }

// SecureHeap returns the TEE's secure memory allocator.
func (o *OS) SecureHeap() *memory.Heap { return o.heap }

// RegisterTA installs a trusted application.
func (o *OS) RegisterTA(ta TA) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.tas[ta.UUID()] = ta
}

// RegisterPTA installs a pseudo trusted application. PTAs are reachable
// only from the secure world (InvokeSecure), never from normal-world
// clients.
func (o *OS) RegisterPTA(ta TA) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.ptas[ta.UUID()] = ta
}

// SetRPCHandler connects the tee-supplicant.
func (o *OS) SetRPCHandler(h RPCHandler) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.rpc = h
}

// Stats returns a snapshot of TEE activity.
func (o *OS) Stats() Stats {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.stats
}

// --- normal-world entry points (called by the TEE client library) ----------

// OpenSession opens a session to a TA from the normal world, crossing the
// monitor. Sessions to PTAs are denied, as in real OP-TEE for PTAs that
// serve kernel/driver purposes.
func (o *OS) OpenSession(uuid string) (uint32, error) {
	return o.smc(smcOpenSession, message{uuid: uuid})
}

// Invoke executes a command on an open session from the normal world.
func (o *OS) Invoke(sessionID uint32, cmd uint32, p *Params) error {
	if p == nil {
		p = &Params{}
	}
	if err := p.Validate(); err != nil {
		return err
	}
	// Shared-memory parameters pay cache maintenance on the way in.
	for _, prm := range p {
		if prm.Type.IsMemref() {
			o.monitor.FlushSharedRange()
		}
	}
	_, err := o.smc(smcInvoke, message{session: sessionID, cmd: cmd, params: p})
	return err
}

// CloseSession closes a session from the normal world.
func (o *OS) CloseSession(sessionID uint32) error {
	_, err := o.smc(smcCloseSession, message{session: sessionID})
	return err
}

// smc enters the secure world with msg in the OS's message buffer and
// returns the new session ID and the handler's error. It reads both out
// before releasing entryMu, after which the next entry may overwrite the
// buffer.
func (o *OS) smc(fn tz.SMCFunc, msg message) (uint32, error) {
	o.entryMu.Lock()
	defer o.entryMu.Unlock()
	o.entry = msg
	o.mu.Lock()
	o.pending = &o.entry
	o.mu.Unlock()
	_, err := o.monitor.SMC(fn, [4]uint64{})
	id, msgErr := o.entry.newSession, o.entry.err
	o.entry = message{} // drop the caller's params
	if err != nil {
		return 0, err
	}
	return id, msgErr
}

func (o *OS) takePending() *message {
	o.mu.Lock()
	defer o.mu.Unlock()
	msg := o.pending
	o.pending = nil
	return msg
}

// --- secure-world handlers ---------------------------------------------------

func (o *OS) handleOpen(args [4]uint64) ([4]uint64, error) {
	msg := o.takePending()
	if msg == nil {
		return [4]uint64{}, fmt.Errorf("%w: no pending open", ErrBadParam)
	}
	o.mu.Lock()
	ta, ok := o.tas[msg.uuid]
	if !ok {
		if _, isPTA := o.ptas[msg.uuid]; isPTA {
			o.mu.Unlock()
			msg.err = fmt.Errorf("%w: %s is a PTA", ErrAccessDenied, msg.uuid)
			return [4]uint64{}, nil
		}
		o.mu.Unlock()
		msg.err = fmt.Errorf("%w: %s", ErrUnknownTA, msg.uuid)
		return [4]uint64{}, nil
	}
	id := o.nextID
	o.nextID++
	o.mu.Unlock()

	if err := ta.Open(id); err != nil {
		msg.err = fmt.Errorf("open %s: %w", msg.uuid, err)
		return [4]uint64{}, nil
	}
	o.mu.Lock()
	o.sessions[id] = &session{id: id, ta: ta, uuid: msg.uuid}
	o.stats.SessionsOpened++
	o.mu.Unlock()
	msg.newSession = id
	return [4]uint64{uint64(id)}, nil
}

func (o *OS) handleInvoke(args [4]uint64) ([4]uint64, error) {
	msg := o.takePending()
	if msg == nil {
		return [4]uint64{}, fmt.Errorf("%w: no pending invoke", ErrBadParam)
	}
	o.mu.Lock()
	s, ok := o.sessions[msg.session]
	if ok {
		o.stats.Invocations++
	}
	o.mu.Unlock()
	if !ok {
		msg.err = fmt.Errorf("%w: %d", ErrBadSession, msg.session)
		return [4]uint64{}, nil
	}
	p := msg.params
	if p == nil {
		p = &Params{}
	}
	msg.err = s.ta.Invoke(msg.session, msg.cmd, p)
	return [4]uint64{}, nil
}

func (o *OS) handleClose(args [4]uint64) ([4]uint64, error) {
	msg := o.takePending()
	if msg == nil {
		return [4]uint64{}, fmt.Errorf("%w: no pending close", ErrBadParam)
	}
	o.mu.Lock()
	s, ok := o.sessions[msg.session]
	delete(o.sessions, msg.session)
	o.mu.Unlock()
	if !ok {
		msg.err = fmt.Errorf("%w: %d", ErrBadSession, msg.session)
		return [4]uint64{}, nil
	}
	s.ta.Close(s.id)
	return [4]uint64{}, nil
}

// --- secure-world services for TAs ---------------------------------------------

// InvokeSecure lets a TA (already executing in the secure world) call a
// PTA or another TA through the TEE-internal syscall interface. No world
// switch occurs; the dispatch cost is one TEE syscall.
func (o *OS) InvokeSecure(uuid string, cmd uint32, p *Params) error {
	if o.monitor.World() != tz.WorldSecure {
		return fmt.Errorf("%w: InvokeSecure from %s world", ErrAccessDenied, o.monitor.World())
	}
	if p == nil {
		p = &Params{}
	}
	if err := p.Validate(); err != nil {
		return err
	}
	o.monitor.Clock().Advance(o.monitor.Cost().Syscall)
	o.mu.Lock()
	ta, ok := o.ptas[uuid]
	if !ok {
		ta, ok = o.tas[uuid]
	}
	if ok {
		o.stats.PTAInvocations++
	}
	o.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownTA, uuid)
	}
	return ta.Invoke(0, cmd, p)
}

// RPC suspends the calling TA and services req in the normal world via the
// tee-supplicant, paying the two extra world switches of the OP-TEE RPC
// path.
func (o *OS) RPC(req RPCRequest) (RPCResponse, error) {
	o.mu.Lock()
	h := o.rpc
	o.mu.Unlock()
	if h == nil {
		return RPCResponse{}, ErrNoRPCHandler
	}
	if o.monitor.World() != tz.WorldSecure {
		return RPCResponse{}, fmt.Errorf("%w: RPC from %s world", ErrAccessDenied, o.monitor.World())
	}
	var (
		resp RPCResponse
		err  error
	)
	o.monitor.NormalCall(func() {
		resp, err = h.HandleRPC(req)
	})
	o.mu.Lock()
	o.stats.RPCs++
	o.mu.Unlock()
	if err != nil {
		return RPCResponse{}, fmt.Errorf("rpc %s: %w", req.Kind, err)
	}
	return resp, nil
}
