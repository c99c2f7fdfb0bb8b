package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/metrics"
	"repro/internal/optee"
	"repro/internal/sensitive"
	"repro/internal/teec"
	"repro/internal/tz"
)

// ErrNoStagedMode is returned when a staged session is requested on a
// system whose mode cannot classify externally.
var ErrNoStagedMode = errors.New("core: staged sessions require secure-filter mode")

// PendingGroup is one captured-and-transcribed utterance group parked
// between CaptureGroup and ResumeGroup: the encoded token sequences
// awaiting the shared classifier, plus the submit-time metadata a
// scheduler request needs. Tokens are vocabulary-clamped IDs, never
// transcript words.
type PendingGroup struct {
	Tokens  [][]int
	Version uint64
	Now     tz.Cycles

	groupStart tz.Cycles
	lo         int
	truths     []sensitive.Utterance
}

// Size returns the number of utterances in the group.
func (pg *PendingGroup) Size() int { return len(pg.truths) }

// StagedSession is the one secure session loop. Each utterance group is
// queued onto the bus and taken through the voice TA's capture →
// classify → relay pipeline; RunSession and RunSessionBatched drive it
// synchronously, and an event-driven caller drives it in resumable
// stages, parking between transcription and classification:
//
//	st, _ := sys.BeginStagedSession(utterances, batch)
//	for pg, _ := st.CaptureGroup(); pg != nil; pg, _ = st.CaptureGroup() {
//	    // submit pg.Tokens to the shared scheduler, park, collect
//	    // per-item flags/occupancies and the classification wait ...
//	    st.ResumeGroup(pg, flags, occs, wait)
//	}
//	res, _ := st.Finish()
//
// Every entry point shares the per-group completion step (invoke), so a
// staged run's audits are bit-identical to the synchronous path for the
// same verdicts.
type StagedSession struct {
	s          *System
	ctx        *teec.Context
	sess       *teec.Session
	res        *SessionResult
	utterances []sensitive.Utterance
	batch      int
	// single marks a per-utterance session (RunSession): each group is
	// one CmdProcessItem, and each outcome is timed over its whole
	// round trip rather than by its TA stages.
	single   bool
	start    tz.Cycles
	lo       int
	pending  bool
	finished bool
}

// BeginStagedSession opens the TEEC session and prepares the staged run.
// Only secure-filter systems can classify externally; batch is clamped
// to MaxBatch and raised to 1.
func (s *System) BeginStagedSession(utterances []sensitive.Utterance, batch int) (*StagedSession, error) {
	if s.cfg.Mode != ModeSecureFilter {
		return nil, ErrNoStagedMode
	}
	return s.beginSession(utterances, batch, false)
}

func (s *System) beginSession(utterances []sensitive.Utterance, batch int, single bool) (*StagedSession, error) {
	st := &StagedSession{
		s:          s,
		res:        &SessionResult{Mode: s.cfg.Mode, Latency: metrics.NewRecorder()},
		utterances: utterances,
		batch:      max(1, min(batch, MaxBatch)),
		single:     single,
		start:      s.Clock.Now(),
	}
	s.Monitor.ResetStats()
	st.ctx = teec.InitializeContext(s.TEE)
	sess, err := st.ctx.OpenSession(UUIDVoiceTA)
	if err != nil {
		return nil, fmt.Errorf("core session: %w", err)
	}
	st.sess = sess
	return st, nil
}

// runSecure drives a secure session synchronously over one scratch
// lease.
func (s *System) runSecure(utterances []sensitive.Utterance, batch int, single bool) (*SessionResult, error) {
	st, err := s.beginSession(utterances, batch, single)
	if err != nil {
		return nil, err
	}
	defer st.Abort()
	sc := sessionScratchFree.Get()
	defer sessionScratchFree.Put(sc)
	for st.lo < len(utterances) {
		lo := st.lo
		if err := st.runGroup(sc); err != nil {
			return nil, fmt.Errorf("group at %d: %w", lo, err)
		}
	}
	return st.Finish()
}

// runGroup takes the next group through the TA synchronously. An inline
// group is one processing command. A hybrid group is the staged capture,
// the normal-world HE round trip (heClassify), and CmdResumeBatchHE for
// the in-TA decrypt, tail, policy and sealed relay.
func (st *StagedSession) runGroup(sc *sessionScratch) error {
	if st.s.cfg.Mode == ModeHybridHE {
		pg, err := st.stage(sc)
		if err != nil {
			return err
		}
		blobs, err := st.s.heClassify(sc, pg.Tokens)
		if err != nil {
			return err
		}
		return st.invoke(pg, CmdResumeBatchHE, &optee.Params{{Type: optee.MemrefIn, Buf: blobs}, {}, {}})
	}
	pg, lens, err := st.queueNext(sc)
	if err != nil {
		return err
	}
	// A per-utterance session passes its one length by value, which pays
	// no shared-memory flush; a batched one passes the length table.
	cmd, p := CmdProcessBatch, &optee.Params{{Type: optee.MemrefIn, Buf: lens}, {}}
	if st.single {
		cmd, p = CmdProcessItem, &optee.Params{{Type: optee.ValueIn, A: uint64(binary.LittleEndian.Uint32(lens))}, {}}
	}
	return st.invoke(pg, cmd, p)
}

// queueNext claims the next utterance group and queues its audio onto
// the bus, returning the TA's length table. Returns a nil group when
// every utterance has been queued.
func (st *StagedSession) queueNext(sc *sessionScratch) (*PendingGroup, []byte, error) {
	if st.finished {
		return nil, nil, fmt.Errorf("%w: core staged session already finished", optee.ErrBadState)
	}
	if st.pending {
		return nil, nil, fmt.Errorf("%w: core staged session's previous group not resumed", optee.ErrBadState)
	}
	if st.lo >= len(st.utterances) {
		return nil, nil, nil
	}
	hi := min(st.lo+st.batch, len(st.utterances))
	pg := &PendingGroup{groupStart: st.s.Clock.Now(), lo: st.lo, truths: st.utterances[st.lo:hi]}
	lens, err := st.s.queueGroup(sc, pg.lo, pg.truths)
	if err != nil {
		return nil, nil, err
	}
	st.lo = hi
	st.pending = true
	return pg, lens, nil
}

// stage queues the next group and runs the TA's capture+transcribe half
// (CmdTranscribeBatch), returning the parked group.
func (st *StagedSession) stage(sc *sessionScratch) (*PendingGroup, error) {
	pg, lens, err := st.queueNext(sc)
	if pg == nil || err != nil {
		return nil, err
	}
	s := st.s
	p := &optee.Params{{Type: optee.MemrefIn, Buf: lens}, {}}
	if err := st.sess.InvokeCommand(CmdTranscribeBatch, p); err != nil {
		return nil, err
	}
	pg.Tokens = s.VoiceTA.PendingTokens()
	pg.Version = s.VoiceTA.ModelVersion()
	pg.Now = s.Clock.Now()
	if len(pg.Tokens) != pg.Size() {
		return nil, fmt.Errorf("%d token sequences for %d utterances", len(pg.Tokens), pg.Size())
	}
	return pg, nil
}

// CaptureGroup queues the next utterance group onto the bus, runs the
// TA's capture+transcribe half (CmdTranscribeBatch) and returns the
// parked group. Returns (nil, nil) when every utterance has been
// captured; the caller must ResumeGroup the previous group first.
func (st *StagedSession) CaptureGroup() (*PendingGroup, error) {
	// The scratch lease covers the capture only, so a group parked on
	// the shared classifier holds no capture scratch.
	sc := sessionScratchFree.Get()
	defer sessionScratchFree.Put(sc)
	lo := st.lo
	pg, err := st.stage(sc)
	if err != nil {
		return nil, fmt.Errorf("staged capture at %d: %w", lo, err)
	}
	return pg, nil
}

// ResumeGroup completes a parked group with the shared classifier's
// verdicts: per-item flags and flush occupancies plus the virtual cycles
// the classification waited (when the last overlapping flush returned).
// The TA relays survivors; the session then does the group's bookkeeping.
func (st *StagedSession) ResumeGroup(pg *PendingGroup, flags []bool, occs []int, wait tz.Cycles) error {
	n := pg.Size()
	if len(flags) != n || len(occs) != n {
		return fmt.Errorf("staged resume at %d: %d flags / %d occupancies for %d utterances",
			pg.lo, len(flags), len(occs), n)
	}
	buf := make([]byte, 5*n)
	for i := 0; i < n; i++ {
		if flags[i] {
			buf[5*i] = 1
		}
		binary.LittleEndian.PutUint32(buf[5*i+1:], uint32(occs[i]))
	}
	p := &optee.Params{
		{Type: optee.MemrefIn, Buf: buf},
		{Type: optee.ValueIn, A: uint64(wait)},
		{},
	}
	if err := st.invoke(pg, CmdResumeBatch, p); err != nil {
		return fmt.Errorf("staged resume at %d: %w", pg.lo, err)
	}
	return nil
}

// invoke issues the command that completes a queued group in the TA and
// runs the completion step over the records it produced: one outcome
// per utterance, timed by its TA stages, or over its whole round trip in
// a per-utterance session.
func (st *StagedSession) invoke(pg *PendingGroup, cmd uint32, p *optee.Params) error {
	if st.finished {
		return fmt.Errorf("%w: core staged session already finished", optee.ErrBadState)
	}
	if !st.pending {
		return fmt.Errorf("%w: core staged session has no group pending", optee.ErrBadState)
	}
	s := st.s
	before := s.VoiceTA.count()
	if err := st.sess.InvokeCommand(cmd, p); err != nil {
		return err
	}
	records := s.VoiceTA.since(before)
	if len(records) != pg.Size() {
		return fmt.Errorf("%d records for %d utterances", len(records), pg.Size())
	}
	completeGroup(&s.deviceShell, pg.groupStart, records, func(i int, rec ItemRecord) {
		out := UtteranceOutcome{Truth: pg.truths[i], ItemRecord: rec, Cycles: rec.Stages.Total()}
		if st.single {
			out.Cycles = s.Clock.Now() - pg.groupStart
		}
		st.res.add(out)
	}, &st.res.Snoop, s.Driver.BufferAddr(), min(64, s.cfg.BufBytes))
	st.pending = false
	return nil
}

// Finish finalizes the session result and closes the TEEC session. The
// session is unusable afterwards.
func (st *StagedSession) Finish() (*SessionResult, error) {
	if st.finished {
		return nil, fmt.Errorf("%w: core staged session already finished", optee.ErrBadState)
	}
	if st.pending {
		return nil, fmt.Errorf("%w: core staged session's group still pending", optee.ErrBadState)
	}
	if st.lo < len(st.utterances) {
		return nil, fmt.Errorf("core staged session: %d of %d utterances captured",
			st.lo, len(st.utterances))
	}
	st.finished = true
	st.s.finalizeSession(st.res, st.start)
	err := st.ctx.FinalizeContext()
	return st.res, err
}

// Abort tears the session down without finalizing (error paths). Safe to
// call after Finish, where it is a no-op.
func (st *StagedSession) Abort() {
	if st.finished {
		return
	}
	st.finished = true
	_ = st.ctx.FinalizeContext()
}
