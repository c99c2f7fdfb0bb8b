package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"repro/internal/audio"
	"repro/internal/driver"
	"repro/internal/i2s"
	"repro/internal/lease"
	"repro/internal/ml/classify"
	"repro/internal/optee"
	"repro/internal/relay"
	"repro/internal/tz"
)

// VoiceTADigest is the measured code identity of the voice TA — what a
// loader hashing the TA image would report, and what the fleet verifier
// expects from secure speakers.
var VoiceTADigest = voiceProfile.code

// DriverPTA is the pseudo trusted application bridging the TA and the
// in-TEE sound driver (paper §II: a PTA "with OS-level privileges that
// could serve as an intermediary between a TA and low-level code like
// device driver software").
type DriverPTA struct {
	drv *driver.SoundDriver

	mu      sync.Mutex
	started bool
}

// PTA commands.
const (
	// CmdPTAStart probes and starts the capture stream.
	CmdPTAStart uint32 = 0x10
	// CmdPTARead drains captured bytes into params[0] (MemrefOut); the
	// number of valid bytes returns in params[1].A (ValueOut).
	CmdPTARead uint32 = 0x11
	// CmdPTAStop stops and closes the stream.
	CmdPTAStop uint32 = 0x12
)

// NewDriverPTA wraps the secure driver instance.
func NewDriverPTA(drv *driver.SoundDriver) *DriverPTA {
	return &DriverPTA{drv: drv}
}

// UUID implements optee.TA.
func (p *DriverPTA) UUID() string { return UUIDDriverPTA }

// Open implements optee.TA.
func (p *DriverPTA) Open(sessionID uint32) error { return nil }

// Close implements optee.TA.
func (p *DriverPTA) Close(sessionID uint32) {}

// Invoke implements optee.TA.
func (p *DriverPTA) Invoke(sessionID uint32, cmd uint32, params *optee.Params) error {
	switch cmd {
	case CmdPTAStart:
		return p.start()
	case CmdPTARead:
		if params[0].Type != optee.MemrefOut || params[0].Buf == nil {
			return fmt.Errorf("%w: CmdPTARead needs MemrefOut", optee.ErrBadParam)
		}
		n, err := p.drv.ReadPCM(params[0].Buf)
		if err != nil {
			return err
		}
		params[1].Type = optee.ValueOut
		params[1].A = uint64(n)
		return nil
	case CmdPTAStop:
		return p.stop()
	default:
		return fmt.Errorf("%w: pta cmd %#x", optee.ErrBadParam, cmd)
	}
}

func (p *DriverPTA) start() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.started {
		return nil
	}
	if err := p.drv.Probe(); err != nil {
		return err
	}
	if err := p.drv.Open(); err != nil && !errors.Is(err, driver.ErrAlreadyOpen) {
		return err
	}
	if err := p.drv.HwParams(i2s.DefaultFormat()); err != nil {
		return err
	}
	if err := p.drv.Prepare(); err != nil {
		return err
	}
	if err := p.drv.TriggerStart(); err != nil {
		return err
	}
	p.started = true
	return nil
}

func (p *DriverPTA) stop() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.started {
		return nil
	}
	p.started = false
	if err := p.drv.TriggerStop(); err != nil {
		return err
	}
	return p.drv.Close()
}

// The device TA's command table, one for every profile. A command the
// profile's peripheral cannot serve is rejected with ErrBadState, and an
// ID outside the table with ErrBadParam.
const (
	// CmdProcessItem captures one item of params[0].A (ValueIn) wire bytes
	// through the peripheral's PTA — an utterance, or a frame of exactly
	// 576 bytes — classifies and filters it, and relays the result.
	// Outputs: params[1] ValueOut A=forwarded(0/1) B=redacted. An item
	// the peripheral does not hold (audio never pumped, an empty sensor)
	// is ErrBadParam.
	CmdProcessItem uint32 = 0x20
	// CmdProcessBatch processes several queued items in ONE TA
	// invocation, amortizing the world-switch round trip and batching the
	// classifier forward pass across the queue. params[0] is a MemrefIn of
	// little-endian uint32 item byte lengths; outputs: params[1]
	// ValueOut A=forwarded count, B=total redacted tokens.
	CmdProcessBatch uint32 = 0x21
	// CmdAttest produces attestation evidence: params[0] is a MemrefIn
	// challenge nonce, params[1] a MemrefOut the marshalled report is
	// written into, params[2].A (ValueOut) the report length.
	CmdAttest uint32 = 0x22
	// CmdUpdateModel installs a newer model pack: params[0] is a MemrefIn
	// encoded attest.Pack, params[1] a MemrefIn marshalled manifest token.
	// The TA verifies the manifest against its device key, seals the pack
	// into secure storage and hot-swaps the classifier without disturbing
	// in-flight batches; params[2].A (ValueOut) returns the new version.
	CmdUpdateModel uint32 = 0x23
	// CmdRotateKey redeems a verifier-issued key-rotation token:
	// params[0] is a MemrefIn marshalled attest.RotationToken. The TA
	// verifies the token under its current attestation key, derives the
	// next epoch key, seals the epoch record to secure storage (next to
	// current-weights) and swaps the signer without disturbing in-flight
	// work; params[1].A (ValueOut) returns the new key epoch.
	CmdRotateKey uint32 = 0x24
	// CmdTranscribeBatch runs the front half of CmdProcessBatch — capture
	// and in-TEE transcription for one queued group — then parks: the
	// encoded token sequences are staged for an external shared-scheduler
	// classification instead of classifying inline, so the calling thread
	// can yield while the cross-device flush forms. params[0] is a
	// MemrefIn of little-endian uint32 utterance byte lengths; params[1].A
	// (ValueOut) returns the pending count. A speaker's command only.
	CmdTranscribeBatch uint32 = 0x25
	// CmdResumeBatch completes a staged batch with verdicts from the
	// shared classifier: params[0] is a MemrefIn of 5 bytes per item
	// (flag byte + little-endian uint32 flush occupancy), params[1].A
	// (ValueIn) the virtual cycles the classification waited. The TA
	// charges the wait, applies the relay policy and forwards survivors.
	// Outputs: params[2] ValueOut A=forwarded count, B=redacted tokens.
	// A speaker's command only.
	CmdResumeBatch uint32 = 0x26
	// CmdResumeBatchHE completes a group via the HE→TEE handoff
	// (ModeHybridHE): params[0] is a MemrefIn of concatenated
	// length-prefixed ciphertext blobs (little-endian uint32 byte length
	// followed by the provider-evaluated HE layer output), one per item.
	// A speaker's items are the group CmdTranscribeBatch staged; a
	// doorbell's are the frames the normal world captured, params[1] a
	// MemrefIn of 576 bytes per blob. The TA unseals the HE secret key
	// from secure storage, decrypts each blob, runs the classifier's
	// non-linear tail inside the TEE, applies the relay policy and
	// forwards survivors. Both memrefs are borrowed for the call only:
	// the TA copies what it keeps before it returns. Outputs: params[2]
	// ValueOut A=forwarded count, B=redacted tokens.
	CmdResumeBatchHE uint32 = 0x27
)

// MaxBatch bounds one group of items; it keeps a batch of utterances'
// wire bytes comfortably inside the controller FIFO.
const MaxBatch = 8

// StageCycles decomposes one item's TEE processing time.
type StageCycles struct {
	Capture    tz.Cycles
	Transcribe tz.Cycles
	Classify   tz.Cycles
	Relay      tz.Cycles
}

// Total sums the stages.
func (s StageCycles) Total() tz.Cycles {
	return s.Capture + s.Transcribe + s.Classify + s.Relay
}

// taStages are the peripheral's own stages, which the device TA runs
// its groups through: voiceStages for a speaker, frameStages for a
// doorbell.
type taStages struct {
	// checkItem rejects an item byte count the peripheral cannot capture,
	// before any of it is pulled.
	checkItem func(n uint64) error
	// capture pulls the group's items, of the given wire bytes, through
	// the peripheral's PTA into the TA, filling their records' capture
	// (and transcribe) stages (Fig. 1 steps 4–5).
	capture func(t *DeviceTA, recs []ItemRecord, lengths []int) error
	// featurize fills batch with the classifier input of each captured
	// item.
	featurize func(t *DeviceTA, clf *classify.Classifier, recs []ItemRecord, batch [][]float32)
	// encode is the token sequence a shared classifier takes for a
	// captured item; nil for a peripheral whose groups are never staged
	// in the TA (CmdTranscribeBatch and CmdResumeBatch are ErrBadState).
	encode func(t *DeviceTA, rec *ItemRecord) []int
	// handIn takes the n items of an HE handoff that the normal world
	// captured itself (CmdResumeBatchHE's params[1]); nil for a
	// peripheral whose HE group is the one CmdTranscribeBatch staged.
	handIn func(t *DeviceTA, n int, items optee.Param) error
	// loadClassifier builds the classifier from a sealed weights blob.
	loadClassifier func(cfg *TAConfig, blob []byte) (*classify.Classifier, error)
	// relay applies the peripheral's relay policy to item i of a
	// classified group and seals a survivor through relayEvent.
	relay func(t *DeviceTA, i int, rec *ItemRecord) error
}

// DeviceTA is the trusted application of Fig. 1, for either peripheral:
// it pulls items from its peripheral's PTA, featurizes and classifies
// them, and relays sanitized events through the supplicant to the cloud.
// Attestation, key rotation, model update, the sealed classifier and the
// HE tail step are its embedded taLifecycle, and the classify and relay
// steps, the sealed channel and the record log its taPipeline. What the
// peripheral does — capture, featurize, classifier, relay policy — comes
// from its taProfile's stages.
type DeviceTA struct {
	taLifecycle
	taPipeline
	cfg TAConfig

	mu    sync.Mutex
	opens int // open-session refcount; a profile's stream runs while > 0
	// Staged-batch state (CmdTranscribeBatch → CmdResumeBatch): records
	// carrying the capture/transcribe halves and the encoded tokens
	// awaiting the shared classifier. At most one staged batch is pending
	// per TA, and it keeps its own records.
	pendingRecs   []ItemRecord
	pendingTokens [][]int

	// Per-TA group scratch, grown lazily to the group size: invocations
	// are serialized per device, so an inline group's records, its
	// classifier input rows and a doorbell's frames are reused across
	// commands. one and oneLen back a group of one without heap slices,
	// and grab is a doorbell's camera PTA parameters.
	one    [1]ItemRecord
	oneLen [1]int
	group  []ItemRecord
	batch  [][]float32
	frames []byte
	grab   optee.Params
}

var _ optee.TA = (*DeviceTA)(nil)

// newDeviceTA constructs the TA of profile p (registered but not yet
// opened). A no-filter TA seals no weights and builds no classifier; a
// shared-classify TA seals an update's weights but builds none.
func newDeviceTA(p *taProfile, cfg TAConfig) (*DeviceTA, error) {
	t := &DeviceTA{cfg: cfg}
	t.group = t.one[:]
	if err := t.initPipeline(p.name, &t.cfg); err != nil {
		return nil, err
	}
	t.initLifecycle(p, &t.cfg)
	return t, nil
}

// Open implements optee.TA. The TA is a single multi-session instance:
// the first session starts the profile's capture stream (a speaker's,
// through the driver PTA); further sessions (a management session
// attesting or updating the model while a processing session is live)
// share the running instance, and the stream stops only when the last
// session closes. The refcount slot is reserved before the side effects,
// so an interleaved Close of another session can never observe a zero
// count while this one is opening. Classifier unsealing is deferred to
// first classify (loadedClassifier), keeping management sessions
// lightweight.
func (t *DeviceTA) Open(sessionID uint32) error {
	t.mu.Lock()
	t.opens++
	first := t.opens == 1
	t.mu.Unlock()
	if first && t.profile.streamPTA != "" {
		if err := t.cfg.TEE.InvokeSecure(t.profile.streamPTA, CmdPTAStart, nil); err != nil {
			t.mu.Lock()
			t.opens--
			t.mu.Unlock()
			return fmt.Errorf("%s pta start: %w", t.profile.name, err)
		}
	}
	return nil
}

// Close implements optee.TA: the last session stops the capture stream.
func (t *DeviceTA) Close(sessionID uint32) {
	t.mu.Lock()
	if t.opens > 0 {
		t.opens--
	}
	last := t.opens == 0
	t.mu.Unlock()
	if last && t.profile.streamPTA != "" {
		_ = t.cfg.TEE.InvokeSecure(t.profile.streamPTA, CmdPTAStop, nil)
	}
}

// relayGroup is a group's last step: the profile's relay policy over
// each classified record, sealing a survivor through relayEvent; each
// relay is timed, and the group is recorded as processed.
func (t *DeviceTA) relayGroup(recs []ItemRecord) error {
	for i := range recs {
		start := t.cfg.Clock.Now()
		if err := t.profile.stages.relay(t, i, &recs[i]); err != nil {
			return fmt.Errorf("item %d: %w", i, err)
		}
		recs[i].Stages.Relay = t.cfg.Clock.Now() - start
	}
	t.record(recs...)
	return nil
}

// Invoke implements optee.TA.
func (t *DeviceTA) Invoke(sessionID uint32, cmd uint32, params *optee.Params) error {
	switch cmd {
	case CmdProcessItem:
		if params[0].Type != optee.ValueIn {
			return fmt.Errorf("%w: CmdProcessItem needs ValueIn bytes", optee.ErrBadParam)
		}
		if err := checkGroupBytes(params[0].A); err != nil {
			return err
		}
		if err := t.profile.stages.checkItem(params[0].A); err != nil {
			return err
		}
		t.oneLen[0] = int(params[0].A)
		recs, err := t.processBatch(t.oneLen[:])
		if err != nil {
			return err
		}
		tally(recs, &params[1])
		return nil
	case CmdProcessBatch:
		lengths, err := t.decodeLengths(params[0])
		if err != nil {
			return fmt.Errorf("CmdProcessBatch: %w", err)
		}
		recs, err := t.processBatch(lengths)
		if err != nil {
			return err
		}
		tally(recs, &params[1])
		return nil
	case CmdTranscribeBatch:
		if t.profile.stages.encode == nil {
			return t.unstaged()
		}
		lengths, err := t.decodeLengths(params[0])
		if err != nil {
			return fmt.Errorf("CmdTranscribeBatch: %w", err)
		}
		if err := t.transcribeBatch(lengths); err != nil {
			return err
		}
		params[1].Type = optee.ValueOut
		params[1].A = uint64(len(lengths))
		return nil
	case CmdResumeBatch:
		if t.profile.stages.encode == nil {
			return t.unstaged()
		}
		if params[0].Type != optee.MemrefIn || len(params[0].Buf) == 0 || len(params[0].Buf)%5 != 0 {
			return fmt.Errorf("%w: CmdResumeBatch needs MemrefIn of 5-byte verdicts", optee.ErrBadParam)
		}
		if params[1].Type != optee.ValueIn {
			return fmt.Errorf("%w: CmdResumeBatch needs ValueIn wait cycles", optee.ErrBadParam)
		}
		recs, err := t.resumeBatch(params[0].Buf, tz.Cycles(params[1].A))
		if err != nil {
			return err
		}
		tally(recs, &params[2])
		return nil
	case CmdResumeBatchHE:
		if params[0].Type != optee.MemrefIn || len(params[0].Buf) == 0 {
			return fmt.Errorf("%w: CmdResumeBatchHE needs MemrefIn ciphertext blobs", optee.ErrBadParam)
		}
		blobs, err := splitLengthPrefixed(params[0].Buf)
		if err != nil {
			return fmt.Errorf("%w: CmdResumeBatchHE: %v", optee.ErrBadParam, err)
		}
		recs, err := t.resumeBatchHE(blobs, params[1])
		if err != nil {
			return err
		}
		tally(recs, &params[2])
		return nil
	default:
		return t.invokeLifecycle(cmd, params)
	}
}

// unstaged is the rejection of a staged command on a TA whose
// peripheral stages no group.
func (t *DeviceTA) unstaged() error {
	return fmt.Errorf("%w: %s stages no group", optee.ErrBadState, t.profile.name)
}

// checkGroupBytes bounds one group's total wire bytes by the controller
// FIFO. The normal world pumps a whole group into the FIFO before the TA
// drains it, so a larger group cannot be captured; it is rejected before
// capture reserves a buffer for it.
func checkGroupBytes(total uint64) error {
	if total > ControllerFIFOBytes {
		return fmt.Errorf("%w: group of %d wire bytes exceeds the %d-byte controller FIFO",
			optee.ErrBadParam, total, ControllerFIFOBytes)
	}
	return nil
}

// decodeLengths parses a group's MemrefIn table of little-endian uint32
// item byte lengths, checking each against the peripheral.
func (t *DeviceTA) decodeLengths(p optee.Param) ([]int, error) {
	if p.Type != optee.MemrefIn || len(p.Buf) == 0 || len(p.Buf)%4 != 0 {
		return nil, fmt.Errorf("%w: needs MemrefIn of uint32 lengths", optee.ErrBadParam)
	}
	if n := len(p.Buf) / 4; n > MaxBatch {
		return nil, fmt.Errorf("%w: batch of %d exceeds MaxBatch %d", optee.ErrBadParam, n, MaxBatch)
	}
	lengths := make([]int, len(p.Buf)/4)
	var total uint64
	for i := range lengths {
		n := binary.LittleEndian.Uint32(p.Buf[4*i:])
		if err := t.profile.stages.checkItem(uint64(n)); err != nil {
			return nil, err
		}
		lengths[i] = int(n)
		total += uint64(n)
	}
	if err := checkGroupBytes(total); err != nil {
		return nil, err
	}
	return lengths, nil
}

// tally writes a processed group's outcome to the caller's ValueOut
// slot: A = forwarded count, B = total redacted tokens.
func tally(recs []ItemRecord, out *optee.Param) {
	*out = optee.Param{Type: optee.ValueOut}
	for _, rec := range recs {
		if rec.Forwarded {
			out.A++
		}
		out.B += uint64(rec.Redacted)
	}
}

// scratchGroup returns the TA's inline group records for n items,
// zeroed.
func (t *DeviceTA) scratchGroup(n int) []ItemRecord {
	if cap(t.group) < n {
		t.group = make([]ItemRecord, n)
	}
	recs := t.group[:n]
	clear(recs)
	return recs
}

// processBatch runs a group of items through the whole pipeline in one
// invocation: capture and featurize each, classify them all in one
// batched forward pass, then relay the survivors. The caller paid one
// world-switch round trip for the whole group instead of one per item.
// The classifier is loaded before capture drains the peripheral, so a
// TA that cannot classify inline (ErrBadState on a shared-classify TA)
// rejects the group with its items still queued.
func (t *DeviceTA) processBatch(lengths []int) ([]ItemRecord, error) {
	var clf *classify.Classifier
	if t.cfg.Filter {
		var err error
		if clf, err = t.loadedClassifier(); err != nil {
			return nil, err
		}
	}
	recs := t.scratchGroup(len(lengths))
	if err := t.profile.stages.capture(t, recs, lengths); err != nil {
		return nil, err
	}
	if clf != nil {
		for len(t.batch) < len(recs) {
			t.batch = append(t.batch, nil)
		}
		batch := t.batch[:len(recs)]
		t.profile.stages.featurize(t, clf, recs, batch)
		if err := t.classifyInline(clf, recs, batch); err != nil {
			return nil, err
		}
	}
	return recs, t.relayGroup(recs)
}

// transcribeBatch captures and transcribes a group and stages it with
// its encoded tokens for an external classification, leaving the
// invocation parked instead of running the filter inline. The split is
// what lets an event-driven caller release its executor while a
// cross-device flush forms.
func (t *DeviceTA) transcribeBatch(lengths []int) error {
	if !t.cfg.Filter {
		return fmt.Errorf("%w: %s staged transcribe requires the filter", optee.ErrBadState, t.profile.name)
	}
	t.mu.Lock()
	busy := len(t.pendingRecs) > 0
	t.mu.Unlock()
	if busy {
		return fmt.Errorf("%w: %s staged batch already pending", optee.ErrBadState, t.profile.name)
	}
	recs := make([]ItemRecord, len(lengths))
	if err := t.profile.stages.capture(t, recs, lengths); err != nil {
		return err
	}
	tokens := make([][]int, len(recs))
	for i := range recs {
		tokens[i] = t.profile.stages.encode(t, &recs[i])
	}
	t.mu.Lock()
	t.pendingRecs, t.pendingTokens = recs, tokens
	t.mu.Unlock()
	return nil
}

// takePending completes the staged group with n verdicts: classify fills
// in the records' verdicts, and only once it succeeds is the group
// released and relayed. A resume with the wrong verdict count, or one classify
// rejects, leaves the group staged for a well-formed retry.
func (t *DeviceTA) takePending(n int, classify func([]ItemRecord) error) ([]ItemRecord, error) {
	t.mu.Lock()
	recs := t.pendingRecs
	t.mu.Unlock()
	if len(recs) == 0 {
		return nil, fmt.Errorf("%w: %s has no staged batch pending", optee.ErrBadState, t.profile.name)
	}
	if n != len(recs) {
		return nil, fmt.Errorf("%w: resume carries %d verdicts for %d staged items",
			optee.ErrBadParam, n, len(recs))
	}
	if err := classify(recs); err != nil {
		return nil, err
	}
	t.mu.Lock()
	t.pendingRecs, t.pendingTokens = nil, nil
	t.mu.Unlock()
	return recs, t.relayGroup(recs)
}

// resumeBatch completes a staged group with the shared classifier's
// verdicts, 5 bytes per item (flag byte + little-endian uint32 flush
// occupancy), and the virtual cycles the classification waited (the
// shared passes overlapped — the wait is when the last one returned).
// The wait is batch-level work, attributed evenly like the inline
// batched pass.
func (t *DeviceTA) resumeBatch(verdicts []byte, wait tz.Cycles) ([]ItemRecord, error) {
	return t.takePending(len(verdicts)/5, func(recs []ItemRecord) error {
		t.cfg.Clock.Advance(wait)
		for i := range recs {
			v := verdicts[5*i:]
			recs[i].Flagged = v[0] != 0
			recs[i].ClassifyBatch = int(binary.LittleEndian.Uint32(v[1:]))
			recs[i].Stages.Classify = wait / tz.Cycles(len(recs))
		}
		return nil
	})
}

// resumeBatchHE is the HE→TEE handoff: the back half of a group whose
// classifier's first linear layer already ran homomorphically at the
// provider. The group is the one the TA staged, or, for a peripheral
// the normal world captures for the handoff, the items handed in with
// it. The TA decrypts each provider-evaluated ciphertext under the
// sealed secret key, runs the non-linear tail (ReLU → pool → dense →
// argmax) inside the TEE, then relays survivors through the same
// policy/seal path as every other mode.
func (t *DeviceTA) resumeBatchHE(blobs [][]byte, items optee.Param) ([]ItemRecord, error) {
	if t.profile.stages.handIn == nil {
		return t.takePending(len(blobs), func(recs []ItemRecord) error {
			return t.classifyHE(&t.taLifecycle, recs, blobs)
		})
	}
	if err := t.profile.stages.handIn(t, len(blobs), items); err != nil {
		return nil, err
	}
	recs := t.scratchGroup(len(blobs))
	if err := t.classifyHE(&t.taLifecycle, recs, blobs); err != nil {
		return nil, err
	}
	return recs, t.relayGroup(recs)
}

// splitLengthPrefixed splits the MemrefIn wire form of the HE handoff
// commands, little-endian uint32 byte lengths each followed by that many
// bytes, into its blobs. The blobs alias buf.
func splitLengthPrefixed(buf []byte) ([][]byte, error) {
	var out [][]byte
	for len(buf) > 0 {
		if len(buf) < 4 {
			return nil, fmt.Errorf("truncated length prefix (%d bytes)", len(buf))
		}
		n := int(binary.LittleEndian.Uint32(buf))
		buf = buf[4:]
		if n <= 0 || n > len(buf) {
			return nil, fmt.Errorf("blob length %d of %d remaining", n, len(buf))
		}
		out = append(out, buf[:n])
		buf = buf[n:]
	}
	if len(out) == 0 {
		return nil, errors.New("no blobs")
	}
	return out, nil
}

// PendingTokens returns copies of the encoded token sequences staged by
// CmdTranscribeBatch and awaiting classification (empty when nothing is
// pending). Token IDs are vocabulary-clamped in the TA, never transcript
// words, so handing them to the shared scheduler keeps the trust
// boundary.
func (t *DeviceTA) PendingTokens() [][]int {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([][]int, len(t.pendingTokens))
	for i, seq := range t.pendingTokens {
		out[i] = append([]int(nil), seq...)
	}
	return out
}

// voiceStages are a speaker's: audio read through the driver PTA,
// in-TEE MFCC and ASR, the token-sequence text classifier, and the
// speaker's filter policy over the transcript.
var voiceStages = taStages{
	checkItem: checkUtteranceBytes,
	capture:   (*DeviceTA).captureUtterances,
	featurize: (*DeviceTA).tokenFeatures,
	encode:    (*DeviceTA).encodeTranscript,
	loadClassifier: func(cfg *TAConfig, blob []byte) (*classify.Classifier, error) {
		return classify.LoadText(blob, cfg.Vocab.Size(), TextSeqLen)
	},
	relay: (*DeviceTA).relayTranscript,
}

// checkUtteranceBytes rejects an utterance length that is not a whole
// number of I2S wire frames. Capture would drain the FIFO and only then
// fail to decode, so the length is checked before any byte is pulled.
func checkUtteranceBytes(n uint64) error {
	if frame := uint64(i2s.DefaultFormat().FrameBytes()); n%frame != 0 {
		return fmt.Errorf("%w: utterance of %d wire bytes is not a whole number of %d-byte frames",
			optee.ErrBadParam, n, frame)
	}
	return nil
}

// taScratch is the reusable buffer set for one in-flight TA
// invocation: capture accumulation, the PTA read chunk and its
// parameters, the decode pipeline's sample buffers, and the relay's
// encoded event, sealed frame and opened directive. Leased so the
// batched path (CmdProcessBatch) processes every queued utterance, and
// the relay seals every event, without per-item heap allocation,
// whichever TA instance (device) is running — the list is package-level
// because fleet devices process in bounded worker pools, so a handful
// of scratch sets serves thousands of devices.
type taScratch struct {
	pcmBytes []byte
	chunk    []byte
	read     optee.Params
	samples  []int32
	floats   []float64

	event     []byte
	sealed    []byte
	directive []byte
}

var taScratchFree = lease.FreeList[*taScratch]{
	New: func() *taScratch { return &taScratch{chunk: make([]byte, 4096)} },
}

// captureUtterances is a speaker's capture stage: capture and transcribe
// each utterance of a group over one leased scratch set, so a group does
// not allocate capture or decode buffers per item.
func (t *DeviceTA) captureUtterances(recs []ItemRecord, lengths []int) error {
	clock := t.cfg.Clock
	sc := taScratchFree.Get()
	defer taScratchFree.Put(sc)
	for i, wantBytes := range lengths {
		start := clock.Now()
		pcmBytes, err := t.captureStage(sc, wantBytes)
		if err != nil {
			return fmt.Errorf("utterance %d: %w", i, err)
		}
		recs[i].Stages.Capture = clock.Now() - start

		start = clock.Now()
		words, err := t.transcribeStage(sc, pcmBytes)
		if err != nil {
			return fmt.Errorf("utterance %d: %w", i, err)
		}
		recs[i].Transcript = words
		recs[i].Stages.Transcribe = clock.Now() - start
	}
	return nil
}

// captureStage pulls wantBytes of wire audio through the PTA into
// TA-private buffers (Fig. 1 step 4). The returned slice belongs to the
// scratch set and is valid until the scratch is released.
func (t *DeviceTA) captureStage(sc *taScratch, wantBytes int) ([]byte, error) {
	if cap(sc.pcmBytes) < wantBytes {
		sc.pcmBytes = make([]byte, 0, wantBytes)
	}
	pcmBytes := sc.pcmBytes[:0]
	idle := 0
	for len(pcmBytes) < wantBytes {
		p := &sc.read
		*p = optee.Params{
			{Type: optee.MemrefOut, Buf: sc.chunk[:min(len(sc.chunk), wantBytes-len(pcmBytes))]},
			{},
		}
		if err := t.cfg.TEE.InvokeSecure(UUIDDriverPTA, CmdPTARead, p); err != nil {
			return nil, fmt.Errorf("voice ta pta read: %w", err)
		}
		n := int(p[1].A)
		if n == 0 {
			idle++
			if idle > 1000 {
				// The normal world declared more audio than it pumped
				// into the FIFO.
				return nil, fmt.Errorf("%w: voice ta capture stalled at %d/%d bytes",
					optee.ErrBadParam, len(pcmBytes), wantBytes)
			}
			continue
		}
		idle = 0
		pcmBytes = append(pcmBytes, p[0].Buf[:n]...)
	}
	sc.pcmBytes = pcmBytes
	return pcmBytes, nil
}

// transcribeStage decodes the wire bytes and runs the in-TEE recognizer
// (Fig. 1 step 5). The recognizer's arithmetic is charged as the MFCC
// front end (FFT + filterbank + DCT per 10 ms hop, ~6k cycles/frame on a
// NEON-class core) plus template matching.
func (t *DeviceTA) transcribeStage(sc *taScratch, pcmBytes []byte) ([]string, error) {
	samples, err := i2s.DecodeFramesInto(sc.samples, pcmBytes, i2s.DefaultFormat())
	if err != nil {
		return nil, fmt.Errorf("voice ta decode: %w", err)
	}
	sc.samples = samples
	if cap(sc.floats) < len(samples) {
		sc.floats = make([]float64, len(samples))
	}
	floats := sc.floats[:len(samples)]
	for i, s := range samples {
		// int16 truncation then the FromInt16 scaling of the historical
		// decode path, fused into one pass over leased scratch.
		floats[i] = float64(int16(s)) / 32768
	}
	pcm := audio.PCM{Rate: 16000, Samples: floats}
	words, err := t.cfg.Recognizer.TranscribeWords(pcm)
	if err != nil {
		return nil, fmt.Errorf("voice ta asr: %w", err)
	}
	frames := len(pcm.Samples) / 160
	t.cfg.Clock.Advance(tz.Cycles(frames)*6000 + tz.Cycles(t.cfg.Recognizer.MemoryBytes()/8))
	return words, nil
}

// encodeTranscript is the vocabulary-clamped token sequence of an
// utterance's transcript.
func (t *DeviceTA) encodeTranscript(rec *ItemRecord) []int {
	return t.cfg.Vocab.Encode(rec.Transcript)
}

// tokenFeatures is a speaker's featurize stage: each transcript's
// encoded tokens as the text classifier's input.
func (t *DeviceTA) tokenFeatures(clf *classify.Classifier, recs []ItemRecord, batch [][]float32) {
	for i := range recs {
		batch[i] = clf.TokensToFeatures(t.encodeTranscript(&recs[i]))
	}
}

// relayTranscript applies the speaker's filter policy and relays a
// surviving transcript sealed (Fig. 1 steps 6–7).
func (t *DeviceTA) relayTranscript(_ int, rec *ItemRecord) error {
	policy := t.cfg.Policy
	if !t.cfg.Filter {
		policy = relay.PolicyPassThrough
	}
	result, err := relay.ApplyPolicy(policy, rec.Flagged, rec.Transcript)
	if err != nil {
		return err
	}
	rec.Redacted = result.Redacted
	if !result.Forward {
		return nil
	}
	return t.relayEvent(relay.Event{
		Namespace:  relay.NamespaceSpeech,
		Name:       relay.NameTranscript,
		Transcript: result.Tokens,
		Redacted:   result.Redacted,
	}, &rec.RelayOutcome)
}
