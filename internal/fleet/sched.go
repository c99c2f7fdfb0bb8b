package fleet

// Cross-device scheduler wiring: SchedSpec turns the per-device classify
// stage of every secure-filter speaker into a submission to one shared
// internal/sched scheduler. The fleet owns the per-model-version shared
// classifiers, each built by classify.LoadText from the weights blob that
// version provisions (the bytes a device would have sealed, so its
// verdicts are bit-identical), wires the ingest tier's queue utilization
// in as the scheduler's backpressure gauge, and folds the scheduler's
// flush statistics into the run result.

import (
	"fmt"
	"sync"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/ml/classify"
	"repro/internal/sched"
	"repro/internal/sensitive"
	"repro/internal/tz"
)

// SchedSpec enables the shared cross-device TEE inference scheduler.
// Nil keeps the per-device classify path.
type SchedSpec struct {
	// Batch is the cross-device flush size (items per shared forward
	// pass); default core.MaxBatch. Requesting more than core.MaxBatch
	// is ErrBadConfig — the cap is surfaced, never silently applied.
	Batch int
	// MaxAge is the deadline in virtual cycles a queued utterance may
	// wait before its queue flushes regardless of occupancy; default
	// sched.DefaultMaxAge.
	MaxAge tz.Cycles
}

func (s *SchedSpec) fillDefaults(deviceBatch int) error {
	if s.Batch == 0 {
		s.Batch = core.MaxBatch
	}
	if s.Batch < 0 || s.Batch > core.MaxBatch {
		return fmt.Errorf("%w: scheduler batch %d (core.MaxBatch is %d)",
			ErrBadConfig, s.Batch, core.MaxBatch)
	}
	if deviceBatch > s.Batch {
		return fmt.Errorf("%w: device batch %d exceeds scheduler batch %d (a device's queue must fit one flush)",
			ErrBadConfig, deviceBatch, s.Batch)
	}
	if s.MaxAge < 0 {
		return fmt.Errorf("%w: scheduler max age %d", ErrBadConfig, s.MaxAge)
	}
	if s.MaxAge == 0 {
		s.MaxAge = sched.DefaultMaxAge
	}
	return nil
}

// SchedReport summarizes the scheduler's behavior over one run.
type SchedReport struct {
	// Batch and MaxAge echo the effective scheduler config.
	Batch  int
	MaxAge tz.Cycles
	// Flushes tallies flush count by reason (full/age/idle/drain).
	Flushes map[string]uint64
	// Batches and Items are totals; MeanOccupancy = Items/Batches over
	// every flush, end-of-run drain flushes (size 0–1) included — which
	// understates steady-state occupancy. MeanOccupancySteady excludes
	// the drain tail (DrainBatches flushes carrying DrainItems items) and
	// is the figure to compare across scheduling modes; it falls back to
	// the raw mean when a run was all drain (nothing ever flushed on
	// full/age/idle).
	Batches             uint64
	Items               uint64
	MeanOccupancy       float64
	MeanOccupancySteady float64
	DrainBatches        uint64
	DrainItems          uint64
	MaxOccupancy        int
	// ItemsByVersion splits classified items per model version — a
	// rollout's canary cohort batches separately from the stable cohort.
	ItemsByVersion map[uint64]uint64
	// MixedVersionFlushes must be 0: no flush ever spans model versions.
	MixedVersionFlushes uint64
	// PressureFlushes counts deadline flushes cut early because the
	// ingest tier's queue utilization was above the admission policy's
	// high-water mark.
	PressureFlushes uint64
}

// versionClassifier is one shared per-version classifier. PredictBatch
// mutates layer activation state, so flushes of the same version that
// executors run at once serialize on the slot lock (flushes of different
// versions run in parallel).
type versionClassifier struct {
	mu  sync.Mutex
	clf *classify.Classifier
}

// schedControl owns the run's scheduler and the executor's per-version
// shared classifiers. Devices submit to the scheduler from the fleet
// engine (see asyncEngine.captureOrFinish).
type schedControl struct {
	scheduler *sched.Scheduler
	vocab     *sensitive.Vocabulary
	rootSeed  uint64 // versions 0 and 1 run this seed's memoized blob

	mu      sync.Mutex
	weights map[uint64][]byte // model version -> weights blob
	clfs    map[uint64]*versionClassifier
}

// newSchedControl builds the scheduler for one run. Version weights
// mirror provisioning exactly: the base population runs the root seed's
// memoized blob (versions 0 and 1, the blob Pretrain warmed and every
// device seals), and a staged rollout's target version runs its pack's
// text weights.
func newSchedControl(cfg Config, st *attestState, router *cloud.Router) (*schedControl, error) {
	sc := &schedControl{
		vocab:    sensitive.NewVocabulary(),
		rootSeed: cfg.Seed,
		weights:  make(map[uint64][]byte),
		clfs:     make(map[uint64]*versionClassifier),
	}
	if st != nil && st.rollout != nil {
		sc.weights[st.next.Version] = st.next.Text
	}
	// Backpressure gauge: the worst bulk-lane queue utilization across
	// the ring's live shards, the same signal the admission policy sheds
	// on. A shard a rebalance adds counts from then on; a drained one no
	// longer does.
	s, err := sched.New(sched.Config{
		Batch:  cfg.Sched.Batch,
		MaxAge: cfg.Sched.MaxAge,
		Pressured: func() bool {
			return router.Utilization() >= cloud.DefaultHighWater
		},
	}, sc.execute)
	if err != nil {
		return nil, err
	}
	sc.scheduler = s
	return sc, nil
}

// classifierFor returns (building on first use) the shared classifier
// for a model version, loaded from that version's weights blob.
func (sc *schedControl) classifierFor(version uint64) (*versionClassifier, error) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if vc, ok := sc.clfs[version]; ok {
		return vc, nil
	}
	blob, ok := sc.weights[version]
	if !ok && version <= 1 {
		// Fetched on first use, so a population with no secure-filter
		// speaker trains no text model.
		var err error
		if blob, err = core.DefaultTextWeights(sc.vocab, sc.rootSeed); err != nil {
			return nil, fmt.Errorf("fleet sched: base weights: %w", err)
		}
		sc.weights[0], sc.weights[1] = blob, blob
		ok = true
	}
	if !ok {
		return nil, fmt.Errorf("fleet sched: no model provisioned for version %d", version)
	}
	clf, err := classify.LoadText(blob, sc.vocab.Size(), core.TextSeqLen)
	if err != nil {
		return nil, fmt.Errorf("fleet sched: version %d classifier: %w", version, err)
	}
	vc := &versionClassifier{clf: clf}
	sc.clfs[version] = vc
	return vc, nil
}

// execute is the scheduler's executor: one shared forward pass over a
// single version's flush, charged at the same 4 MACs/cycle the
// per-device TA path charges.
func (sc *schedControl) execute(version uint64, items [][]int) ([]bool, tz.Cycles, error) {
	vc, err := sc.classifierFor(version)
	if err != nil {
		return nil, 0, err
	}
	vc.mu.Lock()
	defer vc.mu.Unlock()
	batch := make([][]float32, len(items))
	for i, toks := range items {
		batch[i] = vc.clf.TokensToFeatures(toks)
	}
	classes, err := vc.clf.PredictBatch(batch)
	if err != nil {
		return nil, 0, fmt.Errorf("fleet sched classify: %w", err)
	}
	flagged := make([]bool, len(classes))
	for i, cls := range classes {
		flagged[i] = cls == 1
	}
	return flagged, tz.Cycles(vc.clf.EstimateMACs() * len(items) / 4), nil
}

// report drains the scheduler and snapshots its statistics.
func (sc *schedControl) report(spec *SchedSpec) *SchedReport {
	st := sc.scheduler.Stats()
	rep := &SchedReport{
		Batch:               spec.Batch,
		MaxAge:              spec.MaxAge,
		Flushes:             st.Flushes,
		Batches:             st.Batches,
		Items:               st.Items,
		DrainBatches:        st.DrainBatches,
		DrainItems:          st.DrainItems,
		MaxOccupancy:        st.MaxOccupancy,
		ItemsByVersion:      st.ItemsByVersion,
		MixedVersionFlushes: st.MixedVersionFlushes,
		PressureFlushes:     st.PressureFlushes,
	}
	if st.Batches > 0 {
		rep.MeanOccupancy = float64(st.Items) / float64(st.Batches)
		rep.MeanOccupancySteady = rep.MeanOccupancy
	}
	if steady := st.Batches - st.DrainBatches; steady > 0 {
		rep.MeanOccupancySteady = float64(st.Items-st.DrainItems) / float64(steady)
	}
	return rep
}
