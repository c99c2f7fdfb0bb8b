package fleet

// Attested fleet handshakes and online model rollout. With Config.Attest
// the run enrolls every device's derived attestation key with a
// cloud-side verifier, installs the verifier as the ingest tier's
// admission gate, and has each device produce TA-signed evidence before
// its endpoint joins the ring — so a frame from a device that never
// attested (or that attested with a stale model) is rejected at the
// shard frontend without touching an endpoint. With Config.Rollout the
// provider additionally publishes a version-2 model pack behind a canary
// quota: the first cohort of secure devices updates (manifest-verified,
// sealed, hot-swapped in the TA) before processing, a stable cohort
// processes on the base pack meanwhile (then parks on the rollout's
// verdict, not holding an executor), and once every canary device has
// completed successfully the rollout opens and the whole fleet converges
// on the new version. Both cohorts are fixed by admission order (see
// stage), so which pack each device classifies on never depends on
// executor timing.

import (
	"fmt"
	"sync"

	"errors"

	"repro/internal/attest"
	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sensitive"
)

// RolloutSpec stages an online model rollout during the run. The
// published version-2 pack is trained on a seed derived from the root
// seed via core.SaltModelRollout.
type RolloutSpec struct {
	// CanaryFraction of the secure (model-bearing) population updates
	// first; default 0.1, clamped to (0, 1].
	CanaryFraction float64
}

// RolloutReport summarizes a staged rollout after the run.
type RolloutReport struct {
	BaseVersion uint64
	ToVersion   uint64
	// Canary is the canary-cohort size the rollout was staged behind
	// (counted over the devices that actually run the classifier).
	Canary int
	// Converged reports whether every model-bearing device finished the
	// run attested at ToVersion.
	Converged bool
	// MinVersion is the fleet minimum the verifier enforces at ingest
	// after the rollout opened (0 if the rollout never completed).
	MinVersion uint64
	// AbortReason is why the rollout aborted ("" if it was never
	// aborted, or aborted only after opening fleet-wide).
	AbortReason string
	// Rollbacks records every device held on (or returned to) the base
	// pack because the rollout aborted — the structured trail an aborted
	// rollout must leave instead of a silently stale fleet.
	Rollbacks []RollbackRecord
}

// RollbackRecord attributes one device's stale pack to a rollout abort.
type RollbackRecord struct {
	// Device is the affected device ID.
	Device string
	// FromVersion is the pack version the device stays on;
	// ToVersion the version it was destined for.
	FromVersion, ToVersion uint64
	// Reason is the rollout's abort reason.
	Reason string
}

// attestState bundles the run's attestation/rollout machinery. Exactly
// one of verifier (single trust root) and fed (per-tenant federation) is
// non-nil; authority() routes every control-plane call to the right
// verifier by the device's tenant label.
type attestState struct {
	verifier *attest.Verifier
	fed      *attest.Federation
	rollout  *attest.Rollout
	canary   int
	// stable holds the device indexes of the stable cohort (see stage).
	stable map[int]bool
	base   attest.Pack
	next   attest.Pack
	// Pack digests are computed once per immutable pack, not once per
	// device, and reused for every per-device manifest.
	baseDigest attest.Digest
	nextDigest attest.Digest
	// tracer counts attestation verbs (nil on untraced runs; every
	// method on a nil tracer no-ops).
	tracer *obs.Tracer

	mu        sync.Mutex
	rollbacks []RollbackRecord
}

// authority returns the verifier owning the tenant (the single verifier
// on non-federated runs).
func (st *attestState) authority(tenant string) *attest.Verifier {
	if st.fed != nil {
		return st.fed.Tenant(tenant)
	}
	return st.verifier
}

// gate returns the ingest admission gate: the federation on federated
// runs (per-frame routing by FrameMeta.Tenant), the verifier otherwise.
func (st *attestState) gate() cloud.AdmissionGate {
	if st.fed != nil {
		return st.fed
	}
	return st.verifier
}

// eachAuthority visits every verifier (all tenants, or the single one).
func (st *attestState) eachAuthority(fn func(v *attest.Verifier)) {
	if st.fed == nil {
		fn(st.verifier)
		return
	}
	for _, t := range st.fed.Tenants() {
		fn(st.fed.Tenant(t))
	}
}

// setMinVersion raises the ingest floor on every authority.
func (st *attestState) setMinVersion(v uint64) {
	st.eachAuthority(func(a *attest.Verifier) { a.SetMinVersion(v) })
}

// attestedCount sums attested devices across authorities.
func (st *attestState) attestedCount() int {
	if st.fed != nil {
		return st.fed.AttestedCount()
	}
	return st.verifier.AttestedCount()
}

// versionCounts merges the per-authority model-version tallies.
func (st *attestState) versionCounts() map[uint64]int {
	out := make(map[uint64]int)
	st.eachAuthority(func(a *attest.Verifier) {
		for v, n := range a.VersionCounts() {
			out[v] += n
		}
	})
	return out
}

// epochCounts merges the per-authority key-epoch tallies.
func (st *attestState) epochCounts() map[uint64]int {
	out := make(map[uint64]int)
	st.eachAuthority(func(a *attest.Verifier) {
		for e, n := range a.EpochCounts() {
			out[e] += n
		}
	})
	return out
}

// newAttestState enrolls the population's keys, builds the verifier —
// or, on federated runs, one verifier per tenant plus an admit-nothing
// fallback for unlabelled traffic — and the measurement policy, and,
// when a rollout is staged, trains and publishes the packs. Pack
// training hits the same shared-model caches the device constructors
// use, so it belongs to the build phase.
func newAttestState(cfg Config, specs []core.DeviceSpec) (*attestState, error) {
	keys := make(map[string]attest.DeviceKey, len(specs))
	for i := range specs {
		keys[specs[i].DeviceID] = attest.KeyFromSeed(specs[i].AttestKeySeed)
	}
	lookup := func(id string) (attest.DeviceKey, bool) {
		k, ok := keys[id]
		return k, ok
	}
	allow := func(v *attest.Verifier) {
		v.AllowMeasurement(core.VoiceTADigest, true)
		v.AllowMeasurement(core.CameraTADigest, true)
		v.AllowMeasurement(core.BaselineAgentDigest, false)
	}

	st := &attestState{}
	if cfg.Federate {
		// The fallback admits nothing: a frame with no tenant label (or a
		// label no tenant claims) is rejected as unattested rather than
		// silently judged under someone else's policy.
		st.fed = attest.NewFederation(nil)
		for t := 0; t < cfg.Tenants; t++ {
			v := attest.NewVerifier(cfg.Seed, lookup)
			allow(v)
			st.fed.AddTenant(tenantName(t), v)
		}
	} else {
		st.verifier = attest.NewVerifier(cfg.Seed, lookup)
		allow(st.verifier)
	}
	if cfg.Rollout == nil {
		return st, nil
	}
	// Train only the classifier classes the population actually runs:
	// an all-speaker fleet must not pay for an image model (and vice
	// versa). Mirrors the kind/mode logic in core.Pretrain. The same
	// scan sizes the canary cohort over the devices that *exercise* the
	// classifier — a secure-nofilter speaker updating successfully says
	// nothing about the new model, so it cannot hold a canary slot.
	needText, needImage := false, false
	exercising := 0
	for i := range specs {
		if specs[i].Mode != core.ModeSecureFilter {
			continue
		}
		exercising++
		switch specs[i].Kind {
		case core.DeviceSpeaker:
			needText = true
		case core.DeviceDoorbell:
			needImage = true
		}
	}
	base, err := buildPack(1, cfg.Seed, needText, needImage)
	if err != nil {
		return nil, fmt.Errorf("fleet rollout: base pack: %w", err)
	}
	next, err := buildPack(2, core.DeriveSeed(cfg.Seed, core.SaltModelRollout, 2), needText, needImage)
	if err != nil {
		return nil, fmt.Errorf("fleet rollout: next pack: %w", err)
	}
	st.base, st.next = base, next
	st.baseDigest, st.nextDigest = base.Digest(), next.Digest()
	st.canary = int(float64(exercising)*cfg.Rollout.CanaryFraction + 0.5)
	if st.canary < 1 && exercising > 0 {
		st.canary = 1
	}
	if st.canary > exercising {
		st.canary = exercising
	}
	st.rollout = attest.NewRollout(base)
	if err := st.rollout.Publish(next, st.canary); err != nil {
		return nil, fmt.Errorf("fleet rollout: %w", err)
	}
	return st, nil
}

// buildPack fetches (training on first use) the memoized classifier
// weights for a pack version; payload classes the population does not
// run stay empty. The fleet population runs the default text classifier
// and the standard image classifier: the same blobs Pretrain warms and
// devices seal.
func buildPack(version, modelSeed uint64, needText, needImage bool) (attest.Pack, error) {
	pack := attest.Pack{Version: version, ModelSeed: modelSeed}
	var err error
	if needText {
		if pack.Text, err = core.DefaultTextWeights(sensitive.NewVocabulary(), modelSeed); err != nil {
			return attest.Pack{}, err
		}
	}
	if needImage {
		if pack.Image, err = core.ImageWeights(modelSeed); err != nil {
			return attest.Pack{}, err
		}
	}
	return pack, nil
}

// manifest signs the per-device token for one of the run's two packs,
// reusing the digest computed once at publish time. The token comes
// from the device's own authority, so it is MACed under the key epoch
// that authority currently expects of the device.
func (st *attestState) manifest(id, tenant string, pack attest.Pack) (attest.ManifestToken, error) {
	d := st.nextDigest
	if pack.Version == st.base.Version {
		d = st.baseDigest
	}
	return st.authority(tenant).ManifestForDigest(id, pack.Version, d)
}

// maxStableCohort caps the stable cohort. A handful of devices is enough
// to exercise the held-then-converged path and the base-version
// scheduler queue; the cap keeps the pipelines parked on the verdict
// independent of the population size.
const maxStableCohort = 8

// stage fixes the rollout's cohorts from the admission order and returns
// the verdict point: the admission position the engine pauses at until
// the canary verdict. Counting staged (secure-filter) devices in order,
// the first st.canary are the canaries, which ask for their target at
// setup and are granted the new pack. The next min(st.canary,
// maxStableCohort) form the stable cohort: they skip the target at setup,
// process on the base pack they were built with, then park on the
// verdict and converge. The verdict point follows the stable cohort, so
// every later device provisions after the verdict, on the new pack if
// the rollout opened or on the base pack (with a rollback record) if it
// aborted. No other staged device asks for a target before the verdict,
// so the canary grants, and with them every device's pack, are a
// function of the plan, not of executor timing.
func (st *attestState) stage(specs []core.DeviceSpec, order []int) (verdictAt int) {
	if st.rollout.Full() {
		return 0 // nothing staged
	}
	last := st.canary + min(st.canary, maxStableCohort)
	st.stable = make(map[int]bool)
	n := 0
	for pos, idx := range order {
		if specs[idx].Mode != core.ModeSecureFilter {
			continue
		}
		if n++; n > st.canary {
			st.stable[idx] = true
		}
		if n == last {
			return pos + 1
		}
	}
	return len(order)
}

// provision brings the device to its current rollout target. Devices
// that exercise the classifier (secure-filter) go through the staged
// cohorts (see stage): canaries update before processing, and devices
// provisioned after the verdict get the newest version immediately.
// Secure devices that never run the classifier (nofilter speakers) sit
// outside the staging — the new pack cannot misbehave on them, so they
// take it at once and the canary verdict stays meaningful.
func (st *attestState) provision(d *core.Device, id, tenant string) error {
	if st.rollout == nil || d.Spec.Mode == core.ModeBaseline {
		return nil
	}
	pack := st.next
	if d.Spec.Mode == core.ModeSecureFilter {
		pack = st.rollout.Target(id)
	}
	if pack.Version <= d.ModelVersion() {
		return nil
	}
	tok, err := st.manifest(id, tenant, pack)
	if err != nil {
		return err
	}
	return d.UpdateModel(pack, tok)
}

// handshake runs the challenge/report/verify exchange that admits the
// device's traffic at the ingest tier, against the device's authority.
func (st *attestState) handshake(d *core.Device, id, tenant string) error {
	auth := st.authority(tenant)
	nonce := auth.Challenge(id)
	rep, err := d.Attest(nonce)
	if err != nil {
		return fmt.Errorf("attest %s: %w", id, err)
	}
	if err := auth.Verify(rep); err != nil {
		return fmt.Errorf("verify %s: %w", id, err)
	}
	st.tracer.Verb(obs.VerbVerify)
	return nil
}

// reportSuccess is the post-workload rollout step for staged
// (secure-filter) devices: report the outcome (canary successes open the
// rollout) and say whether the device, still on the base pack, must wait
// for the canary verdict before it converges. A stable-cohort device
// waits for the verdict, and a device provisioned after an abort hears it
// at once; a waiting device parks without holding an executor, so the
// canaries it waits for always get to run.
//
// A leaving device reports its outcome (its truncated workload did
// complete on its granted version) but never waits for the verdict —
// it is departing.
func (st *attestState) reportSuccess(d *core.Device, id string, leaving bool) (wait bool) {
	if st.rollout == nil || d.Spec.Mode != core.ModeSecureFilter {
		return false
	}
	st.rollout.ReportSuccess(id)
	return !leaving && d.ModelVersion() < st.rollout.LatestVersion()
}

// converge runs once the canary verdict is in. On an opened rollout the
// device updates to the newest version and re-attests so the verifier
// observes convergence; on an aborted one it keeps the base pack, and
// the abort leaves a structured trail instead of a silently stale fleet.
func (st *attestState) converge(d *core.Device, id, tenant string, full bool) error {
	if !full {
		_, reason := st.rollout.Aborted()
		st.recordRollback(id, d.ModelVersion(), st.rollout.LatestVersion(), reason)
		return nil
	}
	if err := st.provision(d, id, tenant); err != nil {
		return err
	}
	return st.handshake(d, id, tenant)
}

// recordRollback appends one abort-attributed rollback record.
func (st *attestState) recordRollback(id string, from, to uint64, reason string) {
	st.mu.Lock()
	st.rollbacks = append(st.rollbacks, RollbackRecord{
		Device: id, FromVersion: from, ToVersion: to, Reason: reason,
	})
	st.mu.Unlock()
}

// rogueEndpoint is an adversarial client that registered an endpoint on
// the ingest tier without ever attesting. The admission gate must keep
// its delivered count at zero.
type rogueEndpoint struct {
	mu        sync.Mutex
	delivered int
}

var _ cloud.Provider = (*rogueEndpoint)(nil)

func (r *rogueEndpoint) Deliver(frame []byte) ([]byte, error) {
	r.mu.Lock()
	r.delivered++
	r.mu.Unlock()
	return []byte("{}"), nil
}

func (r *rogueEndpoint) Audit() cloud.Audit {
	r.mu.Lock()
	defer r.mu.Unlock()
	return cloud.Audit{Events: r.delivered}
}

func (r *rogueEndpoint) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.delivered = 0
}

// fillAttestResult derives the attested-run observability fields: the
// fleet-wide and per-shard model-version tallies (for model-bearing
// devices, as the verifier recorded them), the lifecycle/federation
// tallies and the rollout report.
func fillAttestResult(res *Result, cfg Config, specs []core.DeviceSpec, st *attestState, router *cloud.Router) {
	res.AttestedDevices = st.attestedCount()
	res.ModelVersions = st.versionCounts()
	if cfg.Lifecycle != nil {
		res.KeyEpochs = st.epochCounts()
	}
	if st.fed != nil {
		res.TenantAttested = st.fed.AttestedByTenant()
	}
	res.ShardModelVersions = make(map[string]map[uint64]int)
	for i := range specs {
		if specs[i].Mode == core.ModeBaseline {
			continue // no model pack; excluded from version tallies
		}
		id := specs[i].DeviceID
		m, ok := st.authority(tenantFor(cfg, i)).Attested(id)
		if !ok {
			continue
		}
		shard := router.ShardFor(id).Name()
		byVersion := res.ShardModelVersions[shard]
		if byVersion == nil {
			byVersion = make(map[uint64]int)
			res.ShardModelVersions[shard] = byVersion
		}
		byVersion[m.ModelVersion]++
	}
	if st.rollout == nil {
		return
	}
	rep := &RolloutReport{
		BaseVersion: st.base.Version,
		ToVersion:   st.next.Version,
		Canary:      st.canary,
	}
	rep.Converged = st.rollout.Full() && len(res.ModelVersions) == 1 &&
		res.ModelVersions[rep.ToVersion] > 0
	if st.rollout.Full() {
		rep.MinVersion = st.next.Version // enforced at ingest; see Run
	}
	st.mu.Lock()
	rep.Rollbacks = append([]RollbackRecord(nil), st.rollbacks...)
	st.mu.Unlock()
	if len(rep.Rollbacks) > 0 {
		rep.AbortReason = rep.Rollbacks[0].Reason
	} else if aborted, reason := st.rollout.Aborted(); aborted && !st.rollout.Full() {
		rep.AbortReason = reason
	}
	res.Rollout = rep
}

// runRogues registers unattested clients and fires their frames at the
// ring, tallying attempts, gate rejections, and (what must stay zero)
// frames that reached an endpoint. The rogue endpoints are deregistered
// afterwards so the audited shard stats describe the real population.
// Rogues sample like real devices (trace seeds continue the population's
// index space from seedBase), and each attempt's admission outcome is a
// zero-duration StageAdmit span — no device virtual clock runs for an
// off-fleet client.
func runRogues(cfg Config, router *cloud.Router, tracer *obs.Tracer, seedBase int) (attempts, rejected, ingested int) {
	for i := 0; i < cfg.Rogues; i++ {
		id := fmt.Sprintf("rogue-%03d", i)
		// Rogues carry no real billing label; the dump grammar demands an
		// identifier, so their spans are labelled "unattested".
		tc := tracer.Device(id, "unattested", core.DeriveSeed(cfg.Seed, core.SaltTrace, seedBase+i))
		ep := &rogueEndpoint{}
		router.Register(id, ep)
		for j := 0; j < cfg.Utterances; j++ {
			attempts++
			_, err := router.Ingest(id, []byte("unattested payload"))
			if err != nil {
				rejected++
			}
			if tc.Enabled() {
				tc.NextItem()
				switch {
				case err == nil:
					tc.Emit(obs.StageAdmit, obs.VerdictDelivered, 0, 0, 0, 0)
				case errors.Is(err, cloud.ErrShed):
					tc.Emit(obs.StageAdmit, obs.VerdictShed, 0, 0, 0, 0)
				default:
					tc.Emit(obs.StageAdmit, cloud.RejectVerdict(err), 0, 0, 0, 0)
				}
			}
		}
		ingested += ep.Audit().Events
		router.Deregister(id)
	}
	return attempts, rejected, ingested
}
