package experiments

// E18: the hybrid HE+TEE split. The paper keeps the whole classifier
// inside the enclave; hybrid-he offloads the first linear layer to the
// provider under leveled HE, so the provider computes on features it can
// never read. E18 measures what that buys: the per-mode leakage table
// ranks provider-observable feature bytes (baseline's raw audio ≫
// secure-filter's forwarded cleartext tokens > hybrid-he's zero), checks
// the hybrid verdicts stay bit-identical to secure-filter on the same
// workload, proves the noise budget rejects over-depth circuits with a
// typed error, and runs a mixed fleet (hybrid-he weighted in) through
// the audit-conservation identity.

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/he"
	"repro/internal/metrics"
	"repro/internal/ml/classify"
	"repro/internal/relay"
	"repro/internal/tz"
)

// E18Row is one mode's provider-observable surface.
type E18Row struct {
	Mode            core.Mode
	CloudAudioBytes int
	CloudTokens     int
	CloudSensTokens int
	// CiphertextBytes is HE traffic through the provider (both
	// directions); semantically opaque without the device's secret key.
	CiphertextBytes uint64
	// FeatureExposedBytes is what the provider can reconstruct the
	// classifier's input features from: raw audio for baseline, forwarded
	// cleartext token ids for the secure modes, and the HE service's
	// cleartext-feature counter (zero by construction) for hybrid-he.
	FeatureExposedBytes uint64
}

// E18Result carries the fleet-leg conservation counters alongside the
// per-mode rows.
type E18Result struct {
	Rows           []E18Row
	ExpectedEvents int
	Ingested       uint64
	Shed           uint64
	Expired        int
	LostFrames     int
}

// tokenBytes prices a forwarded cleartext token stream in feature bytes:
// the text classifier consumes token ids (4 B each), so every token the
// provider sees is a feature it holds in the clear.
func tokenBytes(tokens int) uint64 { return uint64(tokens) * 4 }

// E18HybridHE runs the hybrid-he privacy experiment.
func E18HybridHE(seed uint64) (*metrics.Table, E18Result, error) {
	fail := func(format string, a ...any) (*metrics.Table, E18Result, error) {
		return nil, E18Result{}, fmt.Errorf("e18: "+format, a...)
	}
	cases := []struct {
		mode core.Mode
		opts sessionOpts
	}{
		{core.ModeBaseline, sessionOpts{policy: relay.PolicyPassThrough}},
		{core.ModeSecureNoFilter, sessionOpts{policy: relay.PolicyPassThrough}},
		{core.ModeSecureFilter, sessionOpts{policy: relay.PolicyBlock, arch: classify.ArchCNN}},
		{core.ModeHybridHE, sessionOpts{policy: relay.PolicyBlock, arch: classify.ArchCNN}},
	}
	out := E18Result{}
	tbl := metrics.NewTable("E18: hybrid HE+TEE split — provider-observable bytes per mode",
		"mode", "audio B", "tokens", "sens tokens", "HE ct B", "feature B exposed")
	byMode := map[core.Mode]E18Row{}
	for _, c := range cases {
		sys, err := core.NewSystem(core.Config{
			Mode:   c.mode,
			Policy: c.opts.policy,
			Arch:   c.opts.arch,
			Seed:   seed,
		})
		if err != nil {
			return fail("%v system: %v", c.mode, err)
		}
		utts, err := sessionWorkload(sessionN, seed+7)
		if err != nil {
			return fail("workload: %v", err)
		}
		res, err := sys.RunSession(utts)
		if err != nil {
			return fail("%v session: %v", c.mode, err)
		}
		row := E18Row{
			Mode:            c.mode,
			CloudAudioBytes: res.CloudAudit.AudioBytes,
			CloudTokens:     res.CloudAudit.TokensSeen,
			CloudSensTokens: res.CloudAudit.SensitiveTokens,
		}
		switch c.mode {
		case core.ModeBaseline:
			row.FeatureExposedBytes = uint64(res.CloudAudit.AudioBytes)
		case core.ModeHybridHE:
			if sys.HE == nil {
				return fail("hybrid system has no HE service")
			}
			audit := sys.HE.Audit()
			if audit.Evals == 0 {
				return fail("hybrid session evaluated no HE circuits")
			}
			row.CiphertextBytes = audit.CiphertextBytesIn + audit.CiphertextBytesOut
			row.FeatureExposedBytes = audit.CleartextFeatureBytes
		default:
			row.FeatureExposedBytes = tokenBytes(res.CloudAudit.TokensSeen)
		}
		byMode[c.mode] = row
		out.Rows = append(out.Rows, row)
		tbl.AddRow(c.mode.String(), row.CloudAudioBytes, row.CloudTokens,
			row.CloudSensTokens, row.CiphertextBytes, row.FeatureExposedBytes)
	}

	// The central claim: the provider computes the first layer yet holds
	// zero cleartext feature bytes, and the ordering baseline ≫
	// secure-filter > hybrid-he holds on the same workload.
	hyb, filt, base := byMode[core.ModeHybridHE], byMode[core.ModeSecureFilter], byMode[core.ModeBaseline]
	if hyb.FeatureExposedBytes != 0 {
		return fail("provider observed %d cleartext feature bytes in hybrid-he", hyb.FeatureExposedBytes)
	}
	if hyb.CiphertextBytes == 0 {
		return fail("hybrid-he moved no ciphertext")
	}
	if base.FeatureExposedBytes < 10*filt.FeatureExposedBytes || filt.FeatureExposedBytes <= hyb.FeatureExposedBytes {
		return fail("feature exposure ordering violated: baseline %d, secure-filter %d, hybrid-he %d",
			base.FeatureExposedBytes, filt.FeatureExposedBytes, hyb.FeatureExposedBytes)
	}
	// Moving the first layer out of the enclave must not move the
	// verdicts: hybrid-he forwards exactly what secure-filter forwards.
	if hyb.CloudTokens != filt.CloudTokens || hyb.CloudSensTokens != filt.CloudSensTokens {
		return fail("hybrid-he verdicts drifted from secure-filter: %d/%d tokens vs %d/%d",
			hyb.CloudTokens, hyb.CloudSensTokens, filt.CloudTokens, filt.CloudSensTokens)
	}

	// Depth safety: a circuit past the parameter set's level budget is a
	// typed he.ErrNoiseBudget, never a silently wrong result.
	if err := overDepthRejected(seed); err != nil {
		return fail("%v", err)
	}

	// Fleet leg: weight every registered mode (hybrid-he included) and
	// hold the conservation identity expected == ingested + shed + expired.
	mix := fleet.MixSpec{}
	for _, m := range core.Modes() {
		mix[m] = 1
	}
	fres, err := fleet.Run(fleet.Config{
		Devices:    24,
		Shards:     2,
		Utterances: 2,
		Frames:     2,
		Seed:       seed,
		Mix:        mix,
	})
	if err != nil {
		return fail("mixed fleet: %v", err)
	}
	out.ExpectedEvents = fres.ExpectedCloudEvents
	out.Ingested = fres.IngestedFrames()
	out.Shed = fres.ShedFrames()
	out.Expired = fres.ExpiredFrames()
	out.LostFrames = fres.LostFrames()
	if out.LostFrames != 0 {
		return fail("mixed fleet lost %d frames (expected %d, ingested %d, shed %d, expired %d)",
			out.LostFrames, out.ExpectedEvents, out.Ingested, out.Shed, out.Expired)
	}
	tbl.AddRow("fleet(all modes)", "-", "-", "-", "-",
		fmt.Sprintf("conserved %d=%d+%d+%d", out.ExpectedEvents, out.Ingested, out.Shed, out.Expired))
	return tbl, out, nil
}

// overDepthRejected drives a fresh ciphertext one multiply past the
// parameter set's depth budget and requires the typed error.
func overDepthRejected(seed uint64) error {
	p := he.DefaultParams()
	kp, err := he.KeyGen(p, seed)
	if err != nil {
		return err
	}
	eval, err := he.NewEvaluator(p, nil, tz.CostModel{})
	if err != nil {
		return err
	}
	ct, err := eval.Encrypt(kp.Public, make([]float32, 4), []int{4})
	if err != nil {
		return err
	}
	op := &he.Dense{In: 4, Out: 4, W: make([]float32, 16), B: make([]float32, 4)}
	for i := 0; i <= p.MaxDepth; i++ {
		next, err := eval.Dense(op, ct)
		if i < p.MaxDepth {
			if err != nil {
				return fmt.Errorf("depth %d of %d rejected early: %v", i+1, p.MaxDepth, err)
			}
			ct = next
			continue
		}
		if !errors.Is(err, he.ErrNoiseBudget) {
			return fmt.Errorf("over-depth circuit returned %v, want he.ErrNoiseBudget", err)
		}
	}
	return nil
}
