package core

// One device shell for both peripherals. A speaker (System) and a
// doorbell (CameraSystem) differ only in their peripheral's capture and
// featurize stages; everything around those is the deviceShell both embed
// by value. buildSecureWorld builds either TA's secure world from its
// taProfile, so both peripherals derive every key the same way.

import (
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/attest"
	"repro/internal/cloud"
	"repro/internal/he"
	"repro/internal/kernel"
	"repro/internal/memory"
	"repro/internal/obs"
	"repro/internal/optee"
	"repro/internal/power"
	"repro/internal/relay"
	"repro/internal/supplicant"
	"repro/internal/tz"
)

// deviceShell is what a speaker and a doorbell share around their
// peripheral.
type deviceShell struct {
	// Hardware substrate; Snooper is the compromised OS reading memory.
	Clock    *tz.Clock
	Cost     tz.CostModel
	Monitor  *tz.Monitor
	Platform *memory.Platform
	Snooper  *kernel.Snooper

	// Secure world (nil on a baseline device).
	TEE        *optee.OS
	Supplicant *supplicant.Supplicant
	Storage    *optee.Storage
	// taClient manages the device TA (attest, update, rotate); a zero
	// client on a baseline device.
	taClient

	// CloudSealed terminates the TA's sealed channel (secure modes);
	// endpoint is what CloudEndpoint returns. uplink is where baseline
	// traffic leaves the device; secure modes route through the
	// supplicant instead.
	CloudSealed *cloud.Service
	endpoint    cloud.Provider
	uplink      supplicant.NetSink

	// Hybrid HE+TEE split (ModeHybridHE only): the provider's
	// blind-evaluation endpoint, the provider key the normal world
	// encrypts features under, and the device-side evaluator charging
	// encrypt cycles to this device's clock.
	HE     *cloud.HEService
	HEPub  he.PublicKey
	HEEval *he.Evaluator

	// trace is the device's sampled telemetry context (nil outside traced
	// runs and for sampled-out devices — the zero-cost path).
	trace *obs.TraceContext

	mu         sync.Mutex // guards uplink and radioBytes
	radioBytes uint64
}

// initShell builds the hardware substrate under the cost model.
func (s *deviceShell) initShell(cost tz.CostModel) error {
	plat, err := memory.NewPlatform(memory.DefaultLayout())
	if err != nil {
		return fmt.Errorf("core platform: %w", err)
	}
	s.Clock, s.Cost, s.Platform = tz.NewClock(), cost, plat
	s.Monitor = tz.NewMonitor(s.Clock, cost)
	s.Snooper = kernel.NewSnooper(plat.Mem)
	return nil
}

// secureSpec is what a device's secure world is built from (see Config);
// weights is nil for a TA that seals none.
type secureSpec struct {
	mode                        Mode
	seed, modelSeed             uint64
	deviceID                    string
	attestKeySeed, modelVersion uint64
	weights                     []byte
}

// buildSecureWorld wires OP-TEE, the supplicant, sealed storage, the
// hybrid split's HE keys and provider, the sealed cloud endpoint and its
// handshake with the TA's relay identity. It returns the TA's config;
// the peripheral fills in its stages' own and registers its PTA and TA.
func (s *deviceShell) buildSecureWorld(p *taProfile, spec secureSpec) (TAConfig, error) {
	s.TEE = optee.New(s.Monitor, s.Platform.SecureHeap)
	s.Supplicant = supplicant.New(s.Clock, s.Cost)
	s.TEE.SetRPCHandler(s.Supplicant)
	storage, err := optee.NewStorage([]byte(fmt.Sprintf(p.huk, spec.seed)))
	if err != nil {
		return TAConfig{}, fmt.Errorf("core storage: %w", err)
	}
	s.Storage = storage
	if spec.weights != nil {
		storage.Put(p.weightsID, spec.weights)
	}
	cfg := TAConfig{
		TEE: s.TEE, Storage: storage, Clock: s.Clock, Cost: s.Cost,
		ModelVersion: spec.modelVersion,
		Hybrid:       spec.mode == ModeHybridHE,
	}

	// Hybrid split: the HE keypair comes from the shared model seed (the
	// provider provisions one parameter set fleet-wide, like the model
	// pack), and the secret key is sealed next to the weights.
	if cfg.Hybrid {
		cfg.HEParams = he.DefaultParams()
		kp, err := he.KeyGen(cfg.HEParams, spec.modelSeed)
		if err != nil {
			return cfg, fmt.Errorf("core he keygen: %w", err)
		}
		storage.Put(p.heKeyID, kp.Secret.Marshal())
		s.HEPub = kp.Public
		if s.HEEval, err = he.NewEvaluator(cfg.HEParams, s.Clock, s.Cost); err != nil {
			return cfg, fmt.Errorf("core he evaluator: %w", err)
		}
		providerEval, err := he.NewEvaluator(cfg.HEParams, s.Clock, s.Cost)
		if err != nil {
			return cfg, fmt.Errorf("core he provider: %w", err)
		}
		s.HE = cloud.NewHEService(providerEval)
	}

	// Cloud endpoint + handshake keys.
	keyRand := NewSeedReader(spec.seed^p.keySalt, spec.seed+p.keyStream)
	cloudID, err := relay.NewIdentity(keyRand)
	if err != nil {
		return cfg, fmt.Errorf("core cloud id: %w", err)
	}
	s.CloudSealed = cloud.NewService(cloud.NewIdentity(cloudID))
	s.endpoint = s.CloudSealed
	s.Supplicant.Route(CloudTarget, s.CloudSealed)
	taID, err := relay.NewIdentity(keyRand)
	if err != nil {
		return cfg, fmt.Errorf("core ta id: %w", err)
	}
	if err := s.CloudSealed.Handshake(taID.PublicKey()); err != nil {
		return cfg, err
	}
	cfg.Identity, cfg.CloudPub = taID, s.CloudSealed.PublicKey()

	// The attestation key lives with the TA: evidence is signed inside
	// the TEE, never by the normal world.
	if spec.attestKeySeed != 0 {
		cfg.Attestor = attest.NewAttestor(spec.deviceID, attest.KeyFromSeed(spec.attestKeySeed))
	}
	return cfg, nil
}

// SetTrace installs the device's telemetry trace context (nil clears).
// Spans carry stage timings, sealed sizes and admission verdicts only.
// Install before running a session; the hot path reads it unlocked.
func (s *deviceShell) SetTrace(tc *obs.TraceContext) { s.trace = tc }

// SetUplink reroutes the device's cloud-bound traffic through sink (the
// fleet ingest tier). The device's own cloud endpoint keeps terminating
// the channel — the sink decides on which shard/worker that happens.
func (s *deviceShell) SetUplink(sink supplicant.NetSink) {
	if s.Supplicant != nil {
		s.Supplicant.Route(CloudTarget, sink)
		return
	}
	s.mu.Lock()
	s.uplink = sink
	s.mu.Unlock()
}

// CloudEndpoint returns the provider-side terminator of the device's
// traffic, which fleet shards host: the sealed service in secure modes,
// the plain service on a baseline speaker, and nil on a baseline
// doorbell, which never uplinks.
func (s *deviceShell) CloudEndpoint() cloud.Provider { return s.endpoint }

// addRadio counts n bytes the device's radio carried.
func (s *deviceShell) addRadio(n int) {
	s.mu.Lock()
	s.radioBytes += uint64(n)
	s.mu.Unlock()
}

// radio returns the bytes the device's radio has carried so far.
func (s *deviceShell) radio() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.radioBytes
}

// sweep models the compromised OS reading n bytes of a live capture
// buffer, which the TZASC blocks when the buffer is secure; buf 0 means
// no buffer is live.
func (s *deviceShell) sweep(snoop *SnoopSummary, buf uint64, n int) {
	if buf != 0 {
		snoop.add(s.Snooper.Capture(buf, n))
	}
}

// heAppend is the normal world's half of the hybrid split for one
// item: encrypt under the provider's HE key into sc's wire buffer, have
// the provider evaluate its layer blind, and append the result to sc's
// packed buffer in CmdResumeBatchHE's form (a little-endian uint32 byte
// length, then the bytes). It counts the ciphertext both ways on the
// radio. The wire buffer is reused for the next item, and the packed
// one for the next group once its Invoke returns: the TA copies what it
// keeps of a memref before it returns.
func (s *deviceShell) heAppend(sc *sessionScratch, data []float32, shape []int, eval func(dst, wire []byte) ([]byte, error)) error {
	ct, err := s.HEEval.Encrypt(s.HEPub, data, shape)
	if err != nil {
		return fmt.Errorf("hybrid encrypt: %w", err)
	}
	sc.heWire = ct.AppendMarshal(sc.heWire[:0], s.HEEval.Params)
	at := len(sc.hePacked)
	packed, err := eval(append(sc.hePacked, 0, 0, 0, 0), sc.heWire)
	if err != nil {
		return fmt.Errorf("hybrid eval: %w", err)
	}
	n := len(packed) - at - 4
	binary.LittleEndian.PutUint32(packed[at:], uint32(n))
	sc.hePacked = packed
	s.addRadio(len(sc.heWire) + n)
	return nil
}

// energy models a session's energy at the modelled core frequency.
func (s *deviceShell) energy(total tz.Cycles, dmaBytes uint64) power.Report {
	st := s.Monitor.Stats()
	return power.DefaultModel().Measure(power.Usage{
		TotalCycles:  uint64(total),
		SecureCycles: uint64(st.SecureCycles),
		Switches:     st.Switches,
		DMABytes:     dmaBytes,
		RadioBytes:   s.radio(),
		FreqHz:       tz.FreqHz,
	})
}
