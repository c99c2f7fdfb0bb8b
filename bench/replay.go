package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"repro/internal/audio"
	"repro/internal/core"
	"repro/internal/dsp"
	"repro/internal/he"
	"repro/internal/i2s"
	"repro/internal/ml/classify"
	"repro/internal/peripheral"
	"repro/internal/relay"
	"repro/internal/tz"
)

// cost accumulates wall time and heap activity over replayed calls.
type cost struct {
	ns, allocs, bytes float64
}

// measure runs fn once and adds its wall time, allocations and allocated
// bytes to c. The replay runs alone in the process, so the heap counters
// belong to fn.
func (c *cost) measure(fn func() error) error {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	err := fn()
	c.ns += float64(time.Since(start).Nanoseconds())
	runtime.ReadMemStats(&m1)
	c.allocs += float64(m1.Mallocs - m0.Mallocs)
	c.bytes += float64(m1.TotalAlloc - m0.TotalAlloc)
	return err
}

// replayCosts are the sampled devices' leaf layers re-run through their
// public functions on the same inputs, with the number of calls behind
// each total.
type replayCosts struct {
	utts                                  int
	synth, capture, mfcc, transcribe      cost
	mfccFrames, segments                  int
	textBatches                           int
	textBatch                             cost
	heItems, ciphertextBytes              int
	heEncrypt, heEval, heTail             cost
	sealedUtts, sealedFrames, sealedBytes int
	sealUtt, sealFrame                    cost
	frames, classifiedFrames              int
	imageSynth, imageClassify             cost
	smcNs                                 float64
}

// replay re-runs every sampled device's leaf layers and checks that they
// reproduce the real path: the same transcripts (so the replay fed the
// same audio) and the same filter verdicts.
func replay(samples []sampleDevice, seed uint64) (replayCosts, error) {
	var rc replayCosts
	// The replay's own sealed channel: identity material comes from the
	// seed like every key in the simulation.
	local, err := relay.NewIdentity(core.NewSeedReader(seed, replaySalt))
	if err != nil {
		return rc, err
	}
	peer, err := relay.NewIdentity(core.NewSeedReader(seed, replaySalt+1))
	if err != nil {
		return rc, err
	}
	ch, err := relay.NewChannel(local, peer.PublicKey(), true)
	if err != nil {
		return rc, err
	}
	for _, s := range samples {
		var err error
		if s.spec.Kind == core.DeviceSpeaker {
			err = rc.speaker(s, ch)
		} else {
			err = rc.doorbell(s, ch)
		}
		if err != nil {
			return rc, fmt.Errorf("device %d (%s/%s): %w", s.index, s.spec.Kind, s.spec.Mode, err)
		}
	}
	rc.smcNs = smcCost()
	return rc, nil
}

func (rc *replayCosts) speaker(s sampleDevice, ch *relay.Channel) error {
	// A fresh device under the same spec shares the trained models and
	// derives the same voice and HE keys as the one the mirror ran.
	d, err := core.NewDevice(s.spec)
	if err != nil {
		return err
	}
	sys := d.Speaker
	sess, err := sys.ASRModel.NewSession()
	if err != nil {
		return err
	}
	ex, err := dsp.NewExtractor(dsp.DefaultMFCCConfig(sys.Voice.Rate))
	if err != nil {
		return err
	}
	ctrl := i2s.NewController("replay", 1<<20)
	if err := ctrl.WriteReg(i2s.RegCtrl, i2s.CtrlRXEnable); err != nil {
		return err
	}
	mic, err := peripheral.NewMicrophone(ctrl, i2s.DefaultFormat())
	if err != nil {
		return err
	}

	utts := s.work.Utterances
	transcripts := make([][]string, len(utts))
	var (
		synthBuf []float64
		wire     []byte
		samples  []int32
		floats   []float64
	)
	for j, u := range utts {
		// The per-utterance voice seed of core.System's synthesis.
		v := sys.Voice
		v.Seed = s.spec.Seed*1_000_003 + uint64(j)*97 + 13
		var pcm audio.PCM
		_ = rc.synth.measure(func() error {
			pcm = v.SynthesizeInto(synthBuf, u.Words)
			return nil
		})
		synthBuf = pcm.Samples[:0]
		want := len(pcm.Samples) * 2
		err := rc.capture.measure(func() error {
			mic.Load(pcm)
			for {
				if _, err := mic.PumpBytes(8192); err != nil {
					break
				}
			}
			wire = wire[:0]
			for len(wire) < want {
				b := ctrl.PopBytes(4096)
				if len(b) == 0 {
					return fmt.Errorf("capture stalled at %d/%d bytes", len(wire), want)
				}
				wire = append(wire, b...)
			}
			var err error
			samples, err = i2s.DecodeFramesInto(samples, wire, i2s.DefaultFormat())
			return err
		})
		if err != nil {
			return err
		}
		floats = slices.Grow(floats[:0], len(samples))[:len(samples)]
		for k, x := range samples {
			floats[k] = float64(int16(x)) / 32768
		}
		heard := audio.PCM{Rate: sys.Voice.Rate, Samples: floats}
		err = rc.transcribe.measure(func() error {
			var err error
			transcripts[j], err = sess.TranscribeWords(heard)
			return err
		})
		if err != nil {
			return err
		}
		segs := slices.Clone(sess.Segment(heard))
		rc.segments += len(segs)
		err = rc.mfcc.measure(func() error {
			for _, sg := range segs {
				fr, err := ex.Signal(floats[sg[0]:sg[1]])
				if err != nil {
					return err
				}
				rc.mfccFrames += len(fr)
			}
			return nil
		})
		if err != nil {
			return err
		}
		rc.utts++
	}

	outcomes := s.res.Session.Utterances
	if s.spec.Mode == core.ModeBaseline {
		var heard [][]string
		for _, t := range transcripts {
			if len(t) > 0 {
				heard = append(heard, t)
			}
		}
		if !slices.EqualFunc(heard, s.cloudTranscripts, slices.Equal[[]string]) {
			return fmt.Errorf("replayed transcripts %q differ from the provider's %q", heard, s.cloudTranscripts)
		}
		return nil
	}
	for j, out := range outcomes {
		if !slices.Equal(transcripts[j], out.Transcript) {
			return fmt.Errorf("utterance %d: replayed transcript %q, device transcribed %q", j, transcripts[j], out.Transcript)
		}
	}

	switch s.spec.Mode {
	case core.ModeSecureFilter:
		if err := rc.classifyText(s, sys, transcripts); err != nil {
			return err
		}
	case core.ModeHybridHE:
		if err := rc.hybrid(s, sys, transcripts); err != nil {
			return err
		}
	}
	for j, out := range outcomes {
		if !out.Forwarded {
			continue
		}
		err := rc.sealUtt.measure(func() error {
			payload, err := relay.EncodeEvent(relay.Event{
				Namespace: relay.NamespaceSpeech, Name: relay.NameTranscript,
				MessageID: uint64(j + 1), Transcript: transcripts[j],
			})
			if err != nil {
				return err
			}
			rc.sealedBytes += len(ch.Seal(payload))
			return nil
		})
		if err != nil {
			return err
		}
		rc.sealedUtts++
	}
	return nil
}

// checkVerdict checks a replayed classifier verdict against the real path's
// relay decision under the default block policy.
func checkVerdict(j int, class int, forwarded bool) error {
	if forwarded != (class != 1) {
		return fmt.Errorf("utterance %d: replayed class %d but the device forwarded=%v", j, class, forwarded)
	}
	return nil
}

func (rc *replayCosts) classifyText(s sampleDevice, sys *core.System, transcripts [][]string) error {
	cfg := sys.Config()
	clf, err := core.TrainClassifier(cfg.Arch, sys.Vocab, cfg.ModelSeed, cfg.TrainEpochs)
	if err != nil {
		return err
	}
	batch := max(s.spec.Batch, 1)
	for lo := 0; lo < len(transcripts); lo += batch {
		group := transcripts[lo:min(lo+batch, len(transcripts))]
		var classes []int
		err := rc.textBatch.measure(func() error {
			feats := make([][]float32, len(group))
			for k, words := range group {
				feats[k] = clf.TokensToFeatures(sys.Vocab.Encode(words))
			}
			var err error
			classes, err = clf.PredictBatch(feats)
			return err
		})
		if err != nil {
			return err
		}
		rc.textBatches++
		for k, class := range classes {
			if err := checkVerdict(lo+k, class, s.res.Session.Utterances[lo+k].Forwarded); err != nil {
				return err
			}
		}
	}
	return nil
}

// hybrid replays the HE round trip with the device's own HE key and
// evaluators: embed and encrypt in the normal world, the provider's blind
// first layer, then decrypt and the classifier tail as the TA does it.
func (rc *replayCosts) hybrid(s sampleDevice, sys *core.System, transcripts [][]string) error {
	cfg := sys.Config()
	clf, err := core.TrainClassifier(cfg.Arch, sys.Vocab, cfg.ModelSeed, cfg.TrainEpochs)
	if err != nil {
		return err
	}
	split, err := classify.SplitText(clf)
	if err != nil {
		return err
	}
	params := sys.HEEval.Params
	keys, err := he.KeyGen(params, cfg.ModelSeed)
	if err != nil {
		return err
	}
	taEval, err := he.NewEvaluator(params, tz.NewClock(), sys.Cost)
	if err != nil {
		return err
	}
	feats := make([]float32, split.SeqLen)
	for j, words := range transcripts {
		clear(feats)
		for k, id := range sys.Vocab.Encode(words) {
			if k < len(feats) {
				feats[k] = float32(id)
			}
		}
		var wire, answer []byte
		err := rc.heEncrypt.measure(func() error {
			data, shape, err := split.EmbedFeatures(feats)
			if err != nil {
				return err
			}
			ct, err := sys.HEEval.Encrypt(sys.HEPub, data, shape)
			if err != nil {
				return err
			}
			wire = ct.Marshal(params)
			return nil
		})
		if err != nil {
			return err
		}
		if err := rc.heEval.measure(func() error {
			var err error
			answer, err = sys.HE.EvalText(wire)
			return err
		}); err != nil {
			return err
		}
		var class int
		if err := rc.heTail.measure(func() error {
			ct, err := taEval.Unmarshal(answer)
			if err != nil {
				return err
			}
			data, shape, err := taEval.Decrypt(keys.Secret, ct)
			if err != nil {
				return err
			}
			class, err = split.TailPredict(data, shape)
			return err
		}); err != nil {
			return err
		}
		rc.heItems++
		rc.ciphertextBytes += len(wire)
		if err := checkVerdict(j, class, s.res.Session.Utterances[j].Forwarded); err != nil {
			return err
		}
	}
	return nil
}

func (rc *replayCosts) doorbell(s sampleDevice, ch *relay.Channel) error {
	secure := s.spec.Mode == core.ModeSecureFilter
	var clf *classify.Classifier
	if secure {
		modelSeed := s.spec.ModelSeed
		if modelSeed == 0 {
			modelSeed = s.spec.Seed
		}
		var err error
		if clf, err = core.TrainImageClassifier(modelSeed); err != nil {
			return err
		}
	}
	var feats []float32
	benign := 0
	for j, scene := range s.work.Scenes {
		var im peripheral.Image
		// The camera renders its n-th capture (1-based) from seed+n.
		_ = rc.imageSynth.measure(func() error {
			im = peripheral.SynthesizeImage(scene, s.spec.Seed+uint64(j+1))
			return nil
		})
		rc.frames++
		if !secure {
			continue
		}
		var class int
		err := rc.imageClassify.measure(func() error {
			feats = slices.Grow(feats[:0], len(im.Pix))[:len(im.Pix)]
			for k, px := range im.Pix {
				feats[k] = float32(px) / 255
			}
			var err error
			class, err = clf.Predict(feats)
			return err
		})
		if err != nil {
			return err
		}
		rc.classifiedFrames++
		if class == 1 {
			continue
		}
		benign++
		err = rc.sealFrame.measure(func() error {
			payload, err := relay.EncodeEvent(relay.Event{
				Namespace: relay.NamespaceSpeech, Name: core.NameFrame,
				MessageID: uint64(j + 1), Audio: im.Pix,
			})
			if err != nil {
				return err
			}
			rc.sealedBytes += len(ch.Seal(payload))
			return nil
		})
		if err != nil {
			return err
		}
		rc.sealedFrames++
	}
	if secure && benign != s.res.Camera.ForwardedFrames {
		return fmt.Errorf("replayed %d benign frames, the camera forwarded %d", benign, s.res.Camera.ForwardedFrames)
	}
	return nil
}

// smcCost is the wall cost of one modelled secure monitor call (world
// switch in, dispatch, switch out) with an empty handler.
func smcCost() float64 {
	mon := tz.NewMonitor(tz.NewClock(), tz.DefaultCostModel())
	const fn = tz.SMCFunc(1)
	mon.Register(fn, func(a [4]uint64) ([4]uint64, error) { return a, nil })
	const calls = 20000
	start := time.Now()
	for k := 0; k < calls; k++ {
		_, _ = mon.SMC(fn, [4]uint64{uint64(k)}) // the handler cannot fail
	}
	return float64(time.Since(start).Nanoseconds()) / calls
}

// perCallValues are the replayed per-call costs. A layer the workload's
// sample never ran, because the workload bypasses it, is read off the
// reference devices instead.
func perCallValues(rc, ref replayCosts) map[string]float64 {
	pick := func(calls func(replayCosts) int) replayCosts {
		if calls(rc) > 0 {
			return rc
		}
		return ref
	}
	sp := pick(func(r replayCosts) int { return r.utts })
	tx := pick(func(r replayCosts) int { return r.textBatches })
	hy := pick(func(r replayCosts) int { return r.heItems })
	im := pick(func(r replayCosts) int { return r.classifiedFrames })
	fr := pick(func(r replayCosts) int { return r.frames })
	sl := pick(func(r replayCosts) int { return r.sealedUtts + r.sealedFrames })
	utts, sealed := float64(sp.utts), float64(sl.sealedUtts+sl.sealedFrames)
	return map[string]float64{
		"audio.synth_us_per_utt":        ratio(sp.synth.ns/1e3, utts),
		"audio.synth_allocs_per_utt":    ratio(sp.synth.allocs, utts),
		"i2s.capture_us_per_utt":        ratio(sp.capture.ns/1e3, utts),
		"i2s.capture_allocs_per_utt":    ratio(sp.capture.allocs, utts),
		"i2s.capture_kb_per_utt":        ratio(sp.capture.bytes/1024, utts),
		"dsp.mfcc_us_per_utt":           ratio(sp.mfcc.ns/1e3, utts),
		"dsp.mfcc_frames_per_utt":       ratio(float64(sp.mfccFrames), utts),
		"dsp.mfcc_allocs_per_utt":       ratio(sp.mfcc.allocs, utts),
		"asr.transcribe_us_per_utt":     ratio(sp.transcribe.ns/1e3, utts),
		"asr.match_self_us_per_utt":     ratio((sp.transcribe.ns-sp.mfcc.ns)/1e3, utts),
		"asr.segments_per_utt":          ratio(float64(sp.segments), utts),
		"classify.text_us_per_batch":    ratio(tx.textBatch.ns/1e3, float64(tx.textBatches)),
		"classify.image_us_per_frame":   ratio(im.imageClassify.ns/1e3, float64(im.classifiedFrames)),
		"he.encrypt_us_per_item":        ratio(hy.heEncrypt.ns/1e3, float64(hy.heItems)),
		"he.eval_us_per_item":           ratio(hy.heEval.ns/1e3, float64(hy.heItems)),
		"he.tail_us_per_item":           ratio(hy.heTail.ns/1e3, float64(hy.heItems)),
		"he.ciphertext_kb_per_item":     ratio(float64(hy.ciphertextBytes)/1024, float64(hy.heItems)),
		"relay.seal_us_per_event":       ratio((sl.sealUtt.ns+sl.sealFrame.ns)/1e3, sealed),
		"relay.sealed_bytes_per_event":  ratio(float64(sl.sealedBytes), sealed),
		"peripheral.image_us_per_frame": ratio(fr.imageSynth.ns/1e3, float64(fr.frames)),
	}
}
