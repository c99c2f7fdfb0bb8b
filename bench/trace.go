package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/peripheral"
	"repro/internal/sensitive"
)

// span is one timed call into a layer's public function, recorded from
// bench code around the call.
type span struct {
	Name   string `json:"name"`
	Dev    int    `json:"dev"`
	Item   int    `json:"item"`   // the frame's uplink sequence number; -1 for device-level spans
	Parent int    `json:"parent"` // index of the enclosing span in the same trace; -1 for roots
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int    `json:"bytes,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps one mirror run's spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func (t *tracer) begin(name string, dev, item, parent, bytes int) int {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Dev: dev, Item: item, Parent: parent, Start: now, Bytes: bytes})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// seams times one device's two ingest seams: it stands in as the uplink's
// cloud.Ingestor around Router.IngestMeta, and its endpoint wrapper times
// the provider's Deliver on the shard worker. A device has at most one
// frame in flight, so the open ingest span is the parent of the delivery.
type seams struct {
	tr     *tracer
	router *cloud.Router
	dev    int
	run    int // the device's core.run span
	ingest atomic.Int64
	item   atomic.Int64
}

func (s *seams) IngestMeta(deviceID string, frame []byte, meta cloud.FrameMeta) ([]byte, error) {
	i := s.tr.begin("cloud.ingest", s.dev, int(meta.Seq), s.run, len(frame))
	s.ingest.Store(int64(i))
	s.item.Store(int64(meta.Seq))
	out, err := s.router.IngestMeta(deviceID, frame, meta)
	s.tr.end(i)
	return out, err
}

type timedEndpoint struct {
	cloud.Provider
	s *seams
}

func (p timedEndpoint) Deliver(frame []byte) ([]byte, error) {
	i := p.s.tr.begin("cloud.deliver", p.s.dev, int(p.s.item.Load()), int(p.s.ingest.Load()), len(frame))
	out, err := p.Provider.Deliver(frame)
	p.s.tr.end(i)
	return out, err
}

// workCounts tallies, per layer, how often the real path ran it. The
// ledger multiplies these by replayed per-call costs.
type workCounts struct {
	items, cloudEvents int
	speakerUtts        int // synthesized and captured on the device
	secureUtts         int // transcribed inside the TA
	filterBatches      int // inline text-classifier forward passes
	filterItems        int
	hybridItems        int // HE encrypt → provider eval → TA tail
	sealedUtts         int // speaker events sealed by the TA
	frames             int // camera frames synthesized
	classifiedFrames   int // frames run through the in-TA image classifier
	sealedFrames       int
	smcs               uint64
}

func (c *workCounts) add(o workCounts) {
	c.items += o.items
	c.cloudEvents += o.cloudEvents
	c.speakerUtts += o.speakerUtts
	c.secureUtts += o.secureUtts
	c.filterBatches += o.filterBatches
	c.filterItems += o.filterItems
	c.hybridItems += o.hybridItems
	c.sealedUtts += o.sealedUtts
	c.frames += o.frames
	c.classifiedFrames += o.classifiedFrames
	c.sealedFrames += o.sealedFrames
	c.smcs += o.smcs
}

// countWork reads the real work one device did off its result.
func countWork(d *core.Device, res *core.DeviceResult) workCounts {
	c := workCounts{cloudEvents: res.CloudEvents()}
	if res.Session != nil {
		n := len(res.Session.Utterances)
		c.items, c.speakerUtts = n, n
		c.smcs = d.Speaker.Monitor.Stats().SMCs
		mode := res.Spec.Mode
		if mode == core.ModeBaseline {
			return c
		}
		c.secureUtts = n
		for _, u := range res.Session.Utterances {
			if u.Forwarded {
				c.sealedUtts++
			}
		}
		switch mode {
		case core.ModeSecureFilter:
			batch := max(res.Spec.Batch, 1)
			c.filterBatches = (n + batch - 1) / batch
			c.filterItems = n
		case core.ModeHybridHE:
			c.hybridItems = n
		}
		return c
	}
	c.items, c.frames = res.Camera.Frames, res.Camera.Frames
	c.smcs = d.Doorbell.Monitor.Stats().SMCs
	if res.Spec.Mode == core.ModeSecureFilter {
		c.classifiedFrames = res.Camera.Frames
		c.sealedFrames = res.Camera.ForwardedFrames
	}
	return c
}

// sampleDevice is one device kept for replay: its inputs and the real
// path's outputs the replay must reproduce.
type sampleDevice struct {
	index int
	spec  core.DeviceSpec
	work  core.DeviceWorkload
	res   *core.DeviceResult
	// cloudTranscripts is what a baseline speaker's provider transcribed.
	cloudTranscripts [][]string
}

// mirrorRun is one pass of the mirror over the whole population.
type mirrorRun struct {
	tr              *tracer
	wall            time.Duration
	work            workCounts
	sensitiveTokens int
	ingested        int
	failed          int
	endpoints       int
	retainedKB      float64
	samples         []sampleDevice
}

// Replay sampling: 1 in replayEvery devices, chosen by a hash of the
// device index under the root seed, plus the first device of every
// (kind, mode) group so each layer a workload runs is replayed.
const (
	replayEvery = 20
	replaySalt  = 0x5e1ec7
)

// The ingest tier the mirror builds matches fleet.Run's defaults.
const (
	shardWorkers = 4
	shardQueue   = 2 * shardWorkers
	hashReplicas = 64
	tenants      = 4
)

// runMirror is a synchronous per-device loop over the full population
// with the same two device workers fleet.Run uses, through public calls
// only: fleet.Plan, core.NewDevice, Device.Run, a cloud.Router built with
// the fleet's shard settings, and the two timed ingest seams. Classify
// always runs inline on the device, whatever the workload's engine.
func runMirror(cfg fleet.Config, keepSamples bool) (*mirrorRun, error) {
	specs, err := fleet.Plan(cfg)
	if err != nil {
		return nil, err
	}
	shards := make([]*cloud.Shard, cfg.Shards)
	for i := range shards {
		shards[i] = cloud.NewShard(fmt.Sprintf("shard-%02d", i), shardWorkers, shardQueue)
	}
	router, err := cloud.NewRouter(shards, hashReplicas)
	if err != nil {
		return nil, err
	}
	defer router.Close()
	policy, _ := cloud.PolicyByName("") // the fixed-queue policy fleet.Run defaults to
	router.SetPolicy(policy)

	sampled := sampleSet(cfg.Seed, specs)
	m := &mirrorRun{}
	// Sized for the worst case (every item uplinked) before the heap
	// baseline, so span growth is not counted as endpoint memory.
	itemsPerDevice := max(utterances(cfg), frames(cfg))
	m.tr = &tracer{spans: make([]span, 0, len(specs)*(2+2*itemsPerDevice))}

	var mu sync.Mutex
	device := func(i int) error {
		spec := specs[i]
		w, err := deviceWorkload(cfg, spec, i)
		if err != nil {
			return fmt.Errorf("device %d workload: %w", i, err)
		}
		b := m.tr.begin("core.build", i, -1, -1, 0)
		d, err := core.NewDevice(spec)
		m.tr.end(b)
		if err != nil {
			return fmt.Errorf("device %d: %w", i, err)
		}
		s := &seams{tr: m.tr, router: router, dev: i}
		ep := d.CloudEndpoint()
		if ep != nil {
			router.Register(spec.DeviceID, timedEndpoint{Provider: ep, s: s})
			d.SetUplink(&cloud.Uplink{
				DeviceID: spec.DeviceID,
				Router:   router,
				Ingest:   s,
				Meta: cloud.FrameMeta{
					Tenant:   fmt.Sprintf("tenant-%02d", i%tenants),
					Priority: spec.Kind == core.DeviceDoorbell,
				},
			})
		}
		s.run = m.tr.begin("core.run", i, -1, -1, 0)
		res, err := d.Run(w)
		m.tr.end(s.run)
		if err != nil {
			return fmt.Errorf("device %d: %w", i, err)
		}
		c := countWork(d, res)
		mu.Lock()
		defer mu.Unlock()
		m.work.add(c)
		if ep != nil {
			m.endpoints++
		}
		if keepSamples && sampled[i] {
			smp := sampleDevice{index: i, spec: spec, work: w, res: res}
			if ep != nil && spec.Kind == core.DeviceSpeaker && spec.Mode == core.ModeBaseline {
				smp.cloudTranscripts = ep.Audit().Transcripts
			}
			m.samples = append(m.samples, smp)
		}
		return nil
	}

	runtime.GC()
	heap0 := heapInUse()
	m.tr.t0 = time.Now()
	err = eachDevice(len(specs), deviceWorkers, device)
	m.wall = time.Since(m.tr.t0)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	if m.endpoints > 0 {
		m.retainedKB = float64(int64(heapInUse())-int64(heap0)) / 1024 / float64(m.endpoints)
	}
	a := router.Audit()
	m.sensitiveTokens = a.SensitiveTokens
	for _, st := range router.Stats() {
		m.ingested += int(st.Frames)
		m.failed += int(st.Errors + st.Rejected)
	}
	m.failed += m.work.cloudEvents - m.ingested
	return m, nil
}

func heapInUse() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// eachDevice runs fn over 0..n-1 in index order on a fixed set of
// workers and returns the first error; later devices are skipped once
// one fails.
func eachDevice(n, workers int, fn func(i int) error) error {
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
		failed   atomic.Bool
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					errOnce.Do(func() { firstErr = err })
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

func sampleSet(seed uint64, specs []core.DeviceSpec) map[int]bool {
	out := make(map[int]bool)
	first := make(map[fleet.GroupKey]bool)
	for i, spec := range specs {
		k := fleet.GroupKey{Kind: spec.Kind, Mode: spec.Mode}
		if !first[k] || core.NewRNG(seed^replaySalt, uint64(i)).IntN(replayEvery) == 0 {
			out[i] = true
		}
		first[k] = true
	}
	return out
}

// referenceSamples runs, untimed and outside any fleet, one device for
// each kind of leaf work a workload can bypass — a secure-filter speaker,
// a hybrid-he speaker and a secure-filter doorbell — so a bypassed
// layer's per-call cost is still measured, on fixed inputs. They never
// enter the ledger.
func referenceSamples(seed uint64) ([]sampleDevice, error) {
	var out []sampleDevice
	for _, cfg := range []fleet.Config{
		{Devices: 2, Seed: seed, DoorbellFraction: -1, Mix: fleet.MixSpec{core.ModeSecureFilter: 1, core.ModeHybridHE: 1}},
		{Devices: 2, Seed: seed, DoorbellFraction: 1},
	} {
		specs, err := fleet.Plan(cfg)
		if err != nil {
			return nil, err
		}
		for i, spec := range specs {
			if spec.Mode == core.ModeBaseline {
				continue
			}
			w, err := deviceWorkload(cfg, spec, i)
			if err != nil {
				return nil, err
			}
			d, err := core.NewDevice(spec)
			if err != nil {
				return nil, err
			}
			res, err := d.Run(w)
			if err != nil {
				return nil, err
			}
			out = append(out, sampleDevice{index: i, spec: spec, work: w, res: res})
		}
	}
	return out, nil
}

// The per-device workload generator mirrors fleet's: the same generator,
// seeds and defaults, so the mirror feeds every device what fleet.Run
// feeds it (the audit check in runTraced holds it to that).
func utterances(cfg fleet.Config) int {
	if cfg.Utterances > 0 {
		return cfg.Utterances
	}
	return 4
}

func frames(cfg fleet.Config) int {
	if cfg.Frames > 0 {
		return cfg.Frames
	}
	return 6
}

func sensitiveFraction(cfg fleet.Config) float64 {
	switch {
	case cfg.SensitiveFraction == 0:
		return 0.4
	case cfg.SensitiveFraction < 0:
		return 0
	}
	return cfg.SensitiveFraction
}

func deviceWorkload(cfg fleet.Config, spec core.DeviceSpec, i int) (core.DeviceWorkload, error) {
	wseed := core.DeriveSeed(cfg.Seed, core.SaltWorkload, i)
	if spec.Kind == core.DeviceSpeaker {
		utts, err := sensitive.Generate(sensitive.GenConfig{
			N: utterances(cfg), SensitiveFraction: sensitiveFraction(cfg), Seed: wseed,
		})
		if err != nil {
			return core.DeviceWorkload{}, err
		}
		return core.DeviceWorkload{Utterances: utts}, nil
	}
	rng := core.NewRNG(wseed, wseed^core.SaltWorkload)
	scenes := make([]peripheral.Scene, frames(cfg))
	for j := range scenes {
		if rng.Float64() < sensitiveFraction(cfg) {
			scenes[j] = peripheral.ScenePerson
		} else {
			scenes[j] = peripheral.SceneEmpty
		}
	}
	return core.DeviceWorkload{Scenes: scenes}, nil
}

// spanTimes aggregates the mirror's spans across runs.
type spanTimes struct {
	buildUs                     []float64
	runNs, runSelfNs, ingestNs  int64
	ingestUs, deliverUs, waitUs []float64
	frameBytes, uplinkedFrames  int
}

func (st *spanTimes) add(spans []span) {
	children := make([]int64, len(spans))
	deliver := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] += s.dur()
			if s.Name == "cloud.deliver" {
				deliver[s.Parent] += s.dur()
			}
		}
	}
	for i, s := range spans {
		switch s.Name {
		case "core.build":
			st.buildUs = append(st.buildUs, float64(s.dur())/1e3)
		case "core.run":
			st.runNs += s.dur()
			st.runSelfNs += s.dur() - children[i]
		case "cloud.ingest":
			st.ingestNs += s.dur()
			st.ingestUs = append(st.ingestUs, float64(s.dur())/1e3)
			st.deliverUs = append(st.deliverUs, float64(deliver[i])/1e3)
			st.waitUs = append(st.waitUs, float64(s.dur()-deliver[i])/1e3)
			st.frameBytes += s.Bytes
			st.uplinkedFrames++
		}
	}
}

// tracedRun is everything a traced run measured.
type tracedRun struct {
	untraced  []iteration
	mirrors   []*mirrorRun
	replay    replayCosts
	reference replayCosts
}

// runTraced alternates an untraced fleet.Run with a mirror pass over the
// window, then replays the leaf layers on the first mirror pass's sample.
// The caches core.Pretrain fills must already be warm.
func runTraced(cfg fleet.Config, window time.Duration, minIters int) (*tracedRun, error) {
	tr := &tracedRun{}
	err := repeatFor(window, minIters, func(k int) error {
		it, err := runOnce(cfg)
		if err != nil {
			return err
		}
		tr.untraced = append(tr.untraced, it)
		m, err := runMirror(cfg, k == 0)
		if err != nil {
			return fmt.Errorf("mirror: %w", err)
		}
		tr.mirrors = append(tr.mirrors, m)
		got := [3]int{m.work.items, m.work.cloudEvents, m.sensitiveTokens}
		want := [3]int{it.fp.TotalItems, it.fp.CloudEvents, it.fp.SensitiveTokens}
		if got != want || m.ingested != m.work.cloudEvents {
			return fmt.Errorf("mirror audit (items, cloud events, sensitive tokens) = %v, ingested %d; fleet.Run gave %v",
				got, m.ingested, want)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := sameFingerprint(cfg, tr.untraced); err != nil {
		return nil, err
	}
	if tr.replay, err = replay(tr.mirrors[0].samples, cfg.Seed); err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	refs, err := referenceSamples(cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("reference devices: %w", err)
	}
	if tr.reference, err = replay(refs, cfg.Seed); err != nil {
		return nil, fmt.Errorf("reference replay: %w", err)
	}
	return tr, nil
}

// layerValues reduces a traced run to the per-layer metrics.
func (tr *tracedRun) layerValues() map[string]float64 {
	var st spanTimes
	var work workCounts
	var mirrorIPS, retained []float64
	for _, m := range tr.mirrors {
		st.add(m.tr.spans)
		work.add(m.work)
		mirrorIPS = append(mirrorIPS, float64(m.work.items)/m.wall.Seconds())
		retained = append(retained, m.retainedKB)
	}
	col := func(f func(iteration) float64) float64 { return median(column(tr.untraced, f)) }
	rc := tr.replay
	items := float64(work.items)
	v := map[string]float64{
		"fleet.peak_live_pipelines": col(func(it iteration) float64 {
			if it.async == nil {
				return 0
			}
			return float64(it.async.PeakLive)
		}),
		"fleet.parks_per_item": col(func(it iteration) float64 {
			if it.async == nil {
				return 0
			}
			return float64(it.async.Parks) / float64(it.items)
		}),
		"core.build_us":                  median(st.buildUs),
		"core.run_us_per_item":           ratio(float64(st.runNs)/1e3, items),
		"core.self_us_per_item":          ratio(float64(st.runSelfNs)/1e3, items),
		"tz.smc_per_item":                ratio(float64(work.smcs), items),
		"tz.smc_ns":                      rc.smcNs,
		"classify.text_items_per_batch":  ratio(float64(work.filterItems), float64(work.filterBatches)),
		"cloud.ingest_us_p50":            percentile(st.ingestUs, 50),
		"cloud.ingest_us_p99":            percentile(st.ingestUs, 99),
		"cloud.deliver_us_p50":           percentile(st.deliverUs, 50),
		"cloud.wait_us_p50":              percentile(st.waitUs, 50),
		"cloud.frame_kb":                 ratio(float64(st.frameBytes)/1024, float64(st.uplinkedFrames)),
		"cloud.queue_peak":               col(func(it iteration) float64 { return float64(it.queuePeak) }),
		"cloud.retained_kb_per_endpoint": median(retained),
		"sched.items_per_flush": col(func(it iteration) float64 {
			if it.sched == nil {
				return 0
			}
			return it.sched.MeanOccupancySteady
		}),
		"sched.full_flush_frac": col(func(it iteration) float64 {
			if it.sched == nil {
				return 0
			}
			return ratio(float64(it.sched.Flushes["full"]), float64(it.sched.Batches))
		}),
		"ledger.unattributed_frac": 1 - ratio(attributedNs(work, rc, st.ingestNs), float64(st.runNs)),
		"trace.overhead_frac": 1 - ratio(median(mirrorIPS),
			col(func(it iteration) float64 { return it.itemsPerS })),
	}
	for k, x := range perCallValues(rc, tr.reference) {
		v[k] = x
	}
	return v
}

// attributedNs is the part of the mirror's core.run wall time the ledger
// can name: the measured ingest seams (which hold the provider's work,
// baseline ASR included) plus, for every layer that runs on the device,
// its replayed per-call cost times the real call count. ASR is charged
// here only for secure modes; a baseline speaker's ASR is inside its
// ingest spans.
func attributedNs(w workCounts, rc replayCosts, ingestNs int64) float64 {
	per := func(c cost, n int) float64 { return ratio(c.ns, float64(n)) }
	total := float64(ingestNs)
	total += float64(w.speakerUtts) * (per(rc.synth, rc.utts) + per(rc.capture, rc.utts))
	total += float64(w.secureUtts) * per(rc.transcribe, rc.utts)
	total += float64(w.filterBatches) * per(rc.textBatch, rc.textBatches)
	total += float64(w.hybridItems) * (per(rc.heEncrypt, rc.heItems) + per(rc.heEval, rc.heItems) + per(rc.heTail, rc.heItems))
	total += float64(w.sealedUtts) * per(rc.sealUtt, rc.sealedUtts)
	total += float64(w.sealedFrames) * per(rc.sealFrame, rc.sealedFrames)
	total += float64(w.frames) * per(rc.imageSynth, rc.frames)
	total += float64(w.classifiedFrames) * per(rc.imageClassify, rc.classifiedFrames)
	total += float64(w.smcs) * rc.smcNs
	return total
}

// writeSpans dumps every mirror pass's spans as JSON lines.
func (tr *tracedRun) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for k, m := range tr.mirrors {
		for _, s := range m.tr.spans {
			if err := enc.Encode(struct {
				Trace int `json:"trace"`
				span
			}{k, s}); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
