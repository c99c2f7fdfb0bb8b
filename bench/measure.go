package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
)

// fingerprint is what every run of a (workload, seed) must reproduce
// exactly: item and event counts, the provider's leak audit and the
// modelled (virtual) latencies at 1 GHz.
type fingerprint struct {
	TotalItems      int     `json:"total_items"`
	CloudEvents     int     `json:"cloud_events"`
	SensitiveTokens int     `json:"sensitive_tokens"`
	VirtualP50ms    float64 `json:"virtual_p50_ms,omitempty"`
	VirtualP99ms    float64 `json:"virtual_p99_ms,omitempty"`
}

// reproducible drops what a configuration does not reproduce run to run:
// with the shared classify scheduler, a flush's composition follows
// executor interleaving and the scheduler's clock follows whichever
// device submits first, so modelled classify waits vary. Counts and the
// audit do not.
func (f fingerprint) reproducible(cfg fleet.Config) fingerprint {
	if cfg.Sched != nil {
		f.VirtualP50ms, f.VirtualP99ms = 0, 0
	}
	return f
}

func (f fingerprint) String() string {
	return fmt.Sprintf("total_items=%d cloud_events=%d sensitive_tokens=%d virtual_p50_ms=%v virtual_p99_ms=%v",
		f.TotalItems, f.CloudEvents, f.SensitiveTokens, f.VirtualP50ms, f.VirtualP99ms)
}

// pinsJSON holds the fingerprints of seeds 1 and 2 for every workload at
// the benchmark's own size, keyed seed → workload.
//
//go:embed pins.json
var pinsJSON []byte

type pinTable map[string]map[string]fingerprint

func loadPins() (pinTable, error) {
	var p pinTable
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		return nil, fmt.Errorf("pins.json: %w", err)
	}
	return p, nil
}

// checkPin rejects a fingerprint that differs from the pinned one. Seeds
// without pins pass; a pinned seed must pin every workload.
func (p pinTable) checkPin(workload string, seed uint64, got fingerprint) error {
	bySeed, ok := p[strconv.FormatUint(seed, 10)]
	if !ok {
		return nil
	}
	want, ok := bySeed[workload]
	if !ok {
		return fmt.Errorf("seed %d has pins but none for %s", seed, workload)
	}
	if got != want {
		return fmt.Errorf("%s seed %d fingerprint mismatch:\n  got  %v\n  want %v", workload, seed, got, want)
	}
	return nil
}

// audit checks one fleet run's conservation identity and returns its
// fingerprint and the number of operations that failed: frames shed,
// expired, lost, refused by an endpoint or rejected at admission.
func audit(res *fleet.Result) (fingerprint, int, error) {
	ingested, shed, expired := int(res.IngestedFrames()), int(res.ShedFrames()), res.ExpiredFrames()
	var shardErrs, rejected int
	for _, s := range res.ShardStats {
		shardErrs += int(s.Errors)
		rejected += int(s.Rejected)
	}
	fp := fingerprint{
		TotalItems:      res.TotalItems,
		CloudEvents:     res.ExpectedCloudEvents,
		SensitiveTokens: res.Audit.SensitiveTokens,
		VirtualP50ms:    res.Latency.Percentile(50) / 1e6,
		VirtualP99ms:    res.Latency.Percentile(99) / 1e6,
	}
	failed := shed + expired + res.LostFrames() + shardErrs + rejected
	if res.ExpectedCloudEvents != ingested+shed+expired {
		return fp, failed, fmt.Errorf("conservation broken: expected %d != ingested %d + shed %d + expired %d",
			res.ExpectedCloudEvents, ingested, shed, expired)
	}
	if lost := res.LostFrames(); lost != 0 {
		return fp, failed, fmt.Errorf("%d frames lost", lost)
	}
	return fp, failed, nil
}

// iteration is one untraced fleet.Run and what it cost.
type iteration struct {
	itemsPerS      float64
	cpuMsPerItem   float64
	allocKBPerItem float64
	allocsPerItem  float64
	peakRSSMB      float64
	items, failed  int
	fp             fingerprint
	queuePeak      int
	sched          *fleet.SchedReport
	async          *fleet.AsyncReport
}

// runOnce times one fleet.Run from a collected heap, so garbage left by
// the previous repeat is not charged to this one.
func runOnce(cfg fleet.Config) (iteration, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0, err := cpuTime()
	if err != nil {
		return iteration{}, err
	}
	rss := watchRSS()
	res, err := fleet.Run(cfg)
	peakRSS, rssErr := rss.stop()
	if err != nil {
		return iteration{}, fmt.Errorf("fleet run: %w", err)
	}
	if rssErr != nil {
		return iteration{}, rssErr
	}
	cpu1, err := cpuTime()
	if err != nil {
		return iteration{}, err
	}
	runtime.ReadMemStats(&m1)
	fp, failed, err := audit(res)
	if err != nil {
		return iteration{}, err
	}
	items := float64(res.TotalItems)
	it := iteration{
		itemsPerS:      res.Throughput(),
		cpuMsPerItem:   float64(cpu1-cpu0) / 1e6 / items,
		allocKBPerItem: float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / items,
		allocsPerItem:  float64(m1.Mallocs-m0.Mallocs) / items,
		peakRSSMB:      peakRSS,
		items:          res.TotalItems,
		failed:         failed,
		fp:             fp,
		sched:          res.Sched,
		async:          res.Async,
	}
	for _, s := range res.ShardStats {
		it.queuePeak = max(it.queuePeak, s.QueuePeak)
	}
	return it, nil
}

// repeatFor calls fn with 0, 1, 2, ... until the window has elapsed and
// fn has run at least minIters times.
func repeatFor(window time.Duration, minIters int, fn func(k int) error) error {
	start := time.Now()
	for k := 0; k < minIters || time.Since(start) < window; k++ {
		if err := fn(k); err != nil {
			return err
		}
	}
	return nil
}

// sameFingerprint checks that a repeat reproduced the first run.
func sameFingerprint(cfg fleet.Config, iters []iteration) error {
	want := iters[0].fp.reproducible(cfg)
	for k, it := range iters[1:] {
		if it.fp.reproducible(cfg) != want {
			return fmt.Errorf("repeat %d diverged from repeat 0:\n  got  %v\n  want %v", k+1, it.fp, iters[0].fp)
		}
	}
	return nil
}

// runUntraced repeats fleet.Run over the window; the caches core.Pretrain
// fills must already be warm.
func runUntraced(cfg fleet.Config, window time.Duration, minIters int) ([]iteration, error) {
	var iters []iteration
	err := repeatFor(window, minIters, func(int) error {
		it, err := runOnce(cfg)
		iters = append(iters, it)
		return err
	})
	if err != nil {
		return nil, err
	}
	return iters, sameFingerprint(cfg, iters)
}

// column collects one reading per repeat.
func column(iters []iteration, f func(iteration) float64) []float64 {
	vs := make([]float64, len(iters))
	for i, it := range iters {
		vs[i] = f(it)
	}
	return vs
}

// endToEndValues reduces a run's repeats to one reading per metric.
// Wall and CPU times take the least disturbed quartile of the repeats:
// the upper quartile of throughput, the lower quartile of CPU per item
// and of the cold set-ups. Other tenants of a shared host only ever slow
// a repeat, and on a 2-vCPU VM the fastest repeats of one process agreed
// within about 2% while its medians drifted by 8%. Counts and memory take
// the median.
func endToEndValues(setup []float64, iters []iteration) map[string]float64 {
	col := func(f func(iteration) float64) [3]float64 { return quartiles(column(iters, f)) }
	return map[string]float64{
		"setup_s":           quartiles(setup)[0],
		"items_per_s":       col(func(it iteration) float64 { return it.itemsPerS })[2],
		"cpu_ms_per_item":   col(func(it iteration) float64 { return it.cpuMsPerItem })[0],
		"alloc_kb_per_item": col(func(it iteration) float64 { return it.allocKBPerItem })[1],
		"allocs_per_item":   col(func(it iteration) float64 { return it.allocsPerItem })[1],
		"peak_rss_mb":       col(func(it iteration) float64 { return it.peakRSSMB })[1],
	}
}

// timeSetup is the cold set-up a fleet operator pays before the first
// item: planning the population and training the shared model pack. Only
// the first call in a process is cold.
func timeSetup(cfg fleet.Config) (float64, error) {
	start := time.Now()
	specs, err := fleet.Plan(cfg)
	if err != nil {
		return 0, err
	}
	if err := core.Pretrain(specs); err != nil {
		return 0, fmt.Errorf("pretrain: %w", err)
	}
	return time.Since(start).Seconds(), nil
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// rssWatch polls the process's resident set size during one repeat and
// keeps the highest reading. A repeat's own peak, rather than the
// process's high-water mark (the most extreme repeat), lets the median
// over repeats smooth the async engine's swing in live pipelines from
// one repeat to the next.
type rssWatch struct {
	done chan struct{}
	out  chan rssPeak
}

type rssPeak struct {
	mb  float64
	err error
}

// rssPoll is fine enough to see a repeat's peak: the heap grows over
// many milliseconds of allocation.
const rssPoll = 5 * time.Millisecond

func watchRSS() *rssWatch {
	w := &rssWatch{done: make(chan struct{}), out: make(chan rssPeak, 1)}
	go func() {
		var p rssPeak
		tick := time.NewTicker(rssPoll)
		defer tick.Stop()
		for {
			mb, err := residentMB()
			if err != nil {
				p.err = err
			}
			p.mb = max(p.mb, mb)
			select {
			case <-w.done:
				w.out <- p
				return
			case <-tick.C:
			}
		}
	}()
	return w
}

// stop ends the polling and returns the peak, after one last reading.
func (w *rssWatch) stop() (float64, error) {
	close(w.done)
	p := <-w.out
	return p.mb, p.err
}

// residentMB reads the resident set size from /proc/self/statm.
func residentMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, fmt.Errorf("resident set: %w", err)
	}
	fields := strings.Fields(string(b))
	if len(fields) < 2 {
		return 0, fmt.Errorf("resident set: statm %q", b)
	}
	pages, err := strconv.ParseUint(fields[1], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("resident set: %w", err)
	}
	return float64(pages) * float64(os.Getpagesize()) / (1 << 20), nil
}
