package main

import "fmt"

// metricSpec declares one reported metric. The end-to-end set carries the
// bound by which its median may worsen before a change counts as a
// regression; BENCHMARK.json repeats these declarations and a test keeps
// the two identical.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is what a fleet operator deciding whether TEE isolation is
// affordable sees: throughput at a stated population, CPU and memory per
// item, resident memory and set-up time. Printed by untraced runs.
var endToEnd = []metricSpec{
	{"setup_s", "s", lower, 0.25},
	{"items_per_s", "items/s", higher, 0.25},
	{"cpu_ms_per_item", "ms", lower, 0.25},
	{"alloc_kb_per_item", "KiB", lower, 0.06},
	{"allocs_per_item", "count", lower, 0.02},
	{"peak_rss_mb", "MiB", lower, 0.20},
}

// perLayer is printed by traced runs. Layers take their module names.
// A count the real path makes reads 0 where the workload bypasses the
// layer; a replayed per-call cost then comes from the reference devices
// (see referenceSamples).
var perLayer = []metricSpec{
	{"fleet.peak_live_pipelines", "count", lower, 0},
	{"fleet.parks_per_item", "parks/item", lower, 0},
	{"core.build_us", "us", lower, 0},
	{"core.run_us_per_item", "us/item", lower, 0},
	{"core.self_us_per_item", "us/item", lower, 0},
	{"tz.smc_per_item", "smc/item", lower, 0},
	{"tz.smc_ns", "ns", lower, 0},
	{"audio.synth_us_per_utt", "us/utt", lower, 0},
	{"audio.synth_allocs_per_utt", "allocs/utt", lower, 0},
	{"i2s.capture_us_per_utt", "us/utt", lower, 0},
	{"i2s.capture_allocs_per_utt", "allocs/utt", lower, 0},
	{"i2s.capture_kb_per_utt", "KiB/utt", lower, 0},
	{"dsp.mfcc_us_per_utt", "us/utt", lower, 0},
	{"dsp.mfcc_frames_per_utt", "frames/utt", lower, 0},
	{"dsp.mfcc_allocs_per_utt", "allocs/utt", lower, 0},
	{"asr.transcribe_us_per_utt", "us/utt", lower, 0},
	{"asr.match_self_us_per_utt", "us/utt", lower, 0},
	{"asr.segments_per_utt", "segments/utt", lower, 0},
	{"classify.text_us_per_batch", "us/batch", lower, 0},
	{"classify.text_items_per_batch", "items/batch", higher, 0},
	{"classify.image_us_per_frame", "us/frame", lower, 0},
	{"he.encrypt_us_per_item", "us/item", lower, 0},
	{"he.eval_us_per_item", "us/item", lower, 0},
	{"he.tail_us_per_item", "us/item", lower, 0},
	{"he.ciphertext_kb_per_item", "KiB/item", lower, 0},
	{"relay.seal_us_per_event", "us/event", lower, 0},
	{"relay.sealed_bytes_per_event", "B/event", lower, 0},
	{"cloud.ingest_us_p50", "us", lower, 0},
	{"cloud.ingest_us_p99", "us", lower, 0},
	{"cloud.deliver_us_p50", "us", lower, 0},
	{"cloud.wait_us_p50", "us", lower, 0},
	{"cloud.frame_kb", "KiB", lower, 0},
	{"cloud.queue_peak", "count", lower, 0},
	{"cloud.retained_kb_per_endpoint", "KiB", lower, 0},
	{"sched.items_per_flush", "items/flush", higher, 0},
	{"sched.full_flush_frac", "fraction", higher, 0},
	{"peripheral.image_us_per_frame", "us/frame", lower, 0},
	{"ledger.unattributed_frac", "fraction", lower, 0},
	{"trace.overhead_frac", "fraction", lower, 0},
}

// value is one reported metric reading.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// metricSet fills the declared metrics from vals in declaration order,
// failing loudly if the measuring code forgot one or invented another.
func metricSet(specs []metricSpec, vals map[string]float64) (map[string]value, error) {
	out := make(map[string]value, len(specs))
	for _, s := range specs {
		v, ok := vals[s.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", s.Name)
		}
		out[s.Name] = value{Value: v, Unit: s.Unit}
	}
	if len(vals) != len(specs) {
		for name := range vals {
			if _, ok := out[name]; !ok {
				return nil, fmt.Errorf("metric %s is not declared", name)
			}
		}
	}
	return out, nil
}
