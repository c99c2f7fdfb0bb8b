package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"slices"
	"testing"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func TestMetricAndWorkloadNames(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range slices.Concat(endToEnd, perLayer) {
		if !metricName.MatchString(s.Name) || len(s.Name) > 64 {
			t.Errorf("metric name %q", s.Name)
		}
		if seen[s.Name] {
			t.Errorf("metric %q declared twice", s.Name)
		}
		seen[s.Name] = true
		if s.Better != lower && s.Better != higher {
			t.Errorf("%s: better = %q", s.Name, s.Better)
		}
	}
	for _, w := range workloads {
		if !metricName.MatchString(w.name) {
			t.Errorf("workload name %q", w.name)
		}
	}
}

// The metric set the benchmark emits is the one BENCHMARK.json declares,
// in both directions, with the same units, directions and bounds.
func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricSpec `json:"end_to_end"`
		PerLayer  []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(decl.EndToEnd, endToEnd) {
		t.Errorf("end_to_end:\n  BENCHMARK.json %v\n  bench          %v", decl.EndToEnd, endToEnd)
	}
	if !slices.Equal(decl.PerLayer, perLayer) {
		t.Errorf("per_layer:\n  BENCHMARK.json %v\n  bench          %v", decl.PerLayer, perLayer)
	}
	var names []string
	for _, w := range decl.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if !slices.Equal(names, ours) {
		t.Errorf("workloads: BENCHMARK.json %v, bench %v", names, ours)
	}
}

func TestMetricSetRejectsMissingAndUndeclared(t *testing.T) {
	vals := map[string]float64{}
	for _, s := range endToEnd {
		vals[s.Name] = 1
	}
	if _, err := metricSet(endToEnd, vals); err != nil {
		t.Fatalf("complete set rejected: %v", err)
	}
	vals["made_up"] = 1
	if _, err := metricSet(endToEnd, vals); err == nil {
		t.Error("undeclared metric accepted")
	}
	delete(vals, "made_up")
	delete(vals, "items_per_s")
	if _, err := metricSet(endToEnd, vals); err == nil {
		t.Error("missing metric accepted")
	}
}

// Expected values are Python's statistics.quantiles(data, n=4).
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{4, 1, 3, 2}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		if got := quartiles(c.in); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if s := summarize([]float64{10, 30, 20}); s.Median != 20 || s.N != 3 {
		t.Errorf("summarize = %+v", s)
	}
}

func TestPercentile(t *testing.T) {
	vs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {10, 1.4}, {25, 2}, {50, 3}, {100, 5}} {
		if got := percentile(vs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
}

func around(center, step float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = center + step*float64(i%5-2)
	}
	return out
}

func TestJudge(t *testing.T) {
	throughput := metricSpec{"items_per_s", "items/s", higher, 0.10}
	cpu := metricSpec{"cpu_ms_per_item", "ms", lower, 0.10}
	noise := around(100, 0.5, 10)
	shuffled := slices.Clone(noise)
	slices.Reverse(shuffled)
	for _, c := range []struct {
		name           string
		parent, change []float64
		spec           metricSpec
		want           string
	}{
		{"clear win", around(100, 1, 10), around(120, 1, 10), throughput, improved},
		{"clear win, lower is better", around(2, 0.01, 10), around(1.5, 0.01, 10), cpu, improved},
		{"pure noise", noise, shuffled, throughput, unchanged},
		{"small loss within the bound", around(100, 1, 10), around(95, 1, 10), throughput, unchanged},
		{"regression", around(100, 1, 10), around(85, 1, 10), throughput, regressed},
		{"regression, lower is better", around(2, 0.01, 10), around(2.4, 0.01, 10), cpu, regressed},
		{"unresolved", around(100, 20, 10), around(90, 20, 10), throughput, unresolved},
		{"wide but separated", around(100, 20, 10), around(300, 1, 10), throughput, improved},
	} {
		if got, _ := judge(c.parent, c.change, c.spec); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFlagsMoreFailures(t *testing.T) {
	run := func(failed int) result {
		m := map[string]value{}
		for _, s := range endToEnd {
			m[s.Name] = value{Value: 1, Unit: s.Unit}
		}
		return result{Correct: true, Attempted: 1000, Failed: failed, Metrics: m}
	}
	parent := suite{Runs: map[string][]result{"doorbell": {run(0), run(0)}}}
	change := suite{Runs: map[string][]result{"doorbell": {run(0), run(3)}}}
	cs, err := compareSuites(parent, change)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cs {
		want := unchanged
		if c.Metric == "failed_frac" {
			want = regressed
		}
		if c.Verdict != want {
			t.Errorf("%s: %s, want %s", c.Metric, c.Verdict, want)
		}
	}
}

func TestPinsRejectWrongFingerprint(t *testing.T) {
	pins, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []string{"1", "2"} {
		if len(pins[seed]) != len(workloads) {
			t.Errorf("seed %s pins %d workloads, want %d", seed, len(pins[seed]), len(workloads))
		}
	}
	good := pins["1"]["speaker-tee"]
	if err := pins.checkPin("speaker-tee", 1, good); err != nil {
		t.Fatalf("pinned fingerprint rejected: %v", err)
	}
	bad := good
	bad.CloudEvents++
	if err := pins.checkPin("speaker-tee", 1, bad); err == nil {
		t.Error("wrong cloud_events accepted")
	}
	bad = good
	bad.VirtualP99ms *= 1.000001
	if err := pins.checkPin("speaker-tee", 1, bad); err == nil {
		t.Error("wrong virtual_p99_ms accepted")
	}
	if err := pins.checkPin("speaker-tee", 3, bad); err != nil {
		t.Errorf("unpinned seed rejected: %v", err)
	}
}

func TestRepeatsMustReproduce(t *testing.T) {
	a := iteration{fp: fingerprint{TotalItems: 4, CloudEvents: 3, VirtualP50ms: 1, VirtualP99ms: 2}}
	b := a
	b.fp.VirtualP99ms = 2.5
	plain := workloads[0].config(1, 1)
	if err := sameFingerprint(plain, []iteration{a, b}); err == nil {
		t.Error("diverging latency accepted without a scheduler")
	}
	w, _ := workloadByName("sched-async")
	if err := sameFingerprint(w.config(1, 1), []iteration{a, b}); err != nil {
		t.Errorf("scheduled latency must not be part of the fingerprint: %v", err)
	}
	b.fp.CloudEvents++
	if err := sameFingerprint(w.config(1, 1), []iteration{a, b}); err == nil {
		t.Error("diverging counts accepted under the scheduler")
	}
}

// A small-population pass over every workload, untraced and traced: the
// correctness gate, mirror and replay fidelity checks must hold and every
// declared metric must come out.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		cfg := w.config(1, 0.05)
		if _, err := timeSetup(cfg); err != nil {
			t.Fatalf("%s setup: %v", w.name, err)
		}
		iters, err := runUntraced(cfg, 0, 1)
		if err != nil {
			t.Fatalf("%s untraced: %v", w.name, err)
		}
		if _, err := metricSet(endToEnd, endToEndValues([]float64{0.1}, iters)); err != nil {
			t.Errorf("%s end-to-end: %v", w.name, err)
		}
		tr, err := runTraced(cfg, 0, 1)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		vals := tr.layerValues()
		if _, err := metricSet(perLayer, vals); err != nil {
			t.Errorf("%s per-layer: %v", w.name, err)
		}
		for _, name := range []string{"core.run_us_per_item", "audio.synth_us_per_utt", "he.eval_us_per_item",
			"classify.image_us_per_frame", "relay.seal_us_per_event", "peripheral.image_us_per_frame"} {
			if !(vals[name] > 0) {
				t.Errorf("%s: %s = %v, want a measured cost", w.name, name, vals[name])
			}
		}
		if u := vals["ledger.unattributed_frac"]; math.IsNaN(u) || u >= 1 {
			t.Errorf("%s: ledger.unattributed_frac = %v", w.name, u)
		}
	}
}
