// Command bench measures PeriGuard fleets end to end and layer by layer.
//
// One run, as the benchmark driver calls it, from the repository root:
//
//	bash bench/run.sh --workload speaker-tee --seed 1 --seconds 18 --trace 0
//
// An untraced run (--trace 0) times a cold set-up, then repeats fleet.Run
// for --seconds and prints the end-to-end metrics; a traced run
// (--trace 1) alternates fleet.Run with a timed mirror of it and replays
// the leaf layers, and prints the per-layer metrics. Both check the
// outputs (conservation, determinism across repeats, pinned fingerprints
// for seeds 1 and 2) and print one JSON object as the last line.
//
// Without --workload every workload runs -repeat times, each run in its
// own process, alternating the workload order between repeats; -out
// writes the runs for `compare <parent.json> <change.json>`.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"time"
)

// setupSamples is how many cold set-ups an untraced run times: one in
// its own process plus the rest in child processes, each cold.
const setupSamples = 5

// minRepeats keeps the quartiles of a run meaningful on a slow host.
const minRepeats = 3

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		case "setup":
			os.Exit(setupMain(os.Args[2:]))
		}
	}
	os.Exit(runMain(os.Args[1:]))
}

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
}

func (o options) args() []string {
	return []string{"--workload", o.workload, "--seed", strconv.FormatUint(o.seed, 10),
		"--seconds", strconv.Itoa(o.seconds), "--trace", strconv.Itoa(o.trace)}
}

func runMain(args []string) int {
	flags := flag.NewFlagSet("bench", flag.ContinueOnError)
	var o options
	flags.StringVar(&o.workload, "workload", "", "workload to run; empty runs every workload -repeat times")
	flags.Uint64Var(&o.seed, "seed", 1, "workload seed")
	flags.IntVar(&o.seconds, "seconds", 18, "measuring window per run, in seconds")
	flags.IntVar(&o.trace, "trace", 0, "1 prints per-layer metrics from a traced run, 0 end-to-end metrics")
	repeat := flags.Int("repeat", 3, "runs per workload without --workload")
	out := flags.String("out", "", "write the runs of a -repeat suite to this file, appending to one made with the same settings")
	if err := flags.Parse(args); err != nil {
		return 2
	}
	if o.trace != 0 && o.trace != 1 {
		fmt.Fprintln(os.Stderr, "--trace must be 0 or 1")
		return 2
	}
	if o.workload == "" {
		return suiteMain(o, *repeat, *out)
	}
	w, ok := workloadByName(o.workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", o.workload)
		return 2
	}
	pinRuntime()
	res, err := runWorkload(w, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s seed %d: %v\n", w.name, o.seed, err)
		res.Correct = false
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runWorkload performs one measured run. On error the returned result
// still carries what was counted, with Correct false.
func runWorkload(w workload, o options) (result, error) {
	res := result{Metrics: map[string]value{}}
	pins, err := loadPins()
	if err != nil {
		return res, err
	}
	cfg := w.config(o.seed, 1)
	window := time.Duration(o.seconds) * time.Second
	setup, err := timeSetup(cfg) // cold in this process; warms the caches every repeat hits
	if err != nil {
		return res, err
	}

	var vals map[string]float64
	var iters []iteration
	specs := endToEnd
	if o.trace == 1 {
		specs = perLayer
		tr, err := runTraced(cfg, window, minRepeats)
		if err != nil {
			return res, err
		}
		iters = tr.untraced
		for _, m := range tr.mirrors {
			res.Attempted += m.work.items
			res.Failed += m.failed
		}
		vals = tr.layerValues()
		path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", w.name, cfg.Seed))
		if err := tr.writeSpans(path); err != nil {
			fmt.Fprintf(os.Stderr, "writing spans: %v\n", err)
		}
	} else {
		samples := []float64{setup}
		for len(samples) < setupSamples {
			s, err := childSetup(o)
			if err != nil {
				return res, err
			}
			samples = append(samples, s)
		}
		if iters, err = runUntraced(cfg, window, minRepeats); err != nil {
			return res, err
		}
		vals = endToEndValues(samples, iters)
	}
	for _, it := range iters {
		res.Attempted += it.items
		res.Failed += it.failed
	}
	fp := iters[0].fp
	fmt.Printf("%s seed %d: %d repeats, fingerprint %v\n", w.name, cfg.Seed, len(iters), fp)
	if res.Metrics, err = metricSet(specs, vals); err != nil {
		return res, err
	}
	for _, s := range specs {
		fmt.Printf("  %-32s %14.6g %s\n", s.Name, vals[s.Name], s.Unit)
	}
	if err := pins.checkPin(w.name, cfg.Seed, fp.reproducible(cfg)); err != nil {
		return res, err
	}
	res.Correct = true
	return res, nil
}

// childSetup times one cold set-up in a fresh process.
func childSetup(o options) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "setup", "--workload", o.workload, "--seed", strconv.FormatUint(o.seed, 10))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("set-up child: %w", err)
	}
	return strconv.ParseFloat(string(bytes.TrimSpace(out)), 64)
}

// setupMain is the child side of childSetup: it prints the seconds one
// cold set-up took.
func setupMain(args []string) int {
	flags := flag.NewFlagSet("setup", flag.ContinueOnError)
	name := flags.String("workload", "", "workload")
	seed := flags.Uint64("seed", 1, "workload seed")
	if err := flags.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *name)
		return 2
	}
	pinRuntime()
	s, err := timeSetup(w.config(*seed, 1))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Println(s)
	return 0
}

// suiteMain runs every workload repeat times, each run in a child
// process, reversing the workload order on odd repeats so slow drift of
// the host is spread over the workloads. It prints median, quartiles and
// n per (workload, metric). An existing -out file made with the same
// settings is appended to, so a parent's and a change's suites can be
// grown one repeat at a time, alternating which side runs first.
func suiteMain(o options, repeat int, out string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	s := suite{Seed: o.seed, Seconds: o.seconds, Trace: o.trace, Runs: map[string][]result{}}
	if out != "" {
		prev, err := readSuite(out)
		switch {
		case errors.Is(err, fs.ErrNotExist):
		case err != nil:
			fmt.Fprintln(os.Stderr, err)
			return 1
		case prev.Seed != s.Seed || prev.Seconds != s.Seconds || prev.Trace != s.Trace:
			fmt.Fprintf(os.Stderr, "%s holds runs with seed %d, %d s, trace %d; not appending\n", out, prev.Seed, prev.Seconds, prev.Trace)
			return 2
		default:
			s = prev
		}
	}
	ok := true
	for r := 0; r < repeat; r++ {
		order := slices.Clone(workloads)
		if r%2 == 1 {
			slices.Reverse(order)
		}
		for _, w := range order {
			o.workload = w.name
			fmt.Fprintf(os.Stderr, "repeat %d/%d: %s\n", r+1, repeat, w.name)
			cmd := exec.Command(exe, o.args()...)
			cmd.Stderr = os.Stderr
			stdout, runErr := cmd.Output()
			lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
			var res result
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				fmt.Fprintf(os.Stderr, "%s: no result (%v, %v)\n", w.name, runErr, err)
				ok = false
				continue
			}
			ok = ok && res.Correct && runErr == nil
			s.Runs[w.name] = append(s.Runs[w.name], res)
		}
	}
	specs := endToEnd
	if o.trace == 1 {
		specs = perLayer
	}
	fmt.Printf("%-14s %-32s %14s %14s %14s %3s  %s\n", "workload", "metric", "median", "q1", "q3", "n", "unit")
	for _, w := range workloads {
		for _, spec := range specs {
			sm := summarize(readings(s.Runs[w.name], spec.Name))
			fmt.Printf("%-14s %-32s %14.6g %14.6g %14.6g %3d  %s\n", w.name, spec.Name, sm.Median, sm.Q1, sm.Q3, sm.N, spec.Unit)
		}
		fmt.Printf("%-14s %-32s %14.6g\n", w.name, "failed_frac", failedShare(s.Runs[w.name]))
	}
	if out != "" {
		b, err := json.MarshalIndent(s, "", " ")
		if err == nil {
			err = os.WriteFile(out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	if !ok {
		return 1
	}
	return 0
}
