package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// suite is a set of repeated runs, as -repeat writes it and compare
// reads it. Runs of one workload are listed in the order they ran.
type suite struct {
	Seed    uint64              `json:"seed"`
	Seconds int                 `json:"seconds"`
	Trace   int                 `json:"trace"`
	Runs    map[string][]result `json:"runs"`
}

func readSuite(path string) (suite, error) {
	var s suite
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// Verdicts of the comparator.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// comparison is the verdict on one (metric, workload) pair.
type comparison struct {
	Workload, Metric string
	Parent, Change   summary
	// Wins is the share of run pairs (parent run i, change run i) the
	// change reads better in; ties count for neither side.
	Wins    float64
	Verdict string
}

// judge compares paired runs of one metric by the rules of a gain claim:
//   - improved: the change wins at least nine tenths of the pairs and its
//     median is better than the parent's by more than the parent's
//     interquartile range;
//   - unresolved: the parent's own spread is wider than the bound, unless
//     every change run reads better than every parent run;
//   - regressed: the change's median is worse than the parent's by more
//     than the bound;
//   - unchanged otherwise.
func judge(parent, change []float64, spec metricSpec) (string, float64) {
	sign := 1.0
	if spec.Better == lower {
		sign = -1
	}
	pairs, wins := min(len(parent), len(change)), 0
	for i := 0; i < pairs; i++ {
		if sign*(change[i]-parent[i]) > 0 {
			wins++
		}
	}
	share := ratio(float64(wins), float64(pairs))
	p, c := summarize(parent), summarize(change)
	iqr := p.Q3 - p.Q1
	gain := sign * (c.Median - p.Median) // > 0: the change is better
	wide := iqr > spec.Bound*math.Abs(p.Median)
	separated := len(parent) > 0 && len(change) > 0 &&
		sign*(worst(change, sign)-best(parent, sign)) > 0
	switch {
	case gain > 0 && share >= 0.9 && gain > iqr && (!wide || separated):
		return improved, share
	case wide && !separated:
		return unresolved, share
	case -gain > spec.Bound*math.Abs(p.Median):
		return regressed, share
	default:
		return unchanged, share
	}
}

// best and worst are the extreme readings in the metric's direction.
func best(vs []float64, sign float64) float64 {
	b := vs[0]
	for _, v := range vs {
		if sign*(v-b) > 0 {
			b = v
		}
	}
	return b
}

func worst(vs []float64, sign float64) float64 { return best(vs, -sign) }

// failedShare is the share of attempted operations that failed.
func failedShare(runs []result) float64 {
	var failed, attempted int
	for _, r := range runs {
		failed += r.Failed
		attempted += r.Attempted
	}
	return ratio(float64(failed), float64(attempted))
}

func readings(runs []result, metric string) []float64 {
	var vs []float64
	for _, r := range runs {
		if v, ok := r.Metrics[metric]; ok {
			vs = append(vs, v.Value)
		}
	}
	return vs
}

// compareSuites judges every end-to-end metric on every workload both
// suites ran, plus the share of failed operations per workload: a change
// that fails more operations than its parent is a regression whatever
// its speed.
func compareSuites(parent, change suite) ([]comparison, error) {
	var out []comparison
	for _, w := range workloads {
		pr, cr := parent.Runs[w.name], change.Runs[w.name]
		if len(pr) == 0 || len(cr) == 0 {
			continue
		}
		for _, spec := range endToEnd {
			pv, cv := readings(pr, spec.Name), readings(cr, spec.Name)
			if len(pv) == 0 || len(cv) == 0 {
				return nil, fmt.Errorf("%s: no %s readings (compare needs untraced runs)", w.name, spec.Name)
			}
			v, wins := judge(pv, cv, spec)
			out = append(out, comparison{
				Workload: w.name, Metric: spec.Name,
				Parent: summarize(pv), Change: summarize(cv), Wins: wins, Verdict: v,
			})
		}
		pf, cf := failedShare(pr), failedShare(cr)
		v := unchanged
		if cf > pf {
			v = regressed
		}
		out = append(out, comparison{
			Workload: w.name, Metric: "failed_frac",
			Parent:  summary{Median: pf, Q1: pf, Q3: pf, N: len(pr)},
			Change:  summary{Median: cf, Q1: cf, Q3: cf, N: len(cr)},
			Verdict: v,
		})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("the suites share no workload")
	}
	return out, nil
}

func printComparisons(w io.Writer, cs []comparison) {
	fmt.Fprintf(w, "%-14s %-18s %12s %25s %12s %25s %5s  %s\n",
		"workload", "metric", "parent", "parent q1..q3 (n)", "change", "change q1..q3 (n)", "wins", "verdict")
	for _, c := range cs {
		fmt.Fprintf(w, "%-14s %-18s %12.6g %25s %12.6g %25s %5.2f  %s\n",
			c.Workload, c.Metric, c.Parent.Median, spread(c.Parent), c.Change.Median, spread(c.Change), c.Wins, c.Verdict)
	}
}

func spread(s summary) string {
	return fmt.Sprintf("%.6g..%.6g (%d)", s.Q1, s.Q3, s.N)
}

// compareMain implements `compare <parent.json> <change.json>`. It exits
// 1 when any pair regressed.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: compare <parent.json> <change.json>")
		return 2
	}
	parent, err := readSuite(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	change, err := readSuite(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	cs, err := compareSuites(parent, change)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	printComparisons(os.Stdout, cs)
	for _, c := range cs {
		if c.Verdict == regressed {
			return 1
		}
	}
	return 0
}
