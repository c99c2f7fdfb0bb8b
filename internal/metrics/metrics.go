// Package metrics provides the measurement utilities the experiment
// harness uses: latency recorders with percentile summaries, throughput
// accounting, and plain-text table/series rendering so every table and
// figure of the evaluation regenerates as aligned console output.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Recorder accumulates latency-style samples (unit-agnostic).
type Recorder struct {
	samples []float64
	sorted  bool
}

// NewRecorder creates an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Observe appends one sample.
func (r *Recorder) Observe(v float64) {
	r.samples = append(r.samples, v)
	r.sorted = false
}

// Count returns the number of samples.
func (r *Recorder) Count() int { return len(r.samples) }

// Merge folds the others' samples into r (cross-shard / cross-device
// aggregation: percentiles of the merged population, not averages of
// per-shard percentiles).
func (r *Recorder) Merge(others ...*Recorder) {
	for _, o := range others {
		if o == nil {
			continue
		}
		r.samples = append(r.samples, o.samples...)
	}
	r.sorted = false
}

// Throughput converts an item count over elapsed seconds to items/s
// (0 when elapsed is not positive).
func Throughput(items int, elapsedSeconds float64) float64 {
	if elapsedSeconds <= 0 {
		return 0
	}
	return float64(items) / elapsedSeconds
}

// Mean returns the sample mean (incremental form, immune to the sum
// overflowing even for extreme samples).
func (r *Recorder) Mean() float64 {
	var m float64
	for i, v := range r.samples {
		m += (v - m) / float64(i+1)
	}
	return m
}

// Stddev returns the population standard deviation (Welford's algorithm,
// overflow-safe and exact-zero for constant samples).
func (r *Recorder) Stddev() float64 {
	if len(r.samples) == 0 {
		return 0
	}
	var mean, m2 float64
	for i, v := range r.samples {
		delta := v - mean
		mean += delta / float64(i+1)
		m2 += delta * (v - mean)
	}
	return math.Sqrt(m2 / float64(len(r.samples)))
}

func (r *Recorder) sort() {
	if !r.sorted {
		sort.Float64s(r.samples)
		r.sorted = true
	}
}

// Percentile returns the p-th percentile (0 <= p <= 100) by nearest-rank.
func (r *Recorder) Percentile(p float64) float64 {
	if len(r.samples) == 0 {
		return 0
	}
	r.sort()
	if p <= 0 {
		return r.samples[0]
	}
	if p >= 100 {
		return r.samples[len(r.samples)-1]
	}
	rank := int(math.Ceil(p/100*float64(len(r.samples)))) - 1
	if rank < 0 {
		rank = 0
	}
	return r.samples[rank]
}

// Min and Max return the extremes.
func (r *Recorder) Min() float64 { return r.Percentile(0) }

// Max returns the largest sample.
func (r *Recorder) Max() float64 { return r.Percentile(100) }

// Summary renders mean/p50/p99 in one line with the given unit.
func (r *Recorder) Summary(unit string) string {
	return fmt.Sprintf("n=%d mean=%.1f%s p50=%.1f%s p99=%.1f%s",
		r.Count(), r.Mean(), unit, r.Percentile(50), unit, r.Percentile(99), unit)
}

// Table renders aligned plain-text tables (the harness's "paper table"
// output format).
type Table struct {
	title   string
	headers []string
	rows    [][]string
}

// NewTable creates a table with a title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{title: title, headers: headers}
}

// AddRow appends a row; values are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

func formatFloat(v float64) string {
	switch {
	case v == math.Trunc(v) && math.Abs(v) < 1e9:
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 100:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.headers)
	sep := make([]string, len(t.headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// Series is a labelled (x, y) sequence: one line of a "figure".
type Series struct {
	Name   string
	XLabel string
	YLabel string
	X      []float64
	Y      []float64
}

// Add appends one point.
func (s *Series) Add(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// String renders the series as aligned x/y pairs (figure data, printable
// and plottable).
func (s *Series) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# series: %s (%s vs %s)\n", s.Name, s.YLabel, s.XLabel)
	for i := range s.X {
		fmt.Fprintf(&b, "%12s  %12s\n", formatFloat(s.X[i]), formatFloat(s.Y[i]))
	}
	return b.String()
}

// Figure groups series that share axes.
type Figure struct {
	Title  string
	Series []*Series
}

// String renders all series.
func (f *Figure) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", f.Title)
	for _, s := range f.Series {
		b.WriteString(s.String())
	}
	return b.String()
}
