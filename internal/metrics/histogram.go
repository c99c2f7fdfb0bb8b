package metrics

// Fixed-bucket histograms for the telemetry registry (internal/obs).
// Unlike Recorder — which keeps every sample so percentiles are exact —
// a Histogram has a fixed memory footprint and a Merge that is a plain
// bucket-count addition, so per-shard histograms fold into a fleet view
// bit-identically regardless of merge order (the same property
// cloud.Audit.Merge gives the audit counters).

import (
	"fmt"
	"math"
	"sort"
)

// Histogram counts observations into fixed buckets. Bucket i counts
// samples v with v <= bounds[i] (and > bounds[i-1]); one overflow bucket
// counts samples above the last bound. Observe never allocates.
type Histogram struct {
	bounds []float64 // sorted upper bounds
	counts []uint64  // len(bounds)+1; last is the overflow bucket
	count  uint64
	sum    float64
}

// NewHistogram builds a histogram over the given upper bounds. Bounds
// are sorted and deduplicated; at least one bound is required.
func NewHistogram(bounds ...float64) (*Histogram, error) {
	if len(bounds) == 0 {
		return nil, fmt.Errorf("metrics: histogram needs at least one bucket bound")
	}
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	dedup := bs[:1]
	for _, b := range bs[1:] {
		if b != dedup[len(dedup)-1] {
			dedup = append(dedup, b)
		}
	}
	for _, b := range dedup {
		if math.IsNaN(b) {
			return nil, fmt.Errorf("metrics: NaN bucket bound")
		}
	}
	return &Histogram{bounds: dedup, counts: make([]uint64, len(dedup)+1)}, nil
}

// ExpBuckets returns n upper bounds growing geometrically from first by
// factor (the registry's default bucket layout).
func ExpBuckets(first, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := first
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Observe counts one sample. It never allocates (hot-path safe).
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.count++
	h.sum += v
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// Sum returns the running sum of observations.
func (h *Histogram) Sum() float64 { return h.sum }

// Buckets returns the per-bucket counts, overflow last (shared backing;
// do not mutate).
func (h *Histogram) Buckets() []uint64 { return h.counts }

// Quantile estimates the q-th quantile (0..1) from the bucket counts:
// the upper bound of the bucket holding the q-th observation. The
// overflow bucket reports the last finite bound (the estimate is
// saturating, not extrapolated).
func (h *Histogram) Quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			if i >= len(h.bounds) {
				return h.bounds[len(h.bounds)-1]
			}
			return h.bounds[i]
		}
	}
	return h.bounds[len(h.bounds)-1]
}

// Merge folds the others' buckets into h. Every histogram must share
// h's bucket layout — merging is pure per-bucket addition, so shard
// merge order can never change a count bit. Nil histograms are skipped
// (matching Recorder.Merge).
func (h *Histogram) Merge(others ...*Histogram) error {
	for _, o := range others {
		if o == nil {
			continue
		}
		if len(o.bounds) != len(h.bounds) {
			return fmt.Errorf("metrics: merging histograms with %d vs %d buckets", len(o.bounds), len(h.bounds))
		}
		for i, b := range o.bounds {
			if b != h.bounds[i] {
				return fmt.Errorf("metrics: merging histograms with different bounds (%g vs %g at %d)", b, h.bounds[i], i)
			}
		}
		for i, c := range o.counts {
			h.counts[i] += c
		}
		h.count += o.count
		h.sum += o.sum
	}
	return nil
}

// Clone returns an independent copy (merge targets start from a clone so
// per-shard histograms stay untouched).
func (h *Histogram) Clone() *Histogram {
	return &Histogram{
		bounds: h.bounds, // immutable after construction
		counts: append([]uint64(nil), h.counts...),
		count:  h.count,
		sum:    h.sum,
	}
}
