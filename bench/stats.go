package main

import (
	"math"
	"sort"
)

// summary is a metric's spread over repeated measurements.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// summarize computes median and quartiles the way Python's
// statistics.quantiles(values, n=4) does (its default "exclusive"
// method), so the spreads printed here are the ones a reviewer gets from
// the same numbers.
func summarize(values []float64) summary {
	q := quartiles(values)
	return summary{Median: q[1], Q1: q[0], Q3: q[2], N: len(values)}
}

// quartiles returns the three cut points of statistics.quantiles(n=4,
// method="exclusive"). One value is its own quartiles; no values give NaN.
func quartiles(values []float64) [3]float64 {
	d := sorted(values)
	ld := len(d)
	switch ld {
	case 0:
		return [3]float64{math.NaN(), math.NaN(), math.NaN()}
	case 1:
		return [3]float64{d[0], d[0], d[0]}
	}
	const n = 4
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := min(max(i*m/n, 1), ld-1)
		delta := float64(i*m - j*n)
		out[i-1] = (d[j-1]*(n-delta) + d[j]*delta) / n
	}
	return out
}

func median(values []float64) float64 { return quartiles(values)[1] }

// percentile interpolates linearly between the closest ranks; p is in
// [0, 100]. No values give 0.
func percentile(values []float64, p float64) float64 {
	d := sorted(values)
	if len(d) == 0 {
		return 0
	}
	rank := p / 100 * float64(len(d)-1)
	lo := int(math.Floor(rank))
	hi := min(lo+1, len(d)-1)
	return d[lo] + (d[hi]-d[lo])*(rank-float64(lo))
}

func sorted(values []float64) []float64 {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	return d
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
