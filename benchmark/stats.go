package main

import (
	"math"
	"sort"
	"time"
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of xs; 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank p-th percentile: the smallest sample with
// at least p% of the samples at or below it.
func percentile(xs []float64, p int) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	return s[percentileRank(len(s), p)-1]
}

func percentileRank(n, p int) int {
	k := (p*n + 99) / 100
	if k < 1 {
		k = 1
	}
	return k
}

// tailPercentile returns the highest whole percentile, at most limit, whose
// nearest-rank sample has at least ten samples beyond it. A tail that thin
// is one or two outliers, not a percentile, so with too few samples for any
// percentile above the median ok is false and callers report the median.
func tailPercentile(n, limit int) (p int, ok bool) {
	if n <= 10 {
		return 0, false
	}
	p = 100 * (n - 10) / n
	if p > limit {
		p = limit
	}
	return p, p > 50
}

// geomean of positive samples; 0 for an empty slice.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// quartiles returns Q1 and Q3 as Python's statistics.quantiles(xs, n=4)
// (the default "exclusive" method) computes them; it needs two samples.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	m := len(s)
	at := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the run-to-run spread as a share of the median: the quartile
// distance with four or more samples, the full range with two or three, and
// unknown (ok false) with one.
func spread(xs []float64) (share float64, ok bool) {
	med := median(xs)
	if len(xs) < 2 || med == 0 {
		return 0, false
	}
	if len(xs) < 4 {
		s := sorted(xs)
		return math.Abs((s[len(s)-1] - s[0]) / med), true
	}
	q1, q3 := quartiles(xs)
	return math.Abs((q3 - q1) / med), true
}

// sampleSet is one metric's samples with their summary.
type sampleSet struct {
	Unit    string    `json:"unit"`
	Median  float64   `json:"median"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples"`
}

func summarize(unit string, xs []float64) sampleSet {
	s := sorted(xs)
	set := sampleSet{Unit: unit, Median: median(xs), N: len(xs), Samples: xs}
	if len(s) > 0 {
		set.Min, set.Max = s[0], s[len(s)-1]
	}
	return set
}

func seconds(d time.Duration) float64 { return d.Seconds() }
func millis(d time.Duration) float64  { return float64(d) / float64(time.Millisecond) }
func micros(d time.Duration) float64  { return float64(d) / float64(time.Microsecond) }
