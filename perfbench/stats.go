package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile: a
// tail figure resting on fewer is noise, not a measurement.
const minTail = 10

// rank returns the 1-based nearest-rank position of the p-th percentile
// (0 < p ≤ 100) in n sorted samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	return max(1, min(r, n))
}

// beyond returns how many of n samples lie strictly above the p-th
// percentile's rank.
func beyond(n int, p float64) int { return n - rank(n, p) }

// minSamples returns the smallest sample count at which the p-th percentile
// (p < 100) has at least minTail samples beyond it.
func minSamples(p float64) int {
	if p >= 100 {
		panic("minSamples: nothing lies beyond p100")
	}
	n := minTail + 1
	for beyond(n, p) < minTail {
		n++
	}
	return n
}

// percentile returns the nearest-rank p-th percentile of xs, which it
// sorts in place. It fails when xs is empty or when fewer than minTail
// samples lie beyond the rank (p = 50 is exempt: a median needs no tail).
func percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("p%g of no samples", p)
	}
	if p > 50 && beyond(len(xs), p) < minTail {
		err := fmt.Errorf("p%g of %d samples has %d beyond it, want ≥%d", p, len(xs), beyond(len(xs), p), minTail)
		if p < 100 {
			err = fmt.Errorf("%w (need %d samples)", err, minSamples(p))
		}
		return 0, err
	}
	sort.Float64s(xs)
	return xs[rank(len(xs), p)-1], nil
}

// median is percentile(xs, 50) for callers that know xs is non-empty; an
// empty sample reads as 0.
func median(xs []float64) float64 {
	v, err := percentile(xs, 50)
	if err != nil {
		return 0
	}
	return v
}

// mean returns the arithmetic mean (0 for an empty sample).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// medianDuration returns the median of ds in milliseconds.
func medianDuration(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = ms(d)
	}
	return median(xs)
}
