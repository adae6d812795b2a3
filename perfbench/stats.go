package main

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// minBeyond is the fewest samples a reported percentile must have above it:
// a p99 read off 300 samples is the third-largest value, not a tail.
const minBeyond = 10

// Quantile is one exact order statistic of raw samples, reported with the
// sample count it came from.
type Quantile struct {
	Q     float64 // the requested quantile, e.g. 0.99
	Value float64 // in the samples' unit
	N     int     // samples the statistic was taken over
	Max   float64 // the largest sample, which Value never exceeds
}

// quantile returns the nearest-rank q-quantile of samples (sorted in place):
// the sample at rank ⌈q·N⌉. It refuses when fewer than minBeyond samples lie
// above that rank, and clamps to the observed maximum, so a reported tail is
// always a value that was actually seen.
func quantile(samples []float64, q float64) (Quantile, error) {
	n := len(samples)
	if n == 0 {
		return Quantile{}, fmt.Errorf("p%g of no samples", 100*q)
	}
	slices.Sort(samples)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minBeyond {
		return Quantile{}, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", 100*q, n, beyond, minBeyond)
	}
	out := Quantile{Q: q, Value: samples[rank-1], N: n, Max: samples[n-1]}
	out.Value = min(out.Value, out.Max)
	return out, nil
}

// tailQuantile is the p99 when minBeyond samples lie above it, else the
// p90 — the tail a sample set can honestly report.
func tailQuantile(samples []float64) (Quantile, error) {
	if out, err := quantile(samples, 0.99); err == nil {
		return out, nil
	}
	return quantile(samples, 0.90)
}

// windowQuantile is the median over consecutive windows of n rounds of each
// window's q-quantile; cuts[i] is where round i's samples begin. Every window
// must meet quantile's rule on its own. It also returns the window count; a
// last window shorter than n rounds is left out.
func windowQuantile(samples []float64, cuts []int, n int, q float64) (Quantile, int, error) {
	var values []float64
	out := Quantile{Q: q, N: len(samples)}
	for i := 0; i+n <= len(cuts); i += n {
		end := len(samples)
		if i+n < len(cuts) {
			end = cuts[i+n]
		}
		w, err := quantile(slices.Clone(samples[cuts[i]:end]), q)
		if err != nil {
			return Quantile{}, 0, fmt.Errorf("window %d: %w", i/n, err)
		}
		values = append(values, w.Value)
		out.Max = max(out.Max, w.Max)
	}
	if len(values) == 0 {
		return Quantile{}, 0, fmt.Errorf("p%g: fewer than %d rounds", 100*q, n)
	}
	out.Value = medianOf(values)
	return out, len(values), nil
}

// median is the p50 of samples, which must hold at least 2·minBeyond values.
func median(samples []float64) (Quantile, error) { return quantile(samples, 0.5) }

// medianOf is the plain (lower) median of repeated measurements or
// per-span times, where no tail is reported and the rank rule does not
// apply; it is 0 for a layer with no samples.
func medianOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[(len(s)-1)/2]
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
