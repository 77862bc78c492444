package main

import (
	"math"
	"sort"
)

// minBeyond is the number of samples a reported tail percentile must leave
// above it, so a tail figure never rests on a handful of outliers.
const minBeyond = 10

// tailPercentile returns the highest percentile, capped at capP, that lands
// on an order statistic with at least minBeyond of the n samples above it,
// and false when n is too small for any.
func tailPercentile(n int, capP float64) (float64, bool) {
	if n < minBeyond+1 {
		return 0, false
	}
	// Percentile p sits at position p/100·(n−1); the samples beyond it are
	// those above index ceil(pos), so pos may reach at most n−1−minBeyond.
	p := 100 * float64(n-1-minBeyond) / float64(n-1)
	return math.Min(p, capP), true
}

// percentileSorted is the p-th percentile of an ascending slice, linearly
// interpolated between order statistics.
func percentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// dist summarises a timing sample the way every latency figure is reported:
// the median, the tail percentile tailPercentile allows (at most p99), and
// the sample count both rest on.
type dist struct {
	N     int     `json:"n"`
	P50   float64 `json:"p50"`
	TailP float64 `json:"tail_p"`
	Tail  float64 `json:"tail"`
	Mean  float64 `json:"mean"`
	Max   float64 `json:"max"`
}

// summarize sorts xs in place and describes it; an empty or too-small
// sample reports its median (or zeros) as the tail.
func summarize(xs []float64) dist {
	if len(xs) == 0 {
		return dist{}
	}
	sort.Float64s(xs)
	var sum float64
	for _, x := range xs {
		sum += x
	}
	d := dist{N: len(xs), P50: percentileSorted(xs, 50), Mean: sum / float64(len(xs)), Max: xs[len(xs)-1]}
	d.TailP, d.Tail = 50, d.P50
	if p, ok := tailPercentile(len(xs), 99); ok && p > 50 {
		d.TailP, d.Tail = p, percentileSorted(xs, p)
	}
	return d
}

// median returns the median of xs without modifying it, or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	return percentileSorted(ys, 50)
}

// nsToUs converts a slice of nanosecond samples to microseconds.
func nsToUs[T int64 | uint32](ns []T) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e3
	}
	return out
}
