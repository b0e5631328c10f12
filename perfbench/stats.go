package main

import (
	"math"
	"sort"
	"time"
)

// ms is d in milliseconds.
func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

// quantile returns the q-quantile (0 ≤ q ≤ 1) of the raw samples by
// linear interpolation between the two nearest ranks, so the 0.5
// quantile is the ordinary median. It sorts a copy and returns 0 for
// no samples.
func quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(samples []float64) float64 { return quantile(samples, 0.5) }

// beyond counts the samples ranked above the q-quantile's position.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - int(math.Floor(q*float64(n-1)))
}

// tailLevels are the tail percentiles considered, highest first.
var tailLevels = []float64{0.999, 0.99, 0.9}

// minBeyond is the number of samples that must lie beyond a tail
// percentile before it is reported.
const minBeyond = 10

// tail is the highest percentile in tailLevels with at least minBeyond
// samples beyond it, as its level and value. ok is false when even the
// lowest level has too few samples behind it; the tail is then not
// reported.
func tail(samples []float64) (level, value float64, ok bool) {
	for _, q := range tailLevels {
		if beyond(len(samples), q) >= minBeyond {
			return q, quantile(samples, q), true
		}
	}
	return 0, 0, false
}
