package main

import (
	"math"
	"sort"
	"time"

	"modeldata/internal/stats"
)

// quantile is stats.Quantile (linear interpolation between order
// statistics) with NaN for an empty sample.
func quantile(xs []float64, p float64) float64 {
	q, err := stats.Quantile(xs, p)
	if err != nil {
		return math.NaN()
	}
	return q
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) (exclusive method) does — the rule the
// acceptance spread is defined by.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 {
		n := len(s)
		if n == 1 {
			return s[0]
		}
		pos := float64(k) * float64(n+1) / 4 // 1-based rank
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
