package main

import (
	"math"
	"sort"
	"time"
)

// classStats is one operation class's outcome in a window: how many
// operations were attempted, how many failed, and the latency of every
// completed one in microseconds.
type classStats struct {
	attempted int64
	failed    int64
	us        []float64
}

func (c *classStats) observe(d time.Duration, ok bool) {
	c.attempted++
	if !ok {
		c.failed++
		return
	}
	c.us = append(c.us, float64(d.Nanoseconds())/1e3)
}

func (c *classStats) merge(o *classStats) {
	c.attempted += o.attempted
	c.failed += o.failed
	c.us = append(c.us, o.us...)
}

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs,
// sorting xs in place. Zero for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	return xs[rank-1]
}

// median of xs without disturbing the caller's order.
func median(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	n := len(c)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return c[n/2]
	default:
		return (c[n/2-1] + c[n/2]) / 2
	}
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (the default "exclusive"
// method), so the steadiness mode reports the spreads the same way a
// Python reader computes them. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	n := len(c)
	if n < 2 {
		if n == 1 {
			return c[0], c[0], c[0]
		}
		return 0, 0, 0
	}
	m := n + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (c[j-1]*float64(4-delta) + c[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}
