package main

import (
	"math"
	"sort"
)

// percentile reports the p'th percentile (0 < p <= 1) of xs by the
// nearest-rank rule: the smallest value with at least p of the samples
// at or below it. It never interpolates, so the result is always a
// measured sample. xs is not modified; an empty slice reports 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}

// median reports the middle sample (mean of the middle two when even).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles reports the first and third quartile exactly the way
// Python's statistics.quantiles(xs, n=4) does (the default "exclusive"
// method, including its extrapolation on very short inputs), which is
// the rule the acceptance driver applies to run-to-run spreads. Fewer
// than two samples report the sample itself.
func quartiles(xs []float64) (q1, q3 float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	if len(xs) == 1 {
		return xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		const n = 4
		ld := len(s)
		m := ld + 1
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return at(1), at(3)
}

// dist summarises one metric over a run's sliding windows.
type dist struct {
	// Best is the reported value: the best window (max when higher is
	// better, min otherwise). Interference on a shared machine only
	// ever slows a window down, so the best window is the most
	// repeatable statistic of a run (see README, "Noise").
	Best    float64 `json:"best"`
	Median  float64 `json:"median"`
	Q1      float64 `json:"q1"`
	Q3      float64 `json:"q3"`
	Samples int     `json:"samples"`
}

// summarise builds the distribution of per-window values.
func summarise(perWindow []float64, higherIsBetter bool) dist {
	d := dist{Samples: len(perWindow)}
	if len(perWindow) == 0 {
		return d
	}
	d.Best = perWindow[0]
	for _, v := range perWindow[1:] {
		if (higherIsBetter && v > d.Best) || (!higherIsBetter && v < d.Best) {
			d.Best = v
		}
	}
	d.Median = median(perWindow)
	d.Q1, d.Q3 = quartiles(perWindow)
	return d
}

// spread reports the interquartile range as a share of the median.
func (d dist) spread() float64 {
	if d.Median == 0 {
		return 0
	}
	return math.Abs(d.Q3-d.Q1) / math.Abs(d.Median)
}
