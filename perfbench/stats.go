package main

import (
	"sort"
	"time"
)

// tailBeyond is how many samples must lie above the reported tail.
const tailBeyond = 10

// median returns the middle of xs (the mean of the two middles for an
// even count); xs is not modified.
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

// tail is a latency percentile together with the evidence behind it.
type tail struct {
	value   float64 // the sample at the percentile
	pct     float64 // the percentile, in percent
	beyond  int     // samples strictly above it in rank
	samples int
}

// tailOf returns the highest percentile of xs that still has at least
// tailBeyond samples ranked above it: with n sorted samples that is the
// sample at rank n-tailBeyond (1-based), reported as percentile
// 100*(n-tailBeyond)/n. With too few samples for that it returns the
// maximum with beyond = 0.
func tailOf(xs []float64) tail {
	n := len(xs)
	if n == 0 {
		return tail{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n <= tailBeyond {
		return tail{value: s[n-1], pct: 100, samples: n}
	}
	rank := n - tailBeyond
	return tail{value: s[rank-1], pct: 100 * float64(rank) / float64(n), beyond: tailBeyond, samples: n}
}

// pooledRate is the throughput over several timed repetitions: the work
// summed over them divided by their summed time, so a long repetition
// weighs more than a short one.
func pooledRate(work []int, dur []time.Duration) float64 {
	var w int
	var d time.Duration
	for i := range work {
		w += work[i]
		d += dur[i]
	}
	if d <= 0 {
		return 0
	}
	return float64(w) / d.Seconds()
}

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}
