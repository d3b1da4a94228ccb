package main

import (
	"math"
	"slices"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample).  xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// timeMedianMs calls f reps times and returns the median wall time in
// milliseconds, stopping at the first error.
func timeMedianMs(reps int, f func() error) (float64, error) {
	ts := make([]float64, 0, reps)
	for range reps {
		t := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ts = append(ts, ms(time.Since(t)))
	}
	return median(ts), nil
}

// medianGFlops is the throughput of the median call, in GFLOP/s, for
// calls of addsPerCall adds each taking latMs milliseconds.
func medianGFlops(addsPerCall float64, latMs []float64) float64 {
	return addsPerCall / (median(latMs) * 1e6)
}

// adds returns the butterfly add/sub count of one WHT(2^n): n*2^n.
func adds(n int) float64 { return float64(n) * float64(int64(1)<<uint(n)) }
