package main

import (
	"math"
	"sort"
	"time"
)

// tailLadder is the set of percentiles a tail latency may be reported at,
// highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// minBeyondTail is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const minBeyondTail = 10

// tailPercentile picks the highest ladder percentile that still leaves at
// least minBeyondTail of n samples strictly beyond its nearest-rank
// position.  ok is false when n is too small for any ladder entry.
func tailPercentile(n int) (p float64, beyond int, ok bool) {
	for _, p := range tailLadder {
		rank := nearestRank(p, n)
		if n-rank >= minBeyondTail {
			return p, n - rank, true
		}
	}
	return 0, 0, false
}

// nearestRank is the 1-based nearest-rank position of percentile p among
// n sorted samples.
func nearestRank(p float64, n int) int {
	// The epsilon keeps float error (99.9/100*10000 = 9990.000000000002)
	// from pushing an exact rank up by one.
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank percentile p of xs (xs need not be
// sorted; it is not modified).
func percentile(xs []time.Duration, p float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[nearestRank(p, len(s))-1]
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
