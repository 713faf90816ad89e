package main

import (
	"math"
	"slices"
)

// percentile returns the exact nearest-rank p-quantile (0 < p <= 1) of
// sorted samples.
func percentile(sorted []uint32, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return float64(sorted[max(i, 0)])
}

// median returns the median of xs (the mean of the middle two for an
// even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// latencies pools one pass's sampled latencies across clients and
// reports the two percentiles the benchmark publishes for them.
type latencies struct {
	buf  []uint32
	n    int64 // samples over every pass
	lo   []float64
	tail []float64
}

func (l *latencies) addPass(pLo, pTail float64, parts ...[]uint32) {
	l.buf = l.buf[:0]
	for _, p := range parts {
		l.buf = append(l.buf, p...)
	}
	if len(l.buf) == 0 {
		return
	}
	slices.Sort(l.buf)
	l.n += int64(len(l.buf))
	l.lo = append(l.lo, percentile(l.buf, pLo))
	l.tail = append(l.tail, percentile(l.buf, pTail))
}
