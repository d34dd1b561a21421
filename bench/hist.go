package main

// histBuckets is the number of 1 ms delay buckets; the last one also absorbs
// every longer delay (8 s is over thirty distribution epochs, far beyond
// anything a run that passes its checks produces).
const histBuckets = 8192

// histogram counts production delays in 1 ms buckets: bucket i holds delays
// in [i, i+1) ms.
type histogram struct {
	counts [histBuckets]int64
	n      int64
}

func (h *histogram) add(delayMs int32) {
	switch {
	case delayMs < 0:
		delayMs = 0
	case delayMs >= histBuckets:
		delayMs = histBuckets - 1
	}
	h.counts[delayMs]++
	h.n++
}

// quantile returns the q-quantile in ms, interpolating linearly inside the
// bucket that holds it, so the figure keeps sub-millisecond digits instead
// of snapping to a bucket edge. An empty histogram yields 0.
func (h *histogram) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var before int64
	for i, c := range h.counts {
		if c > 0 && float64(before+c) >= rank {
			return float64(i) + (rank-float64(before))/float64(c)
		}
		before += c
	}
	return histBuckets
}
