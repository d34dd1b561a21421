package main

import (
	"slices"
	"sync"

	"streamjoin/internal/tuple"
	"streamjoin/internal/workload"
)

// The correctness oracle regenerates the seeded input streams outside the
// program and counts, per key, the pairs the join must have produced. It
// rests on one property of workload.Source, pinned by a test: Batch yields
// the same tuple sequence however the time axis is cut, so the benchmark's
// epoch-sized cuts reproduce the feeder's 5 ms ticks exactly.

// packTuple orders tuples by key, then timestamp: key in the high word,
// timestamp in the low. Both are non-negative int32s.
func packTuple(t tuple.Tuple) uint64 {
	return uint64(uint32(t.Key))<<32 | uint64(uint32(t.TS))
}

func packedTS(p uint64) int32 { return int32(uint32(p)) }

// regenerated holds both streams of a run, packed and sorted by (key, ts).
type regenerated struct {
	streams [2][]uint64
}

// regenerate replays the sources the program's feeder builds from the same
// rate, skew, domain and seed, for timestamps in [0, endMs).
func regenerate(w workloadSpec, seed uint64, endMs int32) *regenerated {
	s1, s2 := workload.Pair(w.sourceConfig(seed))
	r := &regenerated{}
	var wg sync.WaitGroup
	for i, src := range []*workload.Source{s1, s2} {
		wg.Add(1)
		go func() { // the streams are independent: one core each
			defer wg.Done()
			var packed []uint64
			for from := int32(0); from < endMs; from += distEpochMs {
				for _, t := range src.Batch(from, min(from+distEpochMs, endMs)) {
					packed = append(packed, packTuple(t))
				}
			}
			slices.Sort(packed)
			r.streams[i] = packed
		}()
	}
	wg.Wait()
	return r
}

// offered counts the tuples of both streams created in [fromMs, toMs).
func (r *regenerated) offered(fromMs, toMs int32) int64 {
	var n int64
	for _, s := range r.streams {
		for _, p := range s {
			if ts := packedTS(p); ts >= fromMs && ts < toMs {
				n++
			}
		}
	}
	return n
}

// referencePairs counts the cross-stream pairs with equal keys whose
// timestamps are at most gapMs apart and whose newer tuple was created in
// [fromMs, toMs). With gapMs = W − 2·t_d every such pair is guaranteed: the
// newer tuple reaches its slave within one distribution epoch and the older
// one cannot have expired before W (block-granular expiry only keeps tuples
// longer). Pairs further apart depend on timing, so neither side counts them.
//
// Nothing is enumerated: per key, two monotone pointers bound the run of
// older partners of each newer tuple.
func (r *regenerated) referencePairs(gapMs, fromMs, toMs int32) int64 {
	a, b := r.streams[0], r.streams[1]
	var total int64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		ka, kb := a[i]>>32, b[j]>>32
		switch {
		case ka < kb:
			i = keyRunEnd(a, i)
		case kb < ka:
			j = keyRunEnd(b, j)
		default:
			ie, je := keyRunEnd(a, i), keyRunEnd(b, j)
			// A tie in timestamps is one pair, not two: the first call
			// takes older ≤ newer, the second older < newer.
			total += olderPartners(b[j:je], a[i:ie], gapMs, fromMs, toMs, true)
			total += olderPartners(a[i:ie], b[j:je], gapMs, fromMs, toMs, false)
			i, j = ie, je
		}
	}
	return total
}

// keyRunEnd returns the end of the run of s[i]'s key.
func keyRunEnd(s []uint64, i int) int {
	key := s[i] >> 32
	for i < len(s) && s[i]>>32 == key {
		i++
	}
	return i
}

// olderPartners counts, over the tuples of newer created in [fromMs, toMs),
// the tuples of older with a timestamp in [ts−gapMs, ts] (withTies) or
// [ts−gapMs, ts). Both slices hold one key, ascending by timestamp.
func olderPartners(newer, older []uint64, gapMs, fromMs, toMs int32, withTies bool) int64 {
	var total int64
	lo, hi := 0, 0
	for _, n := range newer {
		ts := packedTS(n)
		if ts < fromMs || ts >= toMs {
			continue
		}
		for lo < len(older) && packedTS(older[lo]) < ts-gapMs {
			lo++
		}
		hi = max(hi, lo)
		for hi < len(older) && (packedTS(older[hi]) < ts || withTies && packedTS(older[hi]) == ts) {
			hi++
		}
		total += int64(hi - lo)
	}
	return total
}
