// Package workload synthesizes the paper's input streams: tuples arriving as
// a Poisson process at a configurable mean rate, with join-attribute values
// drawn from a b-model skew generator over [0, 10^7).
//
// A Source is an exact event-by-event Poisson process; Batch materializes
// the arrivals of a time interval at once, which is how the simulated master
// ingests a distribution epoch's worth of tuples in one step without
// per-tuple simulation events. AppendBatch and AppendMerge do the same into
// caller-owned buffers, so a feeder that reuses them allocates nothing per
// interval.
package workload

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"

	"streamjoin/internal/bmodel"
	"streamjoin/internal/tuple"
)

// Config describes one stream's arrival process.
type Config struct {
	// Rate is the mean arrival rate in tuples per second.
	Rate float64
	// Skew is the b-model bias in [0.5, 1).
	Skew float64
	// Domain is the exclusive upper bound of join-attribute values.
	Domain int32
	// Seed makes the stream reproducible.
	Seed uint64
}

// Source generates one stream's tuples in timestamp order.
type Source struct {
	stream tuple.StreamID
	cfg    Config
	gen    *bmodel.Gen
	rng    *rand.Rand
	nextMs float64 // arrival time of the next tuple, in ms
	curMs  float64 // end of the last generated interval ("now")
}

// NewSource returns a source for the given stream.
func NewSource(stream tuple.StreamID, cfg Config) *Source {
	if !ValidRate(cfg.Rate) {
		panic(fmt.Sprintf("workload: rate %v must be positive and finite", cfg.Rate))
	}
	if cfg.Domain <= 0 {
		panic("workload: domain must be positive")
	}
	seed := cfg.Seed ^ (uint64(stream+1) * 0x9e3779b97f4a7c15)
	s := &Source{
		stream: stream,
		cfg:    cfg,
		gen:    bmodel.New(cfg.Skew, cfg.Domain, seed),
		rng:    rand.New(rand.NewPCG(seed, 0xbb67ae8584caa73b)),
	}
	s.nextMs = s.interarrival()
	return s
}

// ValidRate reports whether rate is a usable arrival rate: positive and
// finite (NaN fails the comparison). An infinite rate makes every gap zero,
// so a batch would never end.
func ValidRate(rate float64) bool { return rate > 0 && !math.IsInf(rate, 1) }

// interarrival draws an exponential gap in milliseconds.
func (s *Source) interarrival() float64 {
	return s.rng.ExpFloat64() / s.cfg.Rate * 1000
}

// SetRate changes the mean arrival rate from the end of the last generated
// interval on. The Poisson process is memoryless, so the pending gap is
// rescaled rather than redrawn.
func (s *Source) SetRate(rate float64) {
	if !ValidRate(rate) {
		panic(fmt.Sprintf("workload: rate %v must be positive and finite", rate))
	}
	old := s.cfg.Rate
	s.cfg.Rate = rate
	if s.nextMs > s.curMs {
		s.nextMs = s.curMs + (s.nextMs-s.curMs)*old/rate
	}
}

// Batch returns, in timestamp order, every tuple arriving in [fromMs, toMs).
// Successive calls must use non-overlapping, increasing intervals; arrivals
// that fell before fromMs (from an uncovered gap) are folded into this batch
// with their timestamps clamped to fromMs.
func (s *Source) Batch(fromMs, toMs int32) []tuple.Tuple { return s.AppendBatch(nil, fromMs, toMs) }

// AppendBatch is Batch appending to dst: it returns dst extended by the
// interval's arrivals.
func (s *Source) AppendBatch(dst []tuple.Tuple, fromMs, toMs int32) []tuple.Tuple {
	for s.nextMs < float64(toMs) {
		ts := int32(s.nextMs)
		if ts < fromMs {
			ts = fromMs
		}
		dst = append(dst, tuple.Tuple{
			Stream: s.stream,
			Key:    s.gen.Next(),
			TS:     ts,
		})
		s.nextMs += s.interarrival()
	}
	if float64(toMs) > s.curMs {
		s.curMs = float64(toMs)
	}
	return dst
}

// Pair returns sources for both streams of the join with correlated
// configuration (same rate, skew and domain; independent arrival processes
// and value draws).
func Pair(cfg Config) (*Source, *Source) {
	return NewSource(tuple.S1, cfg), NewSource(tuple.S2, cfg)
}

// Merge interleaves two timestamp-ordered batches into one timestamp-ordered
// batch, breaking ties in favor of stream S1 (the master's buffer preserves
// arrival order across streams).
func Merge(a, b []tuple.Tuple) []tuple.Tuple {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	return AppendMerge(make([]tuple.Tuple, 0, len(a)+len(b)), a, b)
}

// AppendMerge is Merge appending to dst: it returns dst extended by the
// interleaving of a and b.
func AppendMerge(dst, a, b []tuple.Tuple) []tuple.Tuple {
	out := slices.Grow(dst, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i].TS <= b[j].TS {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}
