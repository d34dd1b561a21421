package main

import (
	"sync"
	"time"

	"streamjoin/internal/join"
)

// measureSink is the benchmark's own join.Sink: every figure it keeps is
// taken from outside the program, on the benchmark's clock. Tuple timestamps
// are milliseconds since the program's clock zero, which the benchmark pins
// to t0 (the instant before the start call), so a pair's production delay is
// the wall-clock at Emit minus t0 + the newer tuple's timestamp.
//
// Two slaves call Emit concurrently; one mutex around the whole batch keeps
// the per-pair loop free of atomics (a batch is one join round, microseconds
// of work).
type measureSink struct {
	t0 time.Time
	// Only pairs whose newer tuple was created in [fromMs, toMs) enter the
	// delay histogram and the oracle count.
	fromMs, toMs int32
	// gapMs is the oracle's timestamp gap: pairs at most this far apart are
	// guaranteed by the window semantics (see referencePairs).
	gapMs int32
	// warmAt splits pairsAfterWarm off, for the cross-check against the
	// program's own output counter.
	warmAt time.Duration

	mu             sync.Mutex
	firstPair      time.Duration // since t0; 0 until a pair arrives
	delays         histogram
	rounds         int64 // Emit calls that carried a measured pair
	pairs          int64 // every pair delivered
	pairsAfterWarm int64 // delivered at or after warmAt
	oraclePairs    int64 // measured pairs within gapMs
	badKeys        int64 // pairs whose two keys differ
}

// Emit implements join.Sink; the buffer is recycled immediately.
func (s *measureSink) Emit(_ int32, pairs []join.Pair) []join.Pair {
	now := time.Since(s.t0)
	nowMs := int32(now / time.Millisecond)
	s.mu.Lock()
	if s.firstPair == 0 && len(pairs) > 0 {
		s.firstPair = now
	}
	s.pairs += int64(len(pairs))
	if now >= s.warmAt {
		s.pairsAfterWarm += int64(len(pairs))
	}
	measured := false
	for i := range pairs {
		p := &pairs[i]
		if p.Probe.Key != p.Stored.Key {
			s.badKeys++
		}
		newer, older := p.Probe.TS, p.Stored.TS
		if older > newer {
			newer, older = older, newer
		}
		if newer < s.fromMs || newer >= s.toMs {
			continue
		}
		measured = true
		s.delays.add(nowMs - newer)
		if newer-older <= s.gapMs {
			s.oraclePairs++
		}
	}
	if measured {
		s.rounds++
	}
	s.mu.Unlock()
	return pairs
}
