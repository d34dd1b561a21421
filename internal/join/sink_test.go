package join

import (
	"reflect"
	"testing"
	"testing/quick"

	"streamjoin/internal/tuple"
)

// retainingSink keeps every delivered buffer (returning nil, so the module
// must not recycle them) plus a deep copy taken at delivery time.
type retainingSink struct {
	groups    []int32
	delivered [][]Pair
	snapshots [][]Pair
}

func (s *retainingSink) Emit(group int32, pairs []Pair) []Pair {
	s.groups = append(s.groups, group)
	s.delivered = append(s.delivered, pairs)
	s.snapshots = append(s.snapshots, append([]Pair(nil), pairs...))
	return nil
}

// TestSinkRetentionContract is the property test of the issue: over
// randomized workloads, buffers handed to a Sink that declines recycling
// are never mutated by later rounds, their contents equal the pairs a
// sink-less module materializes, and RoundResult.Pairs is nil when a sink
// consumed the round.
func TestSinkRetentionContract(t *testing.T) {
	for _, mode := range []Mode{ModeScan, ModeHash} {
		f := func(seed int64) bool {
			sink := &retainingSink{}
			cfgSink := testCfg(mode)
			cfgSink.Sink = sink
			ms := MustNew(cfgSink)
			ref := MustNew(testCfg(mode))
			var want [][]Pair
			now := int32(0)
			for i, batch := range randRounds(seed, 20, 80, 25) {
				now += 700
				res := ms.Process(0, now, batch)
				if res.Pairs != nil {
					t.Logf("seed %d round %d: RoundResult.Pairs not nil despite sink", seed, i)
					return false
				}
				rr := ref.Process(0, now, batch)
				if res.Outputs != rr.Outputs {
					t.Logf("seed %d round %d: outputs %d vs %d", seed, i, res.Outputs, rr.Outputs)
					return false
				}
				if len(rr.Pairs) > 0 {
					want = append(want, append([]Pair(nil), rr.Pairs...))
				}
			}
			// Retained buffers must still hold exactly what was delivered…
			for i := range sink.delivered {
				if !reflect.DeepEqual(sink.delivered[i], sink.snapshots[i]) {
					t.Logf("seed %d: delivery %d mutated after hand-off", seed, i)
					return false
				}
			}
			// …and what was delivered must be what a sink-less module emits.
			if len(want) != len(sink.delivered) {
				t.Logf("seed %d: %d deliveries, reference emitted %d rounds", seed, len(sink.delivered), len(want))
				return false
			}
			for i := range want {
				if !reflect.DeepEqual(want[i], sink.delivered[i]) {
					t.Logf("seed %d: delivery %d differs from reference pairs", seed, i)
					return false
				}
				if sink.groups[i] != 0 {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
	}
}

// TestCountOnlyMatchesMaterializing checks that count-only rounds produce
// counts identical to the materializing modes while never forming a pair.
func TestCountOnlyMatchesMaterializing(t *testing.T) {
	for _, mode := range []Mode{ModeScan, ModeHash} {
		cfgCount := testCfg(mode)
		cfgCount.Queries = []QueryConfig{{Mode: mode, CountOnly: true}}
		mc := MustNew(cfgCount)
		ref := MustNew(testCfg(mode))
		now := int32(0)
		for i, batch := range randRounds(21, 30, 120, 40) {
			now += 600
			rc := mc.Process(0, now, batch)
			rr := ref.Process(0, now, batch)
			if len(rc.Pairs) != 0 {
				t.Fatalf("mode %v round %d: count-only materialized %d pairs", mode, i, len(rc.Pairs))
			}
			if rc.Outputs != rr.Outputs || rc.Scanned != rr.Scanned ||
				rc.Ingested != rr.Ingested || rc.Expired != rr.Expired {
				t.Fatalf("mode %v round %d: count-only bookkeeping differs:\ncount %+v\nref   %+v",
					mode, i, rc, rr)
			}
			if !reflect.DeepEqual(rc.Matches, rr.Matches) {
				t.Fatalf("mode %v round %d: matches differ", mode, i)
			}
		}
	}
}

// TestDiscardSinkRecyclesBuffer checks the hand-off loop: a synchronous
// sink that returns its argument gets the same backing buffer back round
// after round once its capacity has settled.
func TestDiscardSinkRecyclesBuffer(t *testing.T) {
	var first *Pair
	sameBuffer := 0
	cfg := testCfg(ModeHash)
	cfg.Sink = SinkFunc(func(_ int32, pairs []Pair) {
		if len(pairs) == 0 {
			return
		}
		if first == &pairs[0] {
			sameBuffer++
		}
		first = &pairs[0]
	})
	m := MustNew(cfg)
	now := int32(0)
	for i := 0; i < 40; i++ {
		now += 1000
		// One stored tuple and one probe per round: every round emits pairs
		// against the ~10 stored partners the 10 s window retains.
		m.Process(0, now, []tuple.Tuple{
			tup(tuple.S1, 7, now-20),
			tup(tuple.S2, 7, now-10),
		})
	}
	if sameBuffer < 25 {
		t.Fatalf("buffer recycled only %d/39 rounds; pooling broken", sameBuffer)
	}
}

// TestChanSinkDeliversAndRecycles runs a module against a ChanSink consumer
// goroutine and checks completeness of the forwarded pairs and that Done'd
// buffers flow back.
func TestChanSinkDeliversAndRecycles(t *testing.T) {
	sink := NewChanSink(4)
	var consumed []Pair
	done := make(chan struct{})
	go func() {
		defer close(done)
		for e := range sink.C {
			consumed = append(consumed, e.Pairs...)
			sink.Done(e.Pairs)
		}
	}()

	cfg := testCfg(ModeHash)
	cfg.Sink = sink
	m := MustNew(cfg)
	ref := MustNew(testCfg(ModeHash))
	var want []Pair
	now := int32(0)
	for _, batch := range randRounds(5, 25, 60, 15) {
		now += 400
		m.Process(0, now, batch)
		want = append(want, ref.Process(0, now, batch).Pairs...)
	}
	close(sink.C)
	<-done
	if !reflect.DeepEqual(consumed, want) {
		t.Fatalf("channel sink consumed %d pairs, want %d (or order differs)", len(consumed), len(want))
	}
}
