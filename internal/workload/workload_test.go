package workload

import (
	"math"
	"slices"
	"testing"

	"streamjoin/internal/tuple"
)

func testConfig(rate float64) Config {
	return Config{Rate: rate, Skew: 0.7, Domain: 10_000_000, Seed: 42}
}

func TestBatchTimestampsInRangeAndOrdered(t *testing.T) {
	s := NewSource(tuple.S1, testConfig(1500))
	var last int32 = -1
	for epoch := 0; epoch < 10; epoch++ {
		from, to := int32(epoch*2000), int32((epoch+1)*2000)
		for _, tp := range s.Batch(from, to) {
			if tp.TS < from || tp.TS >= to {
				t.Fatalf("ts %d outside [%d,%d)", tp.TS, from, to)
			}
			if tp.TS < last {
				t.Fatalf("timestamps regressed: %d after %d", tp.TS, last)
			}
			last = tp.TS
			if tp.Stream != tuple.S1 {
				t.Fatal("stream tag")
			}
		}
	}
}

func TestPoissonMeanRate(t *testing.T) {
	const rate = 1500.0
	const seconds = 200
	s := NewSource(tuple.S1, testConfig(rate))
	n := len(s.Batch(0, seconds*1000))
	want := rate * seconds
	// Poisson stddev is sqrt(mean); allow 5 sigma.
	if math.Abs(float64(n)-want) > 5*math.Sqrt(want) {
		t.Fatalf("got %d arrivals in %ds at rate %v, want ~%v", n, seconds, rate, want)
	}
}

func TestPoissonVariance(t *testing.T) {
	// Counts in disjoint unit intervals of a Poisson process have variance
	// equal to the mean (index of dispersion 1).
	s := NewSource(tuple.S2, testConfig(500))
	const buckets = 400
	counts := make([]float64, buckets)
	for i := range counts {
		counts[i] = float64(len(s.Batch(int32(i*1000), int32((i+1)*1000))))
	}
	var mean, varsum float64
	for _, c := range counts {
		mean += c
	}
	mean /= buckets
	for _, c := range counts {
		varsum += (c - mean) * (c - mean)
	}
	variance := varsum / (buckets - 1)
	dispersion := variance / mean
	if dispersion < 0.7 || dispersion > 1.4 {
		t.Fatalf("index of dispersion = %.2f, want ~1 (mean %.1f var %.1f)", dispersion, mean, variance)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	a := NewSource(tuple.S1, testConfig(1000))
	b := NewSource(tuple.S1, testConfig(1000))
	ba, bb := a.Batch(0, 10000), b.Batch(0, 10000)
	if len(ba) != len(bb) {
		t.Fatalf("lengths differ: %d vs %d", len(ba), len(bb))
	}
	for i := range ba {
		if ba[i] != bb[i] {
			t.Fatalf("tuple %d differs", i)
		}
	}
}

func TestStreamsAreIndependent(t *testing.T) {
	s1, s2 := Pair(testConfig(1000))
	b1, b2 := s1.Batch(0, 10000), s2.Batch(0, 10000)
	if b1[0].Stream != tuple.S1 || b2[0].Stream != tuple.S2 {
		t.Fatal("stream tags")
	}
	if len(b1) == 0 || len(b2) == 0 {
		t.Fatal("empty batches")
	}
	same := 0
	n := len(b1)
	if len(b2) < n {
		n = len(b2)
	}
	for i := 0; i < n; i++ {
		if b1[i].Key == b2[i].Key {
			same++
		}
	}
	if same > n/10 {
		t.Fatalf("streams look correlated: %d/%d equal keys at same index", same, n)
	}
}

func TestGapBetweenBatchesFoldsArrivals(t *testing.T) {
	// Skipping an interval must not lose tuples: they are folded forward to
	// the start of the next requested batch.
	a := NewSource(tuple.S1, testConfig(1000))
	b := NewSource(tuple.S1, testConfig(1000))
	na := len(a.Batch(0, 5000)) + len(a.Batch(5000, 10000))
	nbBatch := b.Batch(9000, 10000) // first 9s never requested
	nb := len(b.Batch(0, 0))        // no-op interval
	_ = nb
	total := 0
	for _, tp := range nbBatch {
		if tp.TS < 9000 {
			t.Fatalf("folded tuple kept old timestamp %d", tp.TS)
		}
		total++
	}
	if total != na {
		t.Fatalf("arrivals lost in gap: %d vs %d", total, na)
	}
}

func TestMergePreservesOrder(t *testing.T) {
	s1, s2 := Pair(testConfig(800))
	m := Merge(s1.Batch(0, 20000), s2.Batch(0, 20000))
	for i := 1; i < len(m); i++ {
		if m[i].TS < m[i-1].TS {
			t.Fatalf("merge out of order at %d", i)
		}
	}
	if len(m) == 0 {
		t.Fatal("empty merge")
	}
	if Merge(nil, nil) != nil {
		t.Fatal("merge of nils")
	}
	one := []tuple.Tuple{{Key: 1}}
	if len(Merge(one, nil)) != 1 || len(Merge(nil, one)) != 1 {
		t.Fatal("merge with one empty side")
	}
}

func TestSkewedKeysWithinDomain(t *testing.T) {
	s := NewSource(tuple.S1, testConfig(2000))
	for _, tp := range s.Batch(0, 30000) {
		if tp.Key < 0 || tp.Key >= 10_000_000 {
			t.Fatalf("key %d out of domain", tp.Key)
		}
	}
}

// TestPanicsOnBadConfig: comparisons with NaN are false, so the guards are
// written to fail closed. An infinite rate would make every gap zero and a
// Batch would never end; a NaN skew would silently make every draw take one
// half.
func TestPanicsOnBadConfig(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name string
		f    func()
	}{
		{"rate 0", func() { NewSource(tuple.S1, Config{Rate: 0, Skew: 0.7, Domain: 100, Seed: 1}) }},
		{"rate NaN", func() { NewSource(tuple.S1, Config{Rate: nan, Skew: 0.7, Domain: 100, Seed: 1}) }},
		{"rate +Inf", func() { NewSource(tuple.S1, Config{Rate: inf, Skew: 0.7, Domain: 100, Seed: 1}) }},
		{"skew NaN", func() { NewSource(tuple.S1, Config{Rate: 100, Skew: nan, Domain: 100, Seed: 1}) }},
		{"SetRate NaN", func() { NewSource(tuple.S1, testConfig(100)).SetRate(nan) }},
		{"SetRate +Inf", func() { NewSource(tuple.S1, testConfig(100)).SetRate(inf) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("accepted")
				}
			}()
			tc.f()
		})
	}
}

// TestAppendFormsMatchBatchAndMerge: the buffer-reusing forms a feeder ticks
// with yield exactly the tuples of Batch and Merge.
func TestAppendFormsMatchBatchAndMerge(t *testing.T) {
	a1, a2 := Pair(testConfig(50_000))
	b1, b2 := Pair(testConfig(50_000))
	var buf1, buf2, run []tuple.Tuple
	for tick := int32(0); tick < 200; tick++ {
		from, to := tick*5, (tick+1)*5
		want := Merge(a1.Batch(from, to), a2.Batch(from, to))
		buf1 = b1.AppendBatch(buf1[:0], from, to)
		buf2 = b2.AppendBatch(buf2[:0], from, to)
		run = AppendMerge(run[:0], buf1, buf2)
		if !slices.Equal(run, want) {
			t.Fatalf("tick %d: appended run of %d tuples differs from Merge of Batch (%d)", tick, len(run), len(want))
		}
	}
	prefix := []tuple.Tuple{{Key: -1}}
	if got := AppendMerge(prefix, buf1, buf2); got[0].Key != -1 || len(got) != 1+len(buf1)+len(buf2) {
		t.Fatal("AppendMerge did not keep dst's contents")
	}
}
