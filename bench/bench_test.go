package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"
	"time"

	"streamjoin/internal/engine"
	"streamjoin/internal/join"
	"streamjoin/internal/tuple"
	"streamjoin/internal/wire"
	"streamjoin/internal/workload"
)

func TestHistogramQuantile(t *testing.T) {
	var h histogram
	if got := h.quantile(0.5); got != 0 {
		t.Errorf("empty histogram: quantile = %v, want 0", got)
	}
	// 100 delays of 10 ms, 100 of 20 ms: the median is the upper edge of
	// bucket 10, the 75th percentile the middle of bucket 20.
	for range 100 {
		h.add(10)
		h.add(20)
	}
	for _, c := range []struct{ q, want float64 }{
		{0.25, 10.5}, {0.50, 11}, {0.75, 20.5}, {1, 21},
	} {
		if got := h.quantile(c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	// Out-of-range delays land in the edge buckets instead of being lost.
	h.add(-5)
	h.add(1 << 20)
	if h.n != 202 || h.counts[0] != 1 || h.counts[histBuckets-1] != 1 {
		t.Errorf("edge buckets: n=%d first=%d last=%d", h.n, h.counts[0], h.counts[histBuckets-1])
	}
}

func TestIngestedTuples(t *testing.T) {
	batches := []*wire.Batch{
		{Epoch: -1}, // the TCP arm's clock-sync batch
		{Epoch: 0, Tuples: make([]tuple.Tuple, 10)},
		{Epoch: 1, Tuples: make([]tuple.Tuple, 5), Directives: make([]wire.Directive, 1)},
		{Epoch: 1, Directives: make([]wire.Directive, 1)},
	}
	var st engine.Stats
	for _, b := range batches {
		st.BytesSent += b.WireSize()
		st.MsgsSent++
	}
	if got := ingestedTuples(st, 1); got != 15 {
		t.Errorf("ingestedTuples = %d, want 15", got)
	}
	if got := ingestedTuples(engine.Stats{}, 0); got != 0 {
		t.Errorf("ingestedTuples of nothing = %d, want 0", got)
	}
}

// A small, dense workload: a few hundred tuples over twenty keys, so every
// key has runs on both streams and timestamp ties occur.
var oracleTestSpec = workloadSpec{name: "oracle-test", rate: 150, keyBits: 4, agreeBits: 2}

func TestReferencePairsMatchBruteForce(t *testing.T) {
	const endMs, gapMs = 3000, 700
	for seed := uint64(1); seed <= 3; seed++ {
		reg := regenerate(oracleTestSpec, seed, endMs)
		for _, iv := range [][2]int32{{0, endMs}, {900, 2100}, {2999, 3000}, {500, 500}} {
			var want int64
			for _, a := range reg.streams[0] {
				for _, b := range reg.streams[1] {
					ta, tb := packedTS(a), packedTS(b)
					newer, older := max(ta, tb), min(ta, tb)
					if a>>32 == b>>32 && newer-older <= gapMs && newer >= iv[0] && newer < iv[1] {
						want++
					}
				}
			}
			if got := reg.referencePairs(gapMs, iv[0], iv[1]); got != want {
				t.Errorf("seed %d, probes in [%d,%d): referencePairs = %d, brute force = %d",
					seed, iv[0], iv[1], got, want)
			}
		}
		if n := reg.offered(0, endMs); n != int64(len(reg.streams[0])+len(reg.streams[1])) {
			t.Errorf("seed %d: offered = %d of %d tuples", seed, n, len(reg.streams[0])+len(reg.streams[1]))
		}
	}
}

// The oracle cuts the time axis into epochs, the program's feeder into 5 ms
// ticks of uneven length; both must see the same tuples.
func TestSourceBatchIsCutInvariant(t *testing.T) {
	const endMs = 2000
	cfg := oracleTestSpec.sourceConfig(7)
	whole := workload.NewSource(tuple.S1, cfg).Batch(0, endMs)
	if len(whole) < 100 {
		t.Fatalf("only %d tuples generated", len(whole))
	}
	for _, cuts := range [][]int32{{5}, {250}, {1, 7, 3, 64, 250, 2}} {
		src := workload.NewSource(tuple.S1, cfg)
		var got []tuple.Tuple
		for from, i := int32(0), 0; from < endMs; i++ {
			to := min(from+cuts[i%len(cuts)], endMs)
			got = append(got, src.Batch(from, to)...)
			from = to
		}
		if !slices.Equal(got, whole) {
			t.Errorf("cuts %v: %d tuples differ from the uncut %d", cuts, len(got), len(whole))
		}
	}
}

func TestMeasureSinkCounts(t *testing.T) {
	s := &measureSink{
		t0: time.Now().Add(-time.Second), fromMs: 100, toMs: 200, gapMs: 50,
		warmAt: time.Hour,
	}
	pair := func(probeKey, probeTS, storedKey, storedTS int32) join.Pair {
		return join.Pair{
			Probe:  tuple.Tuple{Stream: tuple.S1, Key: probeKey, TS: probeTS},
			Stored: tuple.Packed{Key: storedKey, TS: storedTS},
		}
	}
	buf := []join.Pair{
		pair(1, 150, 1, 120), // measured, within the gap
		pair(1, 150, 1, 90),  // measured, beyond the gap
		pair(1, 120, 1, 160), // the stored tuple is the newer one: measured
		pair(1, 99, 1, 90),   // newer tuple before the interval
		pair(1, 200, 1, 190), // newer tuple at the interval's end: outside
		pair(1, 150, 2, 150), // unequal keys
	}
	if got := s.Emit(0, buf); len(got) != len(buf) {
		t.Errorf("Emit returned %d pairs for recycling, want the buffer back", len(got))
	}
	if s.pairs != 6 || s.pairsAfterWarm != 0 || s.delays.n != 4 || s.oraclePairs != 3 ||
		s.badKeys != 1 || s.rounds != 1 || s.firstPair < time.Second {
		t.Errorf("pairs=%d afterWarm=%d measured=%d oracle=%d badKeys=%d rounds=%d firstPair=%v",
			s.pairs, s.pairsAfterWarm, s.delays.n, s.oraclePairs, s.badKeys, s.rounds, s.firstPair)
	}
	// Emitted one second after t0, a tuple created at 150 ms is 850 ms old.
	if d := s.delays.quantile(0.5); d < 840 || d > 900 {
		t.Errorf("median delay = %v ms, want about 850", d)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: layerEpoch, Epoch: 1, Parent: -1, StartNs: 0, EndNs: 100},
		{Name: layerJoin, Epoch: 1, Parent: 0, StartNs: 10, EndNs: 90},
		{Name: layerEpoch, Epoch: 2, Parent: -1, StartNs: 100, EndNs: 300},
		{Name: layerJoin, Epoch: 2, Parent: 2, StartNs: 110, EndNs: 290},
		{Name: layerSink, Epoch: 2, Parent: 3, StartNs: 150, EndNs: 200},
		{Name: layerSink, Epoch: 2, Parent: 3, StartNs: 210, EndNs: 220},
	}
	got := selfTimes(spans, 1) // epoch 2 only
	want := map[string]time.Duration{layerEpoch: 20, layerJoin: 120, layerSink: 60}
	for name, d := range want {
		if got[name] != d {
			t.Errorf("self time of %s = %d, want %d", name, got[name], d)
		}
	}
	if len(got) != len(want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}

// The replay's spans must account for its wall-clock, and the codec layers
// must be visited only where a codec runs.
func TestReplayBudgetAddsUp(t *testing.T) {
	for _, tcp := range []bool{false, true} {
		w := workloadSpec{name: "replay-test", rate: 20000, keyBits: 10, agreeBits: 5, tcp: tcp, sustainable: true}
		tr := newTracer()
		st, err := replay(w, 3, 1, tr)
		if err != nil {
			t.Fatalf("tcp=%v: %v", tcp, err)
		}
		if st.admitted == 0 || st.admitted != st.offered || st.pairs == 0 {
			t.Fatalf("tcp=%v: replay stats %+v", tcp, st)
		}
		self := selfTimes(tr.spans, warmEpochs)
		var sum time.Duration
		for _, d := range self {
			sum += d
		}
		if diff := math.Abs(float64(sum-st.wall)) / float64(st.wall); diff > 0.05 {
			t.Errorf("tcp=%v: layer self times sum to %v, wall-clock %v", tcp, sum, st.wall)
		}
		codec := self[layerEncode] > 0 && self[layerDecode] > 0 && self[layerTCP] > 0 && st.wireBytes > 0
		if codec != tcp || (self[layerPipe] > 0) == tcp {
			t.Errorf("tcp=%v: encode %v decode %v tcp %v pipe %v wire bytes %d",
				tcp, self[layerEncode], self[layerDecode], self[layerTCP], self[layerPipe], st.wireBytes)
		}
	}
}

// BENCHMARK.json at the repository root declares what this package prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var decl struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	if decl.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, the benchmark measures %d", decl.RunSeconds, runSeconds)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d defined", len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if d := decl.Workloads[i]; d.Name != w.name || d.Why != w.why {
			t.Errorf("workload %d declared as %q (%q), defined as %q (%q)", i, d.Name, d.Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.name, len(w.why))
		}
	}
	same := func(kind string, declared []metric, specs []metricSpec, bounded bool) {
		if len(declared) != len(specs) {
			t.Fatalf("%s: %d metrics declared, %d defined", kind, len(declared), len(specs))
		}
		for i, s := range specs {
			d := declared[i]
			if d.Name != s.name || d.Unit != s.unit || d.Better != s.better {
				t.Errorf("%s metric %d declared as %+v, defined as %+v", kind, i, d, s)
			}
			if bounded != (d.Bound != nil) || bounded && *d.Bound != s.bound {
				t.Errorf("%s metric %s: declared bound %v, defined %v", kind, s.name, d.Bound, s.bound)
			}
		}
	}
	same("end_to_end", decl.EndToEnd, endToEnd, true)
	same("per_layer", decl.PerLayer, perLayer, false)
}

// Seeds mapped by programSeed must agree on the pinned number of key bits
// and, which is the point, produce the same number of pairs.
func TestProgramSeedPinsSelectivity(t *testing.T) {
	w, ok := workloadByName("probe-heavy")
	if !ok {
		t.Fatal("no probe-heavy workload")
	}
	const endMs = 2000
	var pairs []int64
	for seed := uint64(1); seed <= 3; seed++ {
		ps := w.programSeed(seed)
		if again := w.programSeed(seed); again != ps {
			t.Errorf("seed %d maps to %d, then to %d", seed, ps, again)
		}
		s1, s2 := workload.Pair(w.sourceConfig(ps))
		if got := countAgreeing(w.majorityBits(s1), w.majorityBits(s2), w.keyBits); got != w.agreeBits {
			t.Errorf("seed %d: streams agree on %d bits, want %d", seed, got, w.agreeBits)
		}
		pairs = append(pairs, regenerate(w, ps, endMs).referencePairs(endMs, 0, endMs))
	}
	for _, p := range pairs[1:] {
		if d := math.Abs(float64(p-pairs[0])) / float64(pairs[0]); d > 0.05 {
			t.Errorf("pair counts %v differ by more than 5 %%", pairs)
		}
	}
}
