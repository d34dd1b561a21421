package join

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"streamjoin/internal/tuple"
)

// sortPairs orders a pair multiset canonically so pair sets produced under
// different probe orders (bucketed module vs flat reference) can be compared.
func sortPairs(ps []Pair) []Pair {
	out := append([]Pair(nil), ps...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Probe.Stream != b.Probe.Stream {
			return a.Probe.Stream < b.Probe.Stream
		}
		if a.Probe.Key != b.Probe.Key {
			return a.Probe.Key < b.Probe.Key
		}
		if a.Probe.TS != b.Probe.TS {
			return a.Probe.TS < b.Probe.TS
		}
		if a.Stored.Key != b.Stored.Key {
			return a.Stored.Key < b.Stored.Key
		}
		return a.Stored.TS < b.Stored.TS
	})
	return out
}

func TestHashModeEmitsActualPairs(t *testing.T) {
	m := MustNew(testCfg(ModeHash))
	m.Process(0, 10, []tuple.Tuple{tup(tuple.S1, 7, 1), tup(tuple.S1, 7, 2)})
	res := m.Process(0, 20, []tuple.Tuple{tup(tuple.S2, 7, 15)})
	want := []Pair{
		{Probe: tup(tuple.S2, 7, 15), Stored: tuple.Packed{Key: 7, TS: 1}},
		{Probe: tup(tuple.S2, 7, 15), Stored: tuple.Packed{Key: 7, TS: 2}},
	}
	if !reflect.DeepEqual(res.Pairs, want) {
		t.Fatalf("pairs = %v, want %v", res.Pairs, want)
	}
	if res.Scanned != 2 {
		t.Fatalf("scanned = %d, want 2 (hash probes visit only matching slots)", res.Scanned)
	}
}

// burstRounds builds a workload that forces the full fine-tuning life cycle:
// bursts of many distinct keys overflow buckets (splits), long silent gaps
// expire them (merges), and a small hot key range keeps matches flowing.
func burstRounds(seed int64, rounds int) [][]tuple.Tuple {
	r := rand.New(rand.NewSource(seed))
	out := make([][]tuple.Tuple, rounds)
	ts := int32(0)
	for i := range out {
		switch {
		case i%7 == 3: // burst: distinct keys force splits
			batch := make([]tuple.Tuple, 600)
			for j := range batch {
				ts += int32(r.Intn(2))
				batch[j] = tup(tuple.StreamID(r.Intn(2)), int32(1000+r.Intn(5000)), ts)
			}
			out[i] = batch
		case i%7 == 5: // gap: mass expiry forces merges
			ts += 25_000
			out[i] = nil
		default: // hot keys: frequent matches
			n := r.Intn(80)
			batch := make([]tuple.Tuple, n)
			for j := range batch {
				ts += int32(r.Intn(20))
				batch[j] = tup(tuple.StreamID(r.Intn(2)), r.Int31n(30), ts)
			}
			out[i] = batch
		}
	}
	return out
}

// TestHashScanEquivalence runs ModeHash and ModeScan over identical
// randomized workloads across the full configuration matrix — both expiry
// policies, fine tuning on and off — and asserts identical match sets
// (materialized pairs, per-probe matches, and all bookkeeping) every round,
// while the workload forces bucket splits and merges.
func TestHashScanEquivalence(t *testing.T) {
	for _, expiry := range []Expiry{ExpiryExact, ExpiryBlocks} {
		for _, fineTune := range []bool{true, false} {
			cfgS, cfgH := testCfg(ModeScan), testCfg(ModeHash)
			cfgS.Expiry, cfgH.Expiry = expiry, expiry
			cfgS.FineTune, cfgH.FineTune = fineTune, fineTune
			// 128 tuples: bursts overflow 2θ, while the ≤63-tuple partial
			// head blocks that block expiry retains still fall below θ, so
			// the workload forces merges under both policies.
			cfgS.Theta, cfgH.Theta = 8192, 8192
			ms, mh := MustNew(cfgS), MustNew(cfgH)
			now := int32(0)
			for i, batch := range burstRounds(13, 40) {
				now += 600
				for _, tp := range batch {
					if tp.TS > now {
						now = tp.TS
					}
				}
				rs := mh.Process(0, now, batch)
				rr := ms.Process(0, now, batch)
				if !reflect.DeepEqual(rs.Pairs, rr.Pairs) {
					t.Fatalf("expiry=%d finetune=%v round %d: pair sets differ (hash %d, scan %d)",
						expiry, fineTune, i, len(rs.Pairs), len(rr.Pairs))
				}
				if !reflect.DeepEqual(rs.Matches, rr.Matches) {
					t.Fatalf("expiry=%d finetune=%v round %d: matches differ", expiry, fineTune, i)
				}
				if rs.Outputs != rr.Outputs || rs.Ingested != rr.Ingested ||
					rs.Expired != rr.Expired || rs.Splits != rr.Splits || rs.Merges != rr.Merges {
					t.Fatalf("expiry=%d finetune=%v round %d: bookkeeping differs:\nhash %+v\nscan %+v",
						expiry, fineTune, i, rs, rr)
				}
			}
			if fineTune {
				if mh.Splits() == 0 || mh.Merges() == 0 {
					t.Fatalf("expiry=%d: workload did not force splits (%d) and merges (%d)",
						expiry, mh.Splits(), mh.Merges())
				}
			}
		}
	}
}

// TestThreeProbersAgainstBruteForce is the property test of the issue: over
// randomized workloads, ModeHash, ModeScan, and the brute-force reference
// must produce identical match sets under exact expiry (the policy the flat
// reference can express), with fine tuning both on and off.
func TestThreeProbersAgainstBruteForce(t *testing.T) {
	for _, fineTune := range []bool{true, false} {
		f := func(seed int64) bool {
			cfgS, cfgH := testCfg(ModeScan), testCfg(ModeHash)
			cfgS.FineTune, cfgH.FineTune = fineTune, fineTune
			ms, mh := MustNew(cfgS), MustNew(cfgH)
			ref := &refJoin{W: 10_000}
			var hashPairs, scanPairs []Pair
			now := int32(0)
			for i, batch := range randRounds(seed, 20, 80, 25) {
				now += 800
				rh := mh.Process(0, now, batch)
				rs := ms.Process(0, now, batch)
				want := ref.round(now, batch)
				if rh.Outputs != want || rs.Outputs != want {
					t.Logf("seed %d finetune=%v round %d: outputs hash=%d scan=%d ref=%d",
						seed, fineTune, i, rh.Outputs, rs.Outputs, want)
					return false
				}
				hashPairs = append(hashPairs, rh.Pairs...)
				scanPairs = append(scanPairs, rs.Pairs...)
			}
			wantPairs := sortPairs(ref.pairs)
			if !reflect.DeepEqual(sortPairs(hashPairs), wantPairs) {
				t.Logf("seed %d finetune=%v: hash pair set differs from reference", seed, fineTune)
				return false
			}
			if !reflect.DeepEqual(sortPairs(scanPairs), wantPairs) {
				t.Logf("seed %d finetune=%v: scan pair set differs from reference", seed, fineTune)
				return false
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
			t.Fatalf("finetune=%v: %v", fineTune, err)
		}
	}
}

// TestHashIndexSurvivesForcedSplitsAndMerges drives the directory through
// explicit split and merge storms and checks the index still mirrors every
// live tuple afterwards (the auditor after each storm, and probes after
// relocation find exactly the stored partners).
func TestHashIndexSurvivesForcedSplitsAndMerges(t *testing.T) {
	cfg := testCfg(ModeHash)
	m := MustNew(cfg)
	// Splits: 2000 distinct S1 keys at one timestamp.
	var batch []tuple.Tuple
	for i := int32(0); i < 2000; i++ {
		batch = append(batch, tup(tuple.S1, i, 100))
	}
	if res := m.Process(0, 200, batch); res.Splits == 0 {
		t.Fatal("no splits despite overflow")
	}
	hashFootprint(t, m) // audits every index against its store
	// After relocation, every key must still find its exact partner.
	var probes []tuple.Tuple
	for i := int32(0); i < 2000; i += 97 {
		probes = append(probes, tup(tuple.S2, i, 300))
	}
	res := m.Process(0, 400, probes)
	if int(res.Outputs) != len(probes) {
		t.Fatalf("outputs = %d, want %d (one partner per probed key)", res.Outputs, len(probes))
	}
	for _, p := range res.Pairs {
		if p.Stored.Key != p.Probe.Key || p.Stored.TS != 100 {
			t.Fatalf("pair %v does not point at the stored partner", p)
		}
	}
	// Merges: expire everything but a few survivors ingested in the same
	// round, so the merged buckets rebuild their indexes from live content.
	var survivors []tuple.Tuple
	for i := int32(0); i < 20; i++ {
		survivors = append(survivors, tup(tuple.StreamID(i%2), 1000+i%7, 99_000))
	}
	if res := m.Process(0, 100_000, survivors); res.Merges == 0 {
		t.Fatal("no merges after mass expiry")
	}
	hashFootprint(t, m) // audits every index against its store
	if res := m.Process(0, 100_100, []tuple.Tuple{tup(tuple.S2, 42, 100_050)}); res.Outputs != 0 {
		t.Fatalf("outputs = %d after mass expiry, want 0", res.Outputs)
	}
	// Refill after the merge storm: the rebuilt index must keep working.
	refill := []tuple.Tuple{tup(tuple.S1, 9, 100_200), tup(tuple.S2, 9, 100_300)}
	if res := m.Process(0, 100_400, refill); res.Outputs != 1 {
		t.Fatalf("outputs = %d after refill, want 1", res.Outputs)
	}
	hashFootprint(t, m) // audits every index against its store
}

// TestHashProbeCostIsMatches pins the tentpole's complexity claim: Scanned
// (the probe work) for ModeHash equals the number of matches, not the window
// length the nested loop would visit.
func TestHashProbeCostIsMatches(t *testing.T) {
	cfgH, cfgS := testCfg(ModeHash), testCfg(ModeScan)
	cfgH.FineTune, cfgS.FineTune = false, false
	mh, ms := MustNew(cfgH), MustNew(cfgS)
	// 1000 stored S1 tuples, one matching key.
	var batch []tuple.Tuple
	for i := int32(0); i < 1000; i++ {
		batch = append(batch, tup(tuple.S1, i, 100))
	}
	mh.Process(0, 200, batch)
	ms.Process(0, 200, batch)
	probe := []tuple.Tuple{tup(tuple.S2, 500, 300)}
	rh := mh.Process(0, 400, probe)
	rs := ms.Process(0, 400, probe)
	if rh.Outputs != 1 || rs.Outputs != 1 {
		t.Fatalf("outputs hash=%d scan=%d, want 1", rh.Outputs, rs.Outputs)
	}
	if rh.Scanned != 1 {
		t.Fatalf("hash scanned = %d, want 1 (O(matches) probe)", rh.Scanned)
	}
	if rs.Scanned != 1000 {
		t.Fatalf("scan scanned = %d, want 1000 (O(window) probe)", rs.Scanned)
	}
}
