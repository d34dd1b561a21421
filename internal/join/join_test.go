package join

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"streamjoin/internal/tuple"
)

func testCfg(mode Mode) Config {
	return Config{
		WindowMs: 10_000,
		Theta:    2048, // 32 tuples: exercises splits/merges quickly
		FineTune: true,
		Mode:     mode,
		Expiry:   ExpiryExact,
	}
}

func tup(s tuple.StreamID, key, ts int32) tuple.Tuple {
	return tuple.Tuple{Stream: s, Key: key, TS: ts}
}

// refJoin is a brute-force reference implementation of the round semantics
// with exact expiry: fresh(S1)×live(S2), then fresh(S2)×(live(S1)∪fresh(S1)),
// then expiry at now−W. It also materializes every output pair into pairs
// (cumulative across rounds) for match-set equivalence tests.
type refJoin struct {
	W     int32
	live  [2][]tuple.Tuple
	pairs []Pair
}

func (r *refJoin) round(now int32, tuples []tuple.Tuple) int64 {
	var f [2][]tuple.Tuple
	for _, t := range tuples {
		f[t.Stream] = append(f[t.Stream], t)
	}
	var out int64
	for _, t := range f[0] {
		for _, o := range r.live[1] {
			if o.Key == t.Key {
				out++
				r.pairs = append(r.pairs, Pair{Probe: t, Stored: o.Packed()})
			}
		}
	}
	r.live[0] = append(r.live[0], f[0]...)
	for _, t := range f[1] {
		for _, o := range r.live[0] {
			if o.Key == t.Key {
				out++
				r.pairs = append(r.pairs, Pair{Probe: t, Stored: o.Packed()})
			}
		}
	}
	r.live[1] = append(r.live[1], f[1]...)
	cutoff := now - r.W
	for s := 0; s < 2; s++ {
		keep := r.live[s][:0]
		for _, t := range r.live[s] {
			if t.TS >= cutoff {
				keep = append(keep, t)
			}
		}
		r.live[s] = keep
	}
	return out
}

func randRounds(seed int64, rounds, perRound int, domain int32) [][]tuple.Tuple {
	return randRoundsFrom(seed, rounds, perRound, domain, 0)
}

func randRoundsFrom(seed int64, rounds, perRound int, domain, baseTS int32) [][]tuple.Tuple {
	r := rand.New(rand.NewSource(seed))
	out := make([][]tuple.Tuple, rounds)
	ts := baseTS
	for i := range out {
		n := r.Intn(perRound)
		batch := make([]tuple.Tuple, n)
		for j := range batch {
			ts += int32(r.Intn(20))
			batch[j] = tup(tuple.StreamID(r.Intn(2)), r.Int31n(domain), ts)
		}
		out[i] = batch
	}
	return out
}

func TestFirstPairProducesOneOutput(t *testing.T) {
	for _, mode := range []Mode{ModeIndexed, ModeScan, ModeHash} {
		m := MustNew(testCfg(mode))
		res := m.Process(0, 10, []tuple.Tuple{tup(tuple.S1, 7, 1), tup(tuple.S2, 7, 2)})
		if res.Outputs != 1 {
			t.Fatalf("mode %d: outputs = %d, want 1 (fresh×fresh joined once)", mode, res.Outputs)
		}
		if res.Ingested != 2 {
			t.Fatalf("ingested = %d", res.Ingested)
		}
	}
}

func TestNoDuplicateAcrossRounds(t *testing.T) {
	for _, mode := range []Mode{ModeIndexed, ModeScan, ModeHash} {
		m := MustNew(testCfg(mode))
		r1 := m.Process(0, 10, []tuple.Tuple{tup(tuple.S1, 7, 1)})
		r2 := m.Process(0, 20, []tuple.Tuple{tup(tuple.S2, 7, 15)})
		if r1.Outputs != 0 || r2.Outputs != 1 {
			t.Fatalf("mode %d: outputs = %d,%d want 0,1", mode, r1.Outputs, r2.Outputs)
		}
	}
}

func TestExpiredTuplesDoNotJoin(t *testing.T) {
	for _, mode := range []Mode{ModeIndexed, ModeScan, ModeHash} {
		m := MustNew(testCfg(mode))
		m.Process(0, 100, []tuple.Tuple{tup(tuple.S1, 7, 100)})
		// An intermediate (empty) round expires the S1 tuple: window is
		// 10s and ts=100 < 15000−10000. Rounds run every epoch in the real
		// system, so expiry lag is at most one epoch.
		mid := m.Process(0, 15_000, nil)
		if mid.Expired != 1 {
			t.Fatalf("mode %d: expired = %d, want 1", mode, mid.Expired)
		}
		res := m.Process(0, 20_000, []tuple.Tuple{tup(tuple.S2, 7, 19_000)})
		if res.Outputs != 0 {
			t.Fatalf("mode %d: outputs = %d, want 0 (partner expired)", mode, res.Outputs)
		}
	}
}

func TestExpiringTuplesStillJoinThisRound(t *testing.T) {
	// A tuple leaving the window this round must still join the round's
	// fresh tuples that arrived while it was live (completeness rule:
	// probing precedes expiration).
	for _, mode := range []Mode{ModeIndexed, ModeScan, ModeHash} {
		m := MustNew(testCfg(mode))
		m.Process(0, 100, []tuple.Tuple{tup(tuple.S1, 7, 100)})
		// now=10_200 expires ts<200, but the probe happens first.
		res := m.Process(0, 10_200, []tuple.Tuple{tup(tuple.S2, 7, 5_000)})
		if res.Outputs != 1 {
			t.Fatalf("mode %d: outputs = %d, want 1", mode, res.Outputs)
		}
		if res.Expired != 1 {
			t.Fatalf("mode %d: expired = %d, want 1", mode, res.Expired)
		}
	}
}

func TestMatchesCarryProbeTimestamps(t *testing.T) {
	m := MustNew(testCfg(ModeIndexed))
	m.Process(0, 10, []tuple.Tuple{tup(tuple.S1, 7, 1), tup(tuple.S1, 7, 2)})
	res := m.Process(0, 20, []tuple.Tuple{tup(tuple.S2, 7, 15)})
	want := []Match{{TS: 15, N: 2}}
	if !reflect.DeepEqual(res.Matches, want) {
		t.Fatalf("matches = %v, want %v", res.Matches, want)
	}
}

func TestModesProduceIdenticalResults(t *testing.T) {
	rounds := randRounds(42, 30, 120, 50)
	mi := MustNew(testCfg(ModeIndexed))
	ms := MustNew(testCfg(ModeScan))
	now := int32(0)
	for i, batch := range rounds {
		now += 500
		ri := mi.Process(0, now, batch)
		rs := ms.Process(0, now, batch)
		if ri.Outputs != rs.Outputs {
			t.Fatalf("round %d: outputs %d vs %d", i, ri.Outputs, rs.Outputs)
		}
		if !reflect.DeepEqual(ri.Matches, rs.Matches) {
			t.Fatalf("round %d: matches differ:\nindexed: %v\nscan:    %v", i, ri.Matches, rs.Matches)
		}
		if ri.Scanned != rs.Scanned {
			t.Fatalf("round %d: scanned %d vs %d (modeled cost must equal real scan)", i, ri.Scanned, rs.Scanned)
		}
		if ri.Expired != rs.Expired || ri.Ingested != rs.Ingested {
			t.Fatalf("round %d: bookkeeping differs", i)
		}
	}
}

func TestMatchesAgainstBruteForceReference(t *testing.T) {
	f := func(seed int64) bool {
		rounds := randRounds(seed, 20, 80, 30)
		m := MustNew(testCfg(ModeIndexed))
		ref := &refJoin{W: 10_000}
		now := int32(0)
		for i, batch := range rounds {
			now += 800
			got := m.Process(0, now, batch)
			want := ref.round(now, batch)
			if got.Outputs != want {
				t.Logf("seed %d round %d: outputs %d, reference %d", seed, i, got.Outputs, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestScanModeAgainstReferenceWithoutFineTuning(t *testing.T) {
	cfg := testCfg(ModeScan)
	cfg.FineTune = false
	m := MustNew(cfg)
	ref := &refJoin{W: 10_000}
	now := int32(0)
	for _, batch := range randRounds(7, 25, 60, 20) {
		now += 700
		got := m.Process(0, now, batch)
		if want := ref.round(now, batch); got.Outputs != want {
			t.Fatalf("outputs %d, reference %d", got.Outputs, want)
		}
	}
	// Without fine tuning the group must stay a single scan unit.
	g, _ := m.Get(0)
	if g.NumBuckets() != 1 {
		t.Fatalf("buckets = %d, want 1", g.NumBuckets())
	}
}

func TestFineTuningBoundsBucketSizes(t *testing.T) {
	cfg := testCfg(ModeIndexed)
	m := MustNew(cfg)
	// Pour in enough distinct keys to force splits.
	var batch []tuple.Tuple
	for i := int32(0); i < 2000; i++ {
		batch = append(batch, tup(tuple.StreamID(i%2), i, 100))
	}
	res := m.Process(0, 200, batch)
	if res.Splits == 0 {
		t.Fatal("no splits despite overflow")
	}
	g, _ := m.Get(0)
	if g.NumBuckets() < 2 {
		t.Fatal("fine tuning did not create buckets")
	}
	over := 0
	g.dir.Buckets(func(_ uint32, _ uint, b *bucket) {
		if b.bytes() > 2*cfg.Theta {
			over++
		}
	})
	if over > 0 {
		t.Fatalf("%d buckets above 2θ after tuning", over)
	}
}

func TestFineTuningMergesAfterExpiry(t *testing.T) {
	cfg := testCfg(ModeIndexed)
	m := MustNew(cfg)
	var batch []tuple.Tuple
	for i := int32(0); i < 2000; i++ {
		batch = append(batch, tup(tuple.StreamID(i%2), i, 100))
	}
	m.Process(0, 200, batch)
	g, _ := m.Get(0)
	grown := g.NumBuckets()
	// Let everything expire; buckets should merge back toward one.
	res := m.Process(0, 100_000, nil)
	if res.Merges == 0 {
		t.Fatal("no merges after mass expiry")
	}
	if g.NumBuckets() >= grown {
		t.Fatalf("buckets did not shrink: %d -> %d", grown, g.NumBuckets())
	}
	if m.Merges() == 0 || m.Splits() == 0 {
		t.Fatal("module counters not updated")
	}
}

func TestWindowBytesTracksLiveTuples(t *testing.T) {
	m := MustNew(testCfg(ModeIndexed))
	m.Process(0, 100, []tuple.Tuple{tup(tuple.S1, 1, 50), tup(tuple.S2, 2, 60)})
	if m.WindowBytes() != 2*tuple.LogicalSize {
		t.Fatalf("window bytes = %d", m.WindowBytes())
	}
	m.Process(0, 50_000, nil) // everything expires
	if m.WindowBytes() != 0 {
		t.Fatalf("window bytes after expiry = %d", m.WindowBytes())
	}
}

func TestScannedGrowsWithoutFineTuning(t *testing.T) {
	// The motivating observation of §IV-D: with fine tuning the per-probe
	// scan is bounded by the 2θ bucket cap; without it, the scan grows with
	// the window.
	mkRounds := func() [][]tuple.Tuple { return randRounds(5, 15, 400, 1_000_000) }
	run := func(fineTune bool) int64 {
		cfg := testCfg(ModeIndexed)
		cfg.FineTune = fineTune
		m := MustNew(cfg)
		now := int32(0)
		var scanned int64
		for _, b := range mkRounds() {
			now += 300
			scanned += m.Process(0, now, b).Scanned
		}
		return scanned
	}
	tuned, untuned := run(true), run(false)
	if tuned >= untuned {
		t.Fatalf("fine tuning did not reduce scanning: tuned=%d untuned=%d", tuned, untuned)
	}
	if untuned < 2*tuned {
		t.Fatalf("expected a clear gap: tuned=%d untuned=%d", tuned, untuned)
	}
}

func TestStateExtractInstallRoundtrip(t *testing.T) {
	for _, mode := range []Mode{ModeIndexed, ModeScan, ModeHash} {
		src := MustNew(testCfg(mode))
		rounds := randRounds(11, 10, 150, 40)
		now := int32(0)
		for _, b := range rounds {
			now += 500
			src.Process(0, now, b)
		}
		// Move group 0 to a fresh module.
		g, ok := src.Remove(0)
		if !ok {
			t.Fatal("group missing")
		}
		// The wire leg of a move (core's closeDelta/closedShape) is
		// covered by core's TestWorkerSetStateMovementRouting; here the
		// state goes straight from Extract to Install.
		st := g.Extract()
		dst := MustNew(testCfg(mode))
		if err := dst.Install(st); err != nil {
			t.Fatal(err)
		}
		if got, want := dst.IndexBytes(), hashFootprint(t, dst); mode == ModeHash && got != want {
			t.Fatalf("installed index bytes = %d, want %d", got, want)
		}
		// Replay identical further rounds on a control copy and the moved
		// module: outputs must match exactly.
		control := MustNew(testCfg(mode))
		for _, b := range rounds {
			// Rebuild control to the same point.
			_ = b
		}
		control2 := MustNew(testCfg(mode))
		now2 := int32(0)
		for _, b := range rounds {
			now2 += 500
			control2.Process(0, now2, b)
		}
		maxTS := now
		for _, b := range rounds {
			for _, tp := range b {
				if tp.TS > maxTS {
					maxTS = tp.TS
				}
			}
		}
		more := randRoundsFrom(12, 5, 100, 40, maxTS)
		nowA, nowB := now, now
		for i, b := range more {
			nowA += 500
			nowB += 500
			ra := dst.Process(0, nowA, b)
			rb := control2.Process(0, nowB, b)
			if ra.Outputs != rb.Outputs {
				t.Fatalf("mode %d round %d after move: outputs %d vs %d", mode, i, ra.Outputs, rb.Outputs)
			}
			if !reflect.DeepEqual(ra.Matches, rb.Matches) {
				t.Fatalf("mode %d round %d after move: matches differ", mode, i)
			}
			if !reflect.DeepEqual(ra.Pairs, rb.Pairs) {
				t.Fatalf("mode %d round %d after move: pairs differ", mode, i)
			}
		}
		_ = control
	}
}

// TestAddResetsScratchStamps moves a live group between modules via
// Remove+Add (no wire round-trip, so the buckets carry the donor's scratch
// stamps) and checks the receiver still routes and joins correctly — the
// stale-stamp collision would misroute tuples or panic on the first round.
func TestAddResetsScratchStamps(t *testing.T) {
	for _, mode := range []Mode{ModeIndexed, ModeScan, ModeHash} {
		donor := MustNew(testCfg(mode))
		control := MustNew(testCfg(mode))
		rounds := randRounds(31, 8, 150, 40)
		now := int32(0)
		for _, b := range rounds {
			now += 500
			donor.Process(0, now, b)
			control.Process(0, now, b)
		}
		for _, b := range rounds {
			for _, tp := range b {
				if tp.TS > now {
					now = tp.TS
				}
			}
		}
		recv := MustNew(testCfg(mode))
		recv.Process(1, now, nil) // advance the receiver's round counter past 0
		g, ok := donor.Remove(0)
		if !ok {
			t.Fatal("group missing")
		}
		recv.Add(g)
		for i, b := range randRoundsFrom(32, 5, 150, 40, now) {
			now += 500
			ra := recv.Process(0, now, b)
			rb := control.Process(0, now, b)
			if ra.Outputs != rb.Outputs || !reflect.DeepEqual(ra.Matches, rb.Matches) {
				t.Fatalf("mode %v round %d after Add: outputs %d vs %d", mode, i, ra.Outputs, rb.Outputs)
			}
		}
	}
}

func TestInstallRejectsDuplicateGroup(t *testing.T) {
	m := MustNew(testCfg(ModeIndexed))
	m.Ensure(3)
	g := MustNew(testCfg(ModeIndexed)).Ensure(3)
	if err := m.Install(g.Extract()); err == nil {
		t.Fatal("duplicate install should fail")
	}
}

func TestInstallRejectsCorruptShape(t *testing.T) {
	m := MustNew(testCfg(ModeIndexed))
	st := State{ID: 1, GlobalDepth: 2} // no buckets cover the slots
	if err := m.Install(st); err == nil {
		t.Fatal("corrupt shape should fail")
	}
}

func TestModuleGroupManagement(t *testing.T) {
	m := MustNew(testCfg(ModeIndexed))
	m.Ensure(5)
	m.Ensure(1)
	m.Ensure(3)
	if ids := m.IDs(); !reflect.DeepEqual(ids, []int32{1, 3, 5}) {
		t.Fatalf("ids = %v", ids)
	}
	if m.NumGroups() != 3 {
		t.Fatalf("groups = %d", m.NumGroups())
	}
	if _, ok := m.Get(3); !ok {
		t.Fatal("Get(3)")
	}
	if _, ok := m.Remove(3); !ok {
		t.Fatal("Remove(3)")
	}
	if _, ok := m.Get(3); ok {
		t.Fatal("Get after Remove")
	}
	if _, ok := m.Remove(99); ok {
		t.Fatal("Remove of absent group")
	}
}

func TestDeterministicProcessing(t *testing.T) {
	run := func() []Match {
		m := MustNew(testCfg(ModeIndexed))
		var all []Match
		now := int32(0)
		for _, b := range randRounds(77, 15, 200, 25) {
			now += 400
			all = append(all, m.Process(0, now, b).Matches...)
		}
		return all
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("processing is not deterministic")
	}
}

func TestBlockExpiryConservativeOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("soak-style: the 10-key domain defeats splitting and grows the directory to max depth")
	}
	// Block-granularity expiry keeps tuples slightly longer, so it can only
	// produce more outputs than exact expiry, never fewer.
	cfgExact := testCfg(ModeScan)
	cfgExact.Expiry = ExpiryExact
	cfgBlock := testCfg(ModeScan)
	cfgBlock.Expiry = ExpiryBlocks
	me, mb := MustNew(cfgExact), MustNew(cfgBlock)
	now := int32(0)
	var oe, ob int64
	for _, b := range randRounds(3, 40, 60, 10) {
		now += 900
		oe += me.Process(0, now, b).Outputs
		ob += mb.Process(0, now, b).Outputs
	}
	if ob < oe {
		t.Fatalf("block expiry produced fewer outputs (%d) than exact (%d)", ob, oe)
	}
}

func TestConfigValidation(t *testing.T) {
	for _, bad := range []Config{
		{WindowMs: 0, Theta: 1, FineTune: false},
		{WindowMs: 100, Theta: 0, FineTune: true},
		{WindowMs: 100, Theta: 1, Mode: ModeHash + 1},
	} {
		if m, err := New(bad); err == nil {
			t.Fatalf("config %+v: New accepted it (%v)", bad, m)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("config %+v: MustNew should panic", bad)
				}
			}()
			MustNew(bad)
		}()
	}
	if _, err := New(testCfg(ModeHash)); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}
