package core

import (
	"maps"
	"math/rand/v2"
	"slices"
	"testing"

	"streamjoin/internal/engine"
	"streamjoin/internal/tuple"
	"streamjoin/internal/wire"
	"streamjoin/internal/workload"
)

// testMaster builds a master with no engine attachments; reorganize and its
// helpers only touch controller state.
func testMaster(t *testing.T, cfg Config) *masterNode {
	t.Helper()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	return newMaster(&cfg, nil, nil, func() bool { return false })
}

func setOcc(m *masterNode, occ ...float64) {
	for i, o := range occ {
		m.slots[i].occ, m.slots[i].haveOcc = o, true
	}
}

func TestInitialPlacementRoundRobin(t *testing.T) {
	cfg := smokeConfig()
	cfg.Slaves = 3
	m := testMaster(t, cfg)
	counts := make(map[int32]int)
	for _, owner := range m.groupOwner {
		counts[owner]++
	}
	if len(counts) != 3 {
		t.Fatalf("owners = %v", counts)
	}
	for s, n := range counts {
		if n != cfg.NumGroups()/3 {
			t.Fatalf("slave %d owns %d groups, want %d", s, n, cfg.NumGroups()/3)
		}
	}
}

func TestCompleteMoveReassignsOwnership(t *testing.T) {
	cfg := smokeConfig()
	cfg.Slaves = 2
	m := testMaster(t, cfg)
	setOcc(m, 0.9, 0.001)
	m.reorganize(9)
	var mi moveInfo
	for _, v := range m.inflight {
		mi = v
	}
	m.completeMove(mi.id)
	if m.groupOwner[mi.group] != mi.to {
		t.Fatal("ownership not transferred")
	}
	if m.heldGroup[mi.group] {
		t.Fatal("group still held after ACK")
	}
	if m.movesDone != 1 {
		t.Fatalf("movesDone = %d", m.movesDone)
	}
	// Unknown ACKs are ignored.
	m.completeMove(99999)
	if m.movesDone != 1 {
		t.Fatal("unknown ACK changed state")
	}
}

// refMergeTuples k-way merges timestamp-ordered per-partition lists (ties go
// to the earlier list): the reference a group's drained run is checked
// against.
func refMergeTuples(lists [][]tuple.Tuple) []tuple.Tuple {
	var out []tuple.Tuple
	idx := make([]int, len(lists))
	for {
		best := -1
		for k, l := range lists {
			if idx[k] < len(l) && (best == -1 || l[idx[k]].TS < lists[best][idx[best]].TS) {
				best = k
			}
		}
		if best == -1 {
			return out
		}
		out = append(out, lists[best][idx[best]])
		idx[best]++
	}
}

// ingestMaster is testMaster with a process and an ingestor attached, so
// ingest and drainFor run as they do inside an epoch.
func ingestMaster(t *testing.T, cfg Config, in Ingestor) *masterNode {
	t.Helper()
	m := testMaster(t, cfg)
	m.proc = engine.NewLiveEnv().NewProc("master")
	m.in = in
	return m
}

// TestDrainForGroupContiguous is the Batch.Tuples contract as a property:
// over random ownership, random held sets and one or several partitions per
// group, draining every slave returns each buffered tuple of each owned,
// un-held group exactly once, group-contiguous, and each group's run is the
// timestamp merge of that group's partitions. Held groups stay buffered, in
// order, for a later drain.
func TestDrainForGroupContiguous(t *testing.T) {
	rng := rand.New(rand.NewPCG(14, 0xd4a1))
	for trial := 0; trial < 60; trial++ {
		cfg := smokeConfig()
		cfg.Slaves = 3
		cfg.PartitionsPerGroup = []int{1, 3}[trial%2]
		// Strictly increasing timestamps make the merge order unique; every
		// other trial repeats timestamps, where the reference breaks ties by
		// partition and the arrival order is an equally valid merge.
		ties := trial%4 >= 2

		var arrivals []tuple.Tuple
		ts := int32(0)
		for n := 200 + rng.IntN(600); n > 0; n-- {
			if !ties || rng.IntN(3) == 0 {
				ts += 1 + int32(rng.IntN(3))
			}
			arrivals = append(arrivals, tuple.Tuple{
				Stream: tuple.StreamID(rng.IntN(2)), Key: int32(rng.IntN(5000)), TS: ts})
		}
		m := ingestMaster(t, cfg, &listIngestor{tuples: arrivals})
		held := make(map[int32]bool)
		for g := range m.groupOwner {
			m.groupOwner[g] = int32(rng.IntN(cfg.Slaves))
			if rng.IntN(5) == 0 {
				held[int32(g)] = true
			}
		}
		m.heldGroup = maps.Clone(held)
		m.ingest(ts + 1)
		if m.tsClamped != 0 {
			t.Fatalf("trial %d: %d clamps on in-order input", trial, m.tsClamped)
		}

		// Reference: each group's partitions, merged by timestamp.
		perPart := make([][]tuple.Tuple, cfg.Partitions)
		for _, tp := range arrivals {
			p := cfg.PartitionOfKey(tp.Key)
			perPart[p] = append(perPart[p], tp)
		}
		want := make([][]tuple.Tuple, cfg.NumGroups())
		for g := range want {
			lo := g * cfg.PartitionsPerGroup
			want[g] = refMergeTuples(perPart[lo : lo+cfg.PartitionsPerGroup])
		}

		// checkRuns verifies one drained batch: exactly the groups owner owns
		// whose held state is wantHeld, each as one contiguous, correct run.
		checkRuns := func(batch []tuple.Tuple, owner int32, wantHeld bool) {
			t.Helper()
			seen := make(map[int32]bool)
			for lo := 0; lo < len(batch); {
				g := cfg.GroupOfKey(batch[lo].Key)
				hi := lo
				for hi < len(batch) && cfg.GroupOfKey(batch[hi].Key) == g {
					hi++
				}
				if seen[g] {
					t.Fatalf("trial %d: group %d is not contiguous in slave %d's batch", trial, g, owner)
				}
				seen[g] = true
				if m.groupOwner[g] != owner || held[g] != wantHeld {
					t.Fatalf("trial %d: slave %d drained group %d (owner %d, held %v)",
						trial, owner, g, m.groupOwner[g], held[g])
				}
				run := batch[lo:hi]
				if !ties {
					if !slices.Equal(run, want[g]) {
						t.Fatalf("trial %d: group %d run differs from the k-way merge", trial, g)
					}
				} else {
					// Same multiset, timestamp-ordered, and every partition's
					// tuples in arrival order: a valid merge of the same lists.
					if len(run) != len(want[g]) || !slices.IsSortedFunc(run, func(a, b tuple.Tuple) int { return int(a.TS - b.TS) }) {
						t.Fatalf("trial %d: group %d run is not a timestamp-ordered merge", trial, g)
					}
					sub := make([][]tuple.Tuple, cfg.Partitions)
					for _, tp := range run {
						p := cfg.PartitionOfKey(tp.Key)
						sub[p] = append(sub[p], tp)
					}
					for p := range sub {
						if len(sub[p]) > 0 && !slices.Equal(sub[p], perPart[p]) {
							t.Fatalf("trial %d: partition %d reordered inside group %d", trial, p, g)
						}
					}
				}
				lo = hi
			}
			for g, w := range want {
				if len(w) > 0 && m.groupOwner[g] == owner && held[int32(g)] == wantHeld && !seen[int32(g)] {
					t.Fatalf("trial %d: group %d (%d tuples) missing from slave %d's batch", trial, g, len(w), owner)
				}
			}
		}
		drained := 0
		for i := int32(0); i < int32(cfg.Slaves); i++ {
			batch := m.drainFor(i)
			if len(batch) != cap(batch) {
				t.Fatalf("trial %d: batch len %d cap %d, want exactly sized", trial, len(batch), cap(batch))
			}
			checkRuns(batch, i, false)
			drained += len(batch)
		}
		if got := m.bufBytes / tuple.LogicalSize; int(got) != len(arrivals)-drained {
			t.Fatalf("trial %d: %d tuples accounted as buffered, want %d", trial, got, len(arrivals)-drained)
		}
		// Releasing the held groups delivers the rest, nothing twice.
		clear(m.heldGroup)
		for i := int32(0); i < int32(cfg.Slaves); i++ {
			batch := m.drainFor(i)
			checkRuns(batch, i, true)
			drained += len(batch)
		}
		if drained != len(arrivals) || m.bufBytes != 0 {
			t.Fatalf("trial %d: drained %d of %d tuples, %d bytes still accounted", trial, drained, len(arrivals), m.bufBytes)
		}
	}
}

// TestIngestCountsTimestampClamps feeds a known number of late tuples: each
// is raised to its group's latest timestamp and counted, and in-order tuples
// are neither.
func TestIngestCountsTimestampClamps(t *testing.T) {
	cfg := smokeConfig()
	const key = 42
	other := int32(key + 1)
	for cfg.GroupOfKey(other) == cfg.GroupOfKey(key) {
		other++
	}
	m := ingestMaster(t, cfg, &listIngestor{tuples: []tuple.Tuple{
		{Key: key, TS: 10},
		{Key: key, TS: 30},
		{Key: key, TS: 20},   // late: clamped to 30
		{Key: other, TS: 15}, // another group: in order there
		{Key: key, TS: 30},   // equal is in order
	}})
	m.ingest(1 << 20)
	if m.tsClamped != 1 {
		t.Fatalf("tsClamped = %d after the first ingest, want 1", m.tsClamped)
	}
	// The guard and the count carry over to the next ingest call.
	m.in = &listIngestor{tuples: []tuple.Tuple{
		{Key: key, TS: 29},   // late: clamped to 30
		{Key: other, TS: 14}, // late in its own group: clamped to 15
	}}
	m.ingest(1 << 20)
	if m.tsClamped != 3 {
		t.Fatalf("tsClamped = %d, want 3", m.tsClamped)
	}
	got := m.minibuf[cfg.GroupOfKey(key)]
	want := []int32{10, 30, 30, 30, 30}
	if len(got) != len(want) {
		t.Fatalf("group buffer holds %d tuples, want %d", len(got), len(want))
	}
	for i, w := range want {
		if got[i].TS != w {
			t.Fatalf("buffered TS[%d] = %d, want %d", i, got[i].TS, w)
		}
	}
	if o := m.minibuf[cfg.GroupOfKey(other)]; len(o) != 2 || o[1].TS != 15 {
		t.Fatalf("other group buffer = %v", o)
	}
}

func TestShouldServeSchedule(t *testing.T) {
	cfg := smokeConfig()
	cfg.Slaves = 2
	cfg.InitialActive = 1
	m := testMaster(t, cfg)
	K := cfg.epochsPerReorg()
	if !m.shouldServe(1, 0) {
		t.Fatal("active slave must be served every epoch")
	}
	if m.shouldServe(1, 1) {
		t.Fatal("inactive slave served off poll epoch")
	}
	if !m.shouldServe(K, 1) || !m.shouldServe(0, 1) {
		t.Fatal("inactive slave must poll at reorg boundaries")
	}
}

func TestIssueMoveDeliversDirectiveToBothSides(t *testing.T) {
	cfg := smokeConfig()
	m := testMaster(t, cfg)
	m.issueMove(4, 0, 2)
	want := wire.Directive{MoveID: 1, Group: 4, From: 0, To: 2}
	if m.slots[0].dirs[0] != want || m.slots[2].dirs[0] != want {
		t.Fatalf("directives: %+v / %+v", m.slots[0].dirs, m.slots[2].dirs)
	}
}

// replayIngestor hands the master the same epoch of arrivals on every Pull.
type replayIngestor []tuple.Tuple

func (r replayIngestor) Pull(int32) []tuple.Tuple { return r }

// BenchmarkMasterIngestDrain measures the master's per-epoch data path at the
// shape of the benchmark's ingest-overload workload: one distribution epoch of
// 2 × 300 000 tuples/s (≈150 000 tuples) scattered into 60 group buffers, then
// drained for both slaves. One op is one epoch. Steady-state allocations are
// the two batch slices — O(slaves), never O(tuples) — which ci/alloc-baseline.json
// gates.
func BenchmarkMasterIngestDrain(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Slaves = 2
	if err := cfg.Validate(); err != nil {
		b.Fatal(err)
	}
	const epochMs = 250
	s1, s2 := workload.Pair(workload.Config{Rate: 300_000, Skew: 0.7, Domain: 1 << 23, Seed: 1})
	epoch := replayIngestor(workload.Merge(s1.Batch(0, epochMs), s2.Batch(0, epochMs)))
	m := newMaster(&cfg, engine.NewLiveEnv().NewProc("master"), epoch, func() bool { return false })
	runEpoch := func() {
		clear(m.lastTS) // the same epoch replays: rewind the order guard
		m.ingest(epochMs)
		for i := int32(0); i < int32(cfg.Slaves); i++ {
			if len(m.drainFor(i)) == 0 {
				b.Fatalf("slave %d drained nothing", i)
			}
		}
	}
	runEpoch() // grow the group buffers to their steady-state capacity
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runEpoch()
	}
	b.StopTimer()
	if m.bufBytes != 0 || m.tsClamped != 0 {
		b.Fatalf("%d bytes left buffered, %d clamps", m.bufBytes, m.tsClamped)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(epoch)), "ns/tuple")
	b.ReportMetric(float64(len(epoch)), "tuples/epoch")
}

// helloConn is a slave's control connection as the master sees it: every
// Recv is an empty Hello, every Send vanishes.
type helloConn struct{}

func (helloConn) Send(wire.Message)  {}
func (helloConn) Recv() wire.Message { return &wire.Hello{} }

// admissionMaster builds a master whose slots fill by admission, as a TCP
// master's do.
func admissionMaster(t *testing.T, cfg Config) *masterNode {
	t.Helper()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	m := newMaster(&cfg, engine.NewLiveEnv().NewProc("master"), nil, func() bool { return false })
	for i := range m.slots {
		m.slots[i].phase = phaseFree
	}
	return m
}

// TestAdmitReusesDepartedSlot: in a full two-slave cluster, slave 1 leaves
// gracefully; once its groups have drained and it is released, the next
// joiner takes its slot instead of being turned away at capacity.
func TestAdmitReusesDepartedSlot(t *testing.T) {
	cfg := smokeConfig()
	cfg.Slaves, cfg.MinSlaves, cfg.InitialActive = 2, 2, 2
	m := admissionMaster(t, cfg)
	join := func(e int64) {
		m.admit(memberEvent{kind: evJoin, conn: helloConn{}, addr: "127.0.0.1:1"}, e)
	}
	join(startEpoch)
	join(startEpoch)

	m.requestLeave(1)
	K := cfg.epochsPerReorg()
	m.reorganize(K - 1) // drains slave 1 toward slave 0
	if len(m.inflight) == 0 {
		t.Fatal("no drain issued for the leaver")
	}
	for id := range m.inflight {
		m.completeMove(id)
	}
	for e := K; m.leaves == 0 && e < K+4; e++ {
		m.exchange(e, 1, false)
	}
	if m.leaves != 1 {
		t.Fatalf("leaver never released: leaves = %d", m.leaves)
	}

	join(K + 4)
	if m.joins != 3 {
		t.Fatalf("joins = %d after a leave freed a slot, want 3", m.joins)
	}
	if s := &m.slots[1]; s.phase != phaseJoining || s.active || s.firstEpoch != 2*K {
		t.Fatalf("slot 1 after re-admission: phase %d, active %v, first epoch %d",
			s.phase, s.active, s.firstEpoch)
	}
}
