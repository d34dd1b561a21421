package core

import (
	"testing"
	"time"

	"streamjoin/internal/engine"
	"streamjoin/internal/tuple"
	"streamjoin/internal/wire"
)

// newTestMaster builds a masterNode with every slot joined and
// active, for driving the eviction state machine directly — no connections,
// no clock dependence beyond move-issue timestamps nothing asserts on.
func newTestMaster(t *testing.T, slaves int, replicate bool) *masterNode {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Slaves = slaves
	cfg.MinSlaves = slaves
	cfg.InitialActive = slaves
	cfg.Replicate = replicate
	return newMaster(&cfg, engine.NewLiveEnv().NewProc("master-test"), nil, nil)
}

// directivesFor collects the pending directives for group g across every
// slave's undelivered queue.
func directivesFor(m *masterNode, g int32) []wire.Directive {
	var out []wire.Directive
	for i := range m.slots {
		for _, d := range m.slots[i].dirs {
			if d.Group == g {
				out = append(out, d)
			}
		}
	}
	return out
}

// TestHandleDeathPromotesToBuddy: an eviction with replication on turns every
// group of the dead slave into a promotion directive at the dead slave's
// buddy — the next roster slot, where its replicator has been shipping
// deltas — and estimates no window loss.
func TestHandleDeathPromotesToBuddy(t *testing.T) {
	m := newTestMaster(t, 3, true)
	m.slots[0].lastWindow = 512 * tuple.LogicalSize
	owned := 0
	for _, o := range m.groupOwner {
		if o == 0 {
			owned++
		}
	}
	if owned == 0 {
		t.Fatal("slave 0 owns no groups")
	}

	m.handleDeath(0, "test")

	if m.promotions != owned {
		t.Errorf("promotions = %d, want %d (every group of the dead slave)", m.promotions, owned)
	}
	if got := len(m.slots[1].dirs); got != owned {
		t.Errorf("%d directives queued at the buddy, want %d", got, owned)
	}
	for _, d := range m.slots[1].dirs {
		if d.From != promoteFrom(0) {
			t.Errorf("directive %+v: From = %d, want promoteFrom(0) = %d", d, d.From, promoteFrom(0))
		}
		if d.To != 1 {
			t.Errorf("directive %+v targets slave %d, want the buddy (1)", d, d.To)
		}
		if !m.heldGroup[d.Group] {
			t.Errorf("group %d not held during its promotion", d.Group)
		}
	}
	if m.lostWindowTuples != 0 {
		t.Errorf("lostWindowTuples = %d after full promotion, want 0", m.lostWindowTuples)
	}
	if m.slots[0].phase != phaseDead || m.slots[0].active {
		t.Error("dead slave not marked dead+inactive")
	}
}

// TestHandleDeathCancelsUndeliveredMove: the consumer of a planned move dies
// before the directive ever left the master — the move is cancelled outright
// and the group stays, intact, with its supplier. No promotion, no adoption,
// no replica is touched.
func TestHandleDeathCancelsUndeliveredMove(t *testing.T) {
	m := newTestMaster(t, 3, true)
	// Give slave 2 everything, so the only group the eviction could touch is
	// the one mid-move.
	for g := range m.groupOwner {
		m.groupOwner[g] = 2
	}
	const g = int32(0)
	m.issueMove(g, 2, 0) // supplier 2 → consumer 0; directive still pending both sides
	issued := m.movesIssued

	m.handleDeath(0, "test")

	if m.groupOwner[g] != 2 {
		t.Errorf("group %d owner = %d after cancelled move, want the supplier (2)", g, m.groupOwner[g])
	}
	if m.heldGroup[g] {
		t.Errorf("group %d still held after its move was cancelled", g)
	}
	if len(m.inflight) != 0 {
		t.Errorf("%d moves still in flight, want 0", len(m.inflight))
	}
	if ds := directivesFor(m, g); len(ds) != 0 {
		t.Errorf("directives %+v still queued for the cancelled move", ds)
	}
	if m.promotions != 0 || m.movesIssued != issued {
		t.Errorf("cancellation issued new movements: %d promotions, %d moves (had %d)",
			m.promotions, m.movesIssued, issued)
	}
}

// TestHandleDeathRecoverLostTransit: the consumer dies after the supplier
// already extracted the state toward it — the window contents are lost in
// transit, but the *supplier's* buddy still holds the shadow (extraction only
// drops the supplier's delta accumulator). The eviction must promote from the
// supplier's buddy, not the dead consumer's.
func TestHandleDeathRecoverLostTransit(t *testing.T) {
	m := newTestMaster(t, 3, true)
	for g := range m.groupOwner {
		m.groupOwner[g] = 1
	}
	const g = int32(0)
	m.issueMove(g, 1, 0)
	// Simulate the directive having been delivered to both sides (the state
	// is on the wire toward the doomed consumer).
	m.slots[0].dirs, m.slots[1].dirs = nil, nil

	m.handleDeath(0, "test")

	ds := directivesFor(m, g)
	if len(ds) != 1 {
		t.Fatalf("%d directives for the lost group, want 1 promotion", len(ds))
	}
	d := ds[0]
	if d.From != promoteFrom(1) {
		t.Errorf("promotion From = %d, want promoteFrom(supplier 1) = %d", d.From, promoteFrom(1))
	}
	// The supplier's buddy with slave 0 dead is slave 2.
	if d.To != 2 {
		t.Errorf("promotion targets slave %d, want the supplier's buddy (2)", d.To)
	}
	if m.promotions != 1 {
		t.Errorf("promotions = %d, want 1", m.promotions)
	}
}

// TestHandleDeathSupplierMidStream: the supplier of a streaming move dies.
// Its group is not held — the supplier owned it until the cut-over — yet the
// eviction must not re-create it: the consumer's fail-over installs the group
// and acks, and a second install elsewhere would leave two owners.
func TestHandleDeathSupplierMidStream(t *testing.T) {
	m := newTestMaster(t, 3, true)
	// The moving group is all the dead slave owns, so nothing else is promoted.
	for g := range m.groupOwner {
		m.groupOwner[g] = 2
	}
	const g = int32(0)
	m.groupOwner[g] = 1
	m.issueMove(g, 1, 0)
	m.slots[0].dirs, m.slots[1].dirs = nil, nil // delivered: the snapshot is streaming

	m.handleDeath(1, "test")

	if ds := directivesFor(m, g); len(ds) != 0 {
		t.Fatalf("eviction queued %+v for a group its consumer is about to install", ds)
	}
	if len(m.inflight) != 1 {
		t.Fatalf("%d moves in flight, want the one the consumer completes", len(m.inflight))
	}
	m.completeMove(1)
	if m.groupOwner[g] != 0 || m.heldGroup[g] {
		t.Errorf("after the consumer's ack: owner %d, held %v; want owner 0, released", m.groupOwner[g], m.heldGroup[g])
	}
}

// TestHandleDeathPromoteTargetDies: the fail-over unwind — the buddy itself
// dies before acking a promotion. The second eviction must re-create the
// group on another survivor (best-effort: the replica may be gone with the
// buddy, but ownership and tuple flow must recover).
func TestHandleDeathPromoteTargetDies(t *testing.T) {
	m := newTestMaster(t, 3, true)
	for g := range m.groupOwner {
		m.groupOwner[g] = 0
	}
	m.handleDeath(0, "test")
	// Promotions queued at slave 1; simulate their delivery, then kill 1
	// before any ack.
	delivered := len(m.slots[1].dirs)
	if delivered == 0 {
		t.Fatal("no promotions queued at the buddy")
	}
	m.slots[1].dirs = nil

	m.handleDeath(1, "test")

	if got := len(m.slots[2].dirs); got != delivered {
		t.Errorf("%d directives re-issued at the last survivor, want %d", got, delivered)
	}
	for _, d := range m.slots[2].dirs {
		if d.From != promoteFrom(1) {
			t.Errorf("directive %+v: From = %d, want promoteFrom(1) = %d (the dead promotion target)",
				d, d.From, promoteFrom(1))
		}
	}
	if len(m.inflight) != delivered {
		t.Errorf("%d moves in flight, want %d re-issued promotions", len(m.inflight), delivered)
	}
}

// TestHandleDeathAdoptsWithoutReplication: with replication off the eviction
// falls back to empty adoptions spread over the survivors, and the window
// loss estimate charges the dead slave's full last-reported footprint.
func TestHandleDeathAdoptsWithoutReplication(t *testing.T) {
	m := newTestMaster(t, 3, false)
	const tuples = 768
	m.slots[0].lastWindow = tuples * tuple.LogicalSize
	owned := 0
	for _, o := range m.groupOwner {
		if o == 0 {
			owned++
		}
	}

	m.handleDeath(0, "test")

	adopts := 0
	for i := 1; i <= 2; i++ {
		for _, d := range m.slots[i].dirs {
			if d.From != -1 {
				t.Errorf("directive %+v: From = %d, want -1 (empty adoption)", d, d.From)
			}
			adopts++
		}
	}
	if adopts != owned {
		t.Errorf("%d adoptions, want %d", adopts, owned)
	}
	if m.promotions != 0 {
		t.Errorf("promotions = %d with replication off, want 0", m.promotions)
	}
	if m.lostWindowTuples != tuples {
		t.Errorf("lostWindowTuples = %d, want %d (full footprint, nothing promoted)",
			m.lostWindowTuples, tuples)
	}
}

// discardConn is a control connection nobody reads: admit's handshake
// messages vanish.
type discardConn struct{}

func (discardConn) Send(wire.Message)  {}
func (discardConn) Recv() wire.Message { return nil }

// TestBuddyAfter pins the master's buddy walk to the slave-side rule (the
// next live roster slot, cyclically): dead and released slots are skipped,
// and a slave alone in the cluster has no buddy.
func TestBuddyAfter(t *testing.T) {
	m := newTestMaster(t, 4, true)
	if b := m.buddyAfter(0); b != 1 {
		t.Errorf("buddyAfter(0) = %d, want 1", b)
	}
	if b := m.buddyAfter(3); b != 0 {
		t.Errorf("buddyAfter(3) = %d, want 0 (cyclic)", b)
	}
	m.slots[1].phase = phaseDead
	m.slots[2].phase = phaseGone
	if b := m.buddyAfter(0); b != 3 {
		t.Errorf("buddyAfter(0) = %d with 1 dead and 2 released, want 3", b)
	}
	m.slots[3].phase = phaseDead
	if b := m.buddyAfter(0); b != -1 {
		t.Errorf("buddyAfter(0) = %d with no live peer, want -1", b)
	}
}

// TestAccountWindowLossProrates: a mixed eviction (some groups promoted, some
// adopted empty) charges only the adopted share of the footprint.
func TestAccountWindowLoss(t *testing.T) {
	m := newTestMaster(t, 3, true)
	m.slots[0].lastWindow = 900 * tuple.LogicalSize
	m.accountWindowLoss(0, 1, 2) // 1 adopted, 2 promoted: a third of the windows lost
	if m.lostWindowTuples != 300 {
		t.Errorf("lostWindowTuples = %d, want 300", m.lostWindowTuples)
	}
	m.lostWindowTuples = 0
	m.accountWindowLoss(0, 0, 3)
	if m.lostWindowTuples != 0 {
		t.Errorf("lostWindowTuples = %d with nothing adopted, want 0", m.lostWindowTuples)
	}
}

// TestReplicaSetApplyTake drives a replicaSet through the receive path —
// reset snapshot, incremental deltas, an advancing expiry watermark — and
// checks take returns exactly the surviving tuples, removing the shadow.
func TestReplicaSetApplyTake(t *testing.T) {
	rs := newReplicaSet(nil)

	mk := func(stream tuple.StreamID, key, ts int32) tuple.Tuple {
		return tuple.Tuple{Stream: stream, Key: key, TS: ts}
	}
	rs.apply(&wire.WindowDelta{
		From: 0, Group: 7, Epoch: 1, Reset: true, Cutoff: -1_000_000,
		Runs: [2][]tuple.Tuple{
			{mk(tuple.S1, 1, 10), mk(tuple.S1, 2, 20)},
			{mk(tuple.S2, 1, 15)},
		},
	})
	rs.apply(&wire.WindowDelta{
		From: 0, Group: 7, Epoch: 2, Cutoff: -1_000_000,
		Runs: [2][]tuple.Tuple{
			{mk(tuple.S1, 3, 30)},
			{mk(tuple.S2, 2, 25), mk(tuple.S2, 3, 35)},
		},
	})
	// A delta for another (src, group) must stay isolated.
	rs.apply(&wire.WindowDelta{
		From: 1, Group: 7, Epoch: 2, Cutoff: -1_000_000,
		Runs: [2][]tuple.Tuple{{mk(tuple.S1, 9, 90)}, nil},
	})

	w, epoch, ok := rs.take(0, 7, 0)
	if !ok {
		t.Fatal("take found no shadow")
	}
	if epoch != 2 {
		t.Errorf("shadow epoch = %d, want 2 (last applied)", epoch)
	}
	want := [2][]tuple.Tuple{
		{mk(tuple.S1, 1, 10), mk(tuple.S1, 2, 20), mk(tuple.S1, 3, 30)},
		{mk(tuple.S2, 1, 15), mk(tuple.S2, 2, 25), mk(tuple.S2, 3, 35)},
	}
	for s := 0; s < 2; s++ {
		if len(w[s]) != len(want[s]) {
			t.Fatalf("stream %d: %d tuples, want %d", s, len(w[s]), len(want[s]))
		}
		for i, p := range w[s] {
			if p.Key != want[s][i].Key || p.TS != want[s][i].TS {
				t.Errorf("stream %d slot %d: (key %d, ts %d), want (key %d, ts %d)",
					s, i, p.Key, p.TS, want[s][i].Key, want[s][i].TS)
			}
		}
	}
	if _, _, ok := rs.take(0, 7, 0); ok {
		t.Error("second take found the shadow again — promotion must consume it")
	}
	if w, _, ok := rs.take(1, 7, 0); !ok || len(w[0]) != 1 || w[0][0].Key != 9 {
		t.Errorf("other owner's shadow disturbed: ok=%v %+v", ok, w)
	}

	// A reset supersedes everything applied before it.
	rs.apply(&wire.WindowDelta{
		From: 0, Group: 3, Epoch: 1, Reset: true, Cutoff: -1_000_000,
		Runs: [2][]tuple.Tuple{{mk(tuple.S1, 1, 10)}, nil},
	})
	rs.apply(&wire.WindowDelta{
		From: 0, Group: 3, Epoch: 5, Reset: true, Cutoff: -1_000_000,
		Runs: [2][]tuple.Tuple{{mk(tuple.S1, 8, 80)}, nil},
	})
	if w, _, ok := rs.take(0, 3, 0); !ok || len(w[0]) != 1 || w[0][0].Key != 8 || len(w[1]) != 0 {
		t.Errorf("reset did not supersede the prior shadow: ok=%v %+v", ok, w)
	}
}

// TestReplicaSetSweep: shadows the owner keeps refreshing live forever;
// orphaned ones are retired after the TTL.
func TestReplicaSetSweep(t *testing.T) {
	rs := newReplicaSet(nil)
	wd := &wire.WindowDelta{From: 0, Group: 1, Epoch: 1, Cutoff: -1_000_000}
	rs.apply(wd)
	for range replicaTTL {
		rs.sweep()
	}
	if _, _, ok := rs.take(0, 1, 0); !ok {
		t.Fatal("shadow retired within its TTL")
	}
	rs.apply(wd)
	for range replicaTTL - 1 {
		rs.sweep()
	}
	rs.apply(wd) // owner refresh: idle count restarts
	for range replicaTTL {
		rs.sweep()
	}
	if _, _, ok := rs.take(0, 1, 0); !ok {
		t.Fatal("refreshed shadow retired early")
	}
	rs.apply(wd)
	for range replicaTTL + 1 {
		rs.sweep()
	}
	if _, _, ok := rs.take(0, 1, 0); ok {
		t.Fatal("orphaned shadow survived past its TTL")
	}
}

// TestReplicaSetReaderBarrier: take waits on the owner's replication reader —
// a closed reader releases it immediately, a stuck one only holds it for the
// caller's patience.
func TestReplicaSetReaderBarrier(t *testing.T) {
	rs := newReplicaSet(nil)
	rs.apply(&wire.WindowDelta{From: 4, Group: 2, Epoch: 1, Cutoff: -1_000_000})

	ch := rs.beginReader(4)
	rs.endReader(4, ch)
	if _, _, ok := rs.take(4, 2, time.Hour); !ok { // must not block: reader done
		t.Fatal("take missed the shadow after the reader ended")
	}

	rs.apply(&wire.WindowDelta{From: 4, Group: 2, Epoch: 2, Cutoff: -1_000_000})
	_ = rs.beginReader(4) // never ends: patience bounds the wait
	start := time.Now()
	if _, _, ok := rs.take(4, 2, 10*time.Millisecond); !ok {
		t.Fatal("take missed the shadow after its patience ran out")
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("take blocked %v on a stuck reader", waited)
	}

	// A stale registration must not shadow a newer reader generation.
	ch1 := rs.beginReader(9)
	ch2 := rs.beginReader(9)
	rs.endReader(9, ch1) // old generation: closed, but not deregistered over ch2
	rs.lock()
	cur := rs.readers[9]
	rs.unlock()
	if cur != ch2 {
		t.Error("stale endReader deregistered the newer reader")
	}
	rs.endReader(9, ch2)
}
