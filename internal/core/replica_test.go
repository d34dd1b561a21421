package core

import (
	"slices"
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
	if m.lostWindowTuples != 0 {
		t.Errorf("lostWindowTuples = %d with the group promoted, want 0", m.lostWindowTuples)
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

// TestAccountWindowLoss: a mixed eviction (some groups promoted, some
// adopted empty) charges only the adopted share of the footprint, and a
// group lost in transit to a dead consumer is charged its supplier's share,
// not the consumer's.
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

	// Replication off: supplier 1 owns every group at 100 tuples each; the
	// joiner it streams group 0 to has reported no window yet and dies after
	// the directive was delivered.
	m = newTestMaster(t, 3, false)
	for g := range m.groupOwner {
		m.groupOwner[g] = 1
	}
	m.slots[1].lastWindow = 100 * int64(len(m.groupOwner)) * tuple.LogicalSize
	m.issueMove(0, 1, 0)
	m.slots[0].dirs, m.slots[1].dirs = nil, nil
	m.handleDeath(0, "test")
	if m.lostWindowTuples != 100 {
		t.Errorf("lostWindowTuples = %d for a group lost in transit, want its supplier's share (100)", m.lostWindowTuples)
	}
}

// TestReplicaSetApplyTake drives a shadowSet through the receive path —
// reset snapshot, incremental deltas, an advancing expiry watermark — and
// checks take returns exactly the surviving tuples, removing the shadow.
func TestReplicaSetApplyTake(t *testing.T) {
	rs, _ := newTestShadowSet()

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

	w, epoch, ok := rs.take(shadowKey{src: 0, group: 7}, 0)
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
	if _, _, ok := rs.take(shadowKey{src: 0, group: 7}, 0); ok {
		t.Error("second take found the shadow again — promotion must consume it")
	}
	if w, _, ok := rs.take(shadowKey{src: 1, group: 7}, 0); !ok || len(w[0]) != 1 || w[0][0].Key != 9 {
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
	if w, _, ok := rs.take(shadowKey{src: 0, group: 3}, 0); !ok || len(w[0]) != 1 || w[0][0].Key != 8 || len(w[1]) != 0 {
		t.Errorf("reset did not supersede the prior shadow: ok=%v %+v", ok, w)
	}
}

// TestReplicaSetSweep: shadows the owner keeps refreshing live forever;
// orphaned ones are retired after the TTL.
func TestReplicaSetSweep(t *testing.T) {
	rs, _ := newTestShadowSet()
	wd := &wire.WindowDelta{From: 0, Group: 1, Epoch: 1, Cutoff: -1_000_000}
	rs.apply(wd)
	for range replicaTTL {
		rs.sweep()
	}
	if _, _, ok := rs.take(shadowKey{src: 0, group: 1}, 0); !ok {
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
	if _, _, ok := rs.take(shadowKey{src: 0, group: 1}, 0); !ok {
		t.Fatal("refreshed shadow retired early")
	}
	rs.apply(wd)
	for range replicaTTL + 1 {
		rs.sweep()
	}
	if _, _, ok := rs.take(shadowKey{src: 0, group: 1}, 0); ok {
		t.Fatal("orphaned shadow survived past its TTL")
	}
}

// newTestShadowSet returns a shadow set on a live clock and its inbox.
func newTestShadowSet() (*shadowSet, engine.AsyncSender) {
	p := engine.NewLiveEnv().NewProc("buddy")
	in := engine.NewLiveInbox(p, 64)
	return newShadowSet(p, in), engine.NewLiveAsyncSender(p, in)
}

// TestReplicaSetEndMarker: take drains the inbox before a promotion reads a
// replica, and waits for the owner's end marker — only while the owner's
// stream is open, and never past its patience.
func TestReplicaSetEndMarker(t *testing.T) {
	rs, post := newTestShadowSet()
	k := shadowKey{src: 4, group: 2}
	delta := func(epoch int64, key int32) *wire.WindowDelta {
		return &wire.WindowDelta{From: 4, Group: 2, Epoch: epoch, Cutoff: -1_000_000,
			Runs: [2][]tuple.Tuple{{{Stream: tuple.S1, Key: key, TS: int32(epoch)}}, nil}}
	}
	keys := func(w [2][]tuple.Packed) []int32 {
		var out []int32
		for _, p := range w[0] {
			out = append(out, p.Key)
		}
		return out
	}

	// Everything queued, nothing drained yet: the delta ahead of the end
	// marker is applied before take returns, and take does not wait.
	post.SendAsync(&wire.Hello{Slave: 4, Epoch: replEpoch})
	post.SendAsync(delta(1, 10))
	post.SendAsync(streamEnd(4))
	start := time.Now()
	w, epoch, ok := rs.take(k, time.Hour)
	if !ok || epoch != 1 || !slices.Equal(keys(w), []int32{10}) {
		t.Fatalf("take = %v (epoch %d, ok %v), want the queued delta's key 10 at epoch 1", keys(w), epoch, ok)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("take waited %v after the end marker", waited)
	}

	// An open stream whose last delta and end marker arrive while take
	// waits: both are applied before it returns.
	post.SendAsync(&wire.Hello{Slave: 4, Epoch: replEpoch})
	post.SendAsync(delta(2, 20))
	rs.drain()
	go func() {
		time.Sleep(20 * time.Millisecond)
		post.SendAsync(delta(3, 30))
		post.SendAsync(streamEnd(4))
	}()
	if w, epoch, ok := rs.take(k, time.Hour); !ok || epoch != 3 || !slices.Equal(keys(w), []int32{20, 30}) {
		t.Fatalf("take = %v (epoch %d, ok %v), want keys [20 30] at epoch 3", keys(w), epoch, ok)
	}

	// A reopened stream outlives the old stream's end marker: take still
	// waits for the new one's.
	post.SendAsync(&wire.Hello{Slave: 4, Epoch: replEpoch})
	post.SendAsync(&wire.Hello{Slave: 4, Epoch: replEpoch})
	post.SendAsync(streamEnd(4))
	post.SendAsync(delta(4, 40))
	go func() {
		time.Sleep(20 * time.Millisecond)
		post.SendAsync(delta(5, 50))
		post.SendAsync(streamEnd(4))
	}()
	if w, epoch, ok := rs.take(k, time.Hour); !ok || epoch != 5 || !slices.Equal(keys(w), []int32{40, 50}) {
		t.Fatalf("take = %v (epoch %d, ok %v), want keys [40 50] at epoch 5", keys(w), epoch, ok)
	}

	// No end marker: patience bounds the wait.
	post.SendAsync(&wire.Hello{Slave: 4, Epoch: replEpoch})
	post.SendAsync(delta(6, 60))
	start = time.Now()
	if w, _, ok := rs.take(k, 50*time.Millisecond); !ok || !slices.Equal(keys(w), []int32{60}) {
		t.Fatalf("take = %v (ok %v) after its patience, want key 60", keys(w), ok)
	}
	if waited := time.Since(start); waited < 50*time.Millisecond || waited > 5*time.Second {
		t.Fatalf("take waited %v on an open stream, want its patience (50ms)", waited)
	}

	// A move's shadow never waits on the inbox.
	rs.apply(&wire.WindowDelta{From: 4, Group: 2, MoveID: 9, Reset: true})
	start = time.Now()
	if _, _, ok := rs.take(shadowKey{src: 4, group: 2, move: 9}, time.Hour); !ok {
		t.Fatal("take missed the move's shadow")
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("take of a move's shadow waited %v", waited)
	}
}

// TestReplicasMatchPrimaries runs a replicated cluster for some epochs and
// checks every replica slot for slot against its primary: the comparison of
// TestReplicaReplayIdentity, lifted to whole slaves. One row runs on pipes
// with two join workers per slave and moves forced through the memory seam,
// as the benchsweep reorg scenario forces them; the other on the simulator,
// stopped by its horizon mid-epoch.
func TestReplicasMatchPrimaries(t *testing.T) {
	for _, row := range []struct {
		name string
		run  func(Config) (*Result, []*slaveNode, error)
		cfg  func(*Config)
	}{
		{"pipes", func(c Config) (*Result, []*slaveNode, error) { return runLive(c, nil) }, func(c *Config) {
			c.Workers, c.Rate = 2, 1_000
			c.WindowMs, c.DistEpochMs, c.ReorgEpochMs = 1_500, 100, 500
			c.DurationMs, c.WarmupMs = 2_500, 500
			c.Partitions, c.SlaveMemBytes = 4, []int64{16 << 10}
		}},
		{"sim", runSim, func(c *Config) {
			c.Rate = 400
			c.WindowMs, c.DistEpochMs, c.ReorgEpochMs = 10_000, 500, 5_000
			c.DurationMs, c.WarmupMs = 20_250, 5_000
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Slaves, cfg.Replicate = 3, true
			cfg.FineTune = false // one store per stream and group, as a replica keeps
			cfg.Domain, cfg.Theta = 20_000, 32<<10
			row.cfg(&cfg)
			res, slaves, err := row.run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if row.name == "pipes" && res.MovesCompleted == 0 {
				t.Fatalf("no move completed (issued %d)", res.MovesIssued)
			}
			groups, tuples := checkReplicas(t, slaves, cfg.WindowMs)
			if groups < cfg.NumGroups()/2 || tuples == 0 {
				t.Fatalf("compared %d replicas holding %d window tuples, want most of %d groups and some tuples",
					groups, tuples, cfg.NumGroups())
			}
			t.Logf("%d moves; %d replicas, %d window tuples compared", res.MovesCompleted, groups, tuples)
		})
	}
}

// checkReplicas compares, once the slaves have stopped, every group's
// replica on its owner's buddy with the group's primary, and reports how
// many replicas and window tuples it compared. The primary minus what it
// ingested since the owner's last flush (its buddy stream's capture) is what
// the replica must hold. The two expire at different watermarks, so only
// the stretch both must still hold — newer than the window behind the
// current time — is compared slot for slot.
func checkReplicas(t *testing.T, slaves []*slaveNode, windowMs int32) (groups, tuples int) {
	t.Helper()
	for _, s := range slaves {
		s.rset.drain() // the owners' last flush
	}
	for i, s := range slaves {
		buddy := slaves[(i+1)%len(slaves)]
		since := msOf(s.proc.Now()) - windowMs
		live := func(w []tuple.Packed) []tuple.Packed {
			if at := slices.IndexFunc(w, func(p tuple.Packed) bool { return p.TS >= since }); at >= 0 {
				return w[at:]
			}
			return nil
		}
		unstreamed := 0
		for _, w := range s.ws.workers {
			for _, g := range w.mod.AppendIDs(nil) {
				at := slices.IndexFunc(w.streams[g], func(o *shadowOut) bool { return o.d.MoveID == 0 })
				if at < 0 {
					unstreamed++ // installed since the last flush
					continue
				}
				o := w.streams[g][at]
				rep := buddy.rset.entries[shadowKey{src: s.id, group: g}]
				if rep == nil {
					t.Errorf("slave %d group %d: no replica on buddy %d", s.id, g, buddy.id)
					continue
				}
				grp, _ := w.mod.Get(g)
				st := grp.Extract()
				for str := range 2 {
					tail := len(st.Window[str]) - len(o.capture[str])
					for k, c := range o.capture[str] {
						if st.Window[str][tail+k] != c.Packed() {
							t.Fatalf("slave %d group %d stream %d: capture slot %d is %+v, primary %+v",
								s.id, g, str, k, c, st.Window[str][tail+k])
						}
					}
					want, got := live(st.Window[str][:tail]), live(rep.stores[str].Snapshot())
					if !slices.Equal(want, got) {
						t.Errorf("slave %d group %d stream %d: replica holds %d window tuples, primary %d (first difference at slot %d)",
							s.id, g, str, len(got), len(want), firstDiff(want, got))
					}
					tuples += len(want)
				}
				groups++
			}
		}
		if unstreamed > len(s.acks) {
			t.Errorf("slave %d: %d groups without a buddy stream, %d installed since its last flush",
				s.id, unstreamed, len(s.acks))
		}
	}
	return groups, tuples
}

// firstDiff returns the first slot where a and b differ.
func firstDiff(a, b []tuple.Packed) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}
