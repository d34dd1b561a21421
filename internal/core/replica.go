package core

import (
	"sync"
	"time"

	"streamjoin/internal/engine"
	"streamjoin/internal/join"
	"streamjoin/internal/tuple"
	"streamjoin/internal/window"
	"streamjoin/internal/wire"
)

// This file is the slave half of crash-recovery window replication: every
// partition-group's window growth is chain-replicated to a buddy slave at
// epoch boundaries (replicator, the sender) and reconstructed into shadow
// stores on the buddy (replicaSet, the receiver). When the master evicts a
// crashed slave it promotes the buddy's shadows instead of re-adopting the
// groups empty (elastic.go), so the adopted groups resume with their windows
// intact and no pair that needed them is lost. Replication rides the
// existing mesh listener: a replica stream identifies itself with
// Hello{Epoch: replEpoch} instead of the joinEpoch handshake.

// replEpoch is the sentinel Epoch a replication stream sends in its opening
// Hello (Slave: <owner id>) to distinguish itself from a mesh state-movement
// peer (which identifies with joinEpoch).
const replEpoch = int64(-3)

// Promotion directives encode the crashed source slave in the From field
// below the empty-adoption sentinel -1: From = -2 - src. The consumer takes
// the (src, group) shadow from its own replicaSet instead of reading the
// group's deltas off the mesh.
func promoteFrom(src int32) int32 { return -2 - src }
func promoteSrc(from int32) int32 { return -2 - from }

// replDelta accumulates one partition-group's window growth: the tuples
// ingested, per stream, in store order. A worker keeps one per group for
// replication (since the last epoch flush) and one per group it is moving
// out (since the move's snapshot, transfer.go); a group can be both at once,
// so the two never share a buffer. reset marks a full replication snapshot
// (the group was just installed here, or the buddy changed), telling the
// receiver to discard its prior shadow first.
type replDelta struct {
	reset bool
	runs  [2][]tuple.Tuple
}

// record appends a processed chunk to the delta. It runs on the owning
// worker's goroutine (runRound); group→worker routing is static, so no other
// goroutine touches a group's deltas during processing, and the slave loop
// only reads them with the workers parked.
func (d *replDelta) record(chunk []tuple.Tuple) {
	for _, t := range chunk {
		d.runs[t.Stream] = append(d.runs[t.Stream], t)
	}
}

func (d *replDelta) clear() {
	d.reset = false
	d.runs[0] = d.runs[0][:0]
	d.runs[1] = d.runs[1][:0]
}

// replOf returns the group's pending replication delta, creating it empty.
func (w *joinWorker) replOf(g int32) *replDelta {
	d := w.repl[g]
	if d == nil {
		d = &replDelta{}
		w.repl[g] = d
	}
	return d
}

// markReplReset replaces the group's pending delta with a full snapshot of
// the given state (what a just-installed group holds). Anything captured
// before is superseded: the snapshot already contains it.
func (ws *workerSet) markReplReset(st join.State) {
	d := ws.workerOf(st.ID).replOf(st.ID)
	d.clear()
	d.reset = true
	d.runs = stateRuns(d.runs, st)
}

// markReplResetAll snapshots every owned group — the full re-replication run
// after the buddy changes (roster churn) or the replication stream has to be
// re-established (the old buddy's shadows may be stale or gone).
func (ws *workerSet) markReplResetAll() {
	for _, w := range ws.workers {
		w.ids = w.mod.AppendIDs(w.ids[:0])
		for _, id := range w.ids {
			g, ok := w.mod.Get(id)
			if !ok {
				continue
			}
			ws.markReplReset(g.Extract())
		}
	}
}

// replicator is the owner side of buddy replication: it tracks the roster,
// keeps one batched connection to the current buddy's mesh listener, and
// flushes one WindowDelta per owned group every distribution epoch — empty
// deltas included, so the buddy's shadows expire in lockstep and their TTL
// stays refreshed while the owner lives.
type replicator struct {
	cfg  *Config
	self int32
	dial func(addr string) (engine.Conn, func(), error)
	proc *engine.LiveProc

	buddy     int32
	buddyAddr string
	conn      engine.Conn
	connClose func()
	needReset bool

	// scratch
	wd  wire.WindowDelta
	ids []int32
}

func newReplicator(cfg *Config, self int32, proc *engine.LiveProc,
	dial func(addr string) (engine.Conn, func(), error)) *replicator {
	return &replicator{cfg: cfg, self: self, proc: proc, dial: dial, buddy: -1, needReset: true}
}

// updateRoster recomputes the buddy from a roster announcement: the next
// roster member after self, cyclically (the master's buddyAfter walks the
// same order over the same membership predicate, so owner and master agree
// on where every group's replica lives). A buddy change drops the old
// stream and schedules a full re-replication.
func (r *replicator) updateRoster(slaves []wire.MemberSpec) {
	buddy, addr := int32(-1), ""
	selfAt := -1
	for i, sp := range slaves {
		if sp.ID == r.self {
			selfAt = i
			break
		}
	}
	if selfAt >= 0 && len(slaves) > 1 {
		next := slaves[(selfAt+1)%len(slaves)]
		buddy, addr = next.ID, next.Addr
	}
	if buddy == r.buddy && addr == r.buddyAddr {
		return
	}
	r.buddy, r.buddyAddr = buddy, addr
	r.drop()
}

// drop closes the replication stream; the next flush redials and resends
// full snapshots (the receiver may have missed deltas in between).
func (r *replicator) drop() {
	if r.connClose != nil {
		r.connClose()
	}
	r.conn, r.connClose = nil, nil
	r.needReset = true
}

// close tears the stream down for good (slave shutdown or kill seam).
func (r *replicator) close() {
	if r.connClose != nil {
		r.connClose()
	}
	r.conn, r.connClose = nil, nil
}

// flush emits one WindowDelta per owned group for the epoch just closed. A
// transport failure drops the stream and is retried (with full snapshots)
// next epoch — replication degrades, it never takes the owner down.
func (r *replicator) flush(ws *workerSet, epoch int64, nowMs int32) {
	if r.buddy < 0 || r.buddyAddr == "" {
		return
	}
	if r.conn == nil {
		conn, cl, err := r.dial(r.buddyAddr)
		if err != nil {
			return // buddy unreachable; retry next epoch
		}
		r.conn, r.connClose = conn, cl
		r.needReset = true
		if !tolerateTCP(func() { conn.Send(&wire.Hello{Slave: r.self, Epoch: replEpoch}) }) {
			r.drop()
			return
		}
	}
	if r.needReset {
		ws.markReplResetAll()
		r.needReset = false
	}
	cutoff := nowMs - r.cfg.WindowMs
	var deltas, tuples int64
	ok := tolerateTCP(func() {
		for _, w := range ws.workers {
			r.ids = w.mod.AppendIDs(r.ids[:0])
			for _, g := range r.ids {
				d := w.repl[g]
				r.wd = wire.WindowDelta{From: r.self, Group: g, Epoch: epoch, Cutoff: cutoff}
				if d != nil {
					r.wd.Reset = d.reset
					r.wd.Runs = d.runs
				}
				// SendBuffered encodes into the pending frame before
				// returning, so the delta's run slices are immediately
				// reusable.
				engine.SendBuffered(r.conn, &r.wd)
				deltas++
				tuples += int64(len(r.wd.Runs[0]) + len(r.wd.Runs[1]))
				if d != nil {
					d.clear()
				}
			}
		}
		if deltas == 0 {
			// Keepalive: an owner with no groups this epoch still moves a
			// byte per epoch, so the buddy's read deadline never mistakes a
			// healthy idle stream for a wedged one. The receiver discards
			// Group -1.
			r.wd = wire.WindowDelta{From: r.self, Group: -1, Epoch: epoch, Cutoff: cutoff}
			engine.SendBuffered(r.conn, &r.wd)
		}
		engine.Flush(r.conn)
	})
	if !ok {
		r.drop()
		return
	}
	if r.proc != nil {
		r.proc.AddRepl(deltas, tuples, 0, 0)
	}
}

// replKey addresses one shadow: the owner it replicates and the group.
type replKey struct {
	src   int32
	group int32
}

// replicaTTL bounds, in owner epochs, how long a replica shadow may go
// without a delta before the buddy retires it.
const replicaTTL = 8

// replEntry is one partition-group shadow: both stream windows rebuilt from
// the owner's deltas, the owner epoch last applied, and an idle-epoch count
// for TTL retirement (a shadow whose owner stopped replicating it — the
// group moved away, or the owner picked a new buddy — must not live
// forever).
type replEntry struct {
	stores [2]*window.Store
	epoch  int64
	ticks  int
}

// replicaSet is the buddy side: shadows indexed by (owner, group), fed by
// the mesh listener's replication readers, consumed by promotion directives.
// The mutex spans reader goroutines (apply) and the slave loop (take/sweep).
type replicaSet struct {
	mu      sync.Mutex
	entries map[replKey]*replEntry
	readers map[int32]chan struct{}
	closers []func()

	scratch []tuple.Packed

	proc                   *engine.LiveProc
	deltasRecv, tuplesRecv int64
}

// newReplicaSet returns an empty set; proc, when non-nil, receives the
// receive counters (the slave's process stats).
func newReplicaSet(proc *engine.LiveProc) *replicaSet {
	return &replicaSet{
		proc:    proc,
		entries: make(map[replKey]*replEntry),
		readers: make(map[int32]chan struct{}),
	}
}

func (rs *replicaSet) lock()   { rs.mu.Lock() }
func (rs *replicaSet) unlock() { rs.mu.Unlock() }

// apply folds one delta into its shadow, creating it on first sight. Reset
// clears first; then the ingest runs append in store order and the watermark
// expires whole blocks, the policy every live primary runs — the shadow
// stays slot-for-slot identical to the primary (TestReplicaReplayIdentity).
func (rs *replicaSet) apply(wd *wire.WindowDelta) {
	if wd.Group < 0 {
		return // keepalive from an owner with nothing to replicate
	}
	rs.lock()
	defer rs.unlock()
	k := replKey{src: wd.From, group: wd.Group}
	e := rs.entries[k]
	if e == nil {
		e = &replEntry{stores: [2]*window.Store{window.NewStore(), window.NewStore()}}
		rs.entries[k] = e
	}
	if wd.Reset {
		e.stores[0].Clear()
		e.stores[1].Clear()
	}
	for s := 0; s < 2; s++ {
		if run := wd.Runs[s]; len(run) > 0 {
			rs.scratch = rs.scratch[:0]
			for _, t := range run {
				rs.scratch = append(rs.scratch, t.Packed())
			}
			e.stores[s].AppendRun(rs.scratch)
			rs.tuplesRecv += int64(len(run))
		}
		e.stores[s].ExpireBlocks(wd.Cutoff, nil)
	}
	e.epoch = wd.Epoch
	e.ticks = 0
	rs.deltasRecv++
	if rs.proc != nil {
		rs.proc.AddRepl(0, 0, 1, int64(len(wd.Runs[0])+len(wd.Runs[1])))
	}
}

// beginReader registers the reader goroutine draining owner src's
// replication stream; the returned channel is closed by endReader when the
// stream ends, which is what take waits for (stream down ⇒ every delta the
// owner flushed before dying has been applied).
func (rs *replicaSet) beginReader(src int32) chan struct{} {
	ch := make(chan struct{})
	rs.lock()
	rs.readers[src] = ch
	rs.unlock()
	return ch
}

func (rs *replicaSet) endReader(src int32, ch chan struct{}) {
	rs.lock()
	if rs.readers[src] == ch {
		delete(rs.readers, src)
	}
	rs.unlock()
	close(ch)
}

// take removes and returns the (src, group) shadow's windows for promotion.
// It first waits (bounded by patience) for src's replication reader to
// finish, so a delta already on the wire when the owner crashed is applied
// before the snapshot.
func (rs *replicaSet) take(src, group int32, patience time.Duration) ([2][]tuple.Packed, int64, bool) {
	rs.lock()
	ch := rs.readers[src]
	rs.unlock()
	if ch != nil {
		select {
		case <-ch:
		case <-time.After(patience):
		}
	}
	rs.lock()
	defer rs.unlock()
	k := replKey{src: src, group: group}
	e := rs.entries[k]
	if e == nil {
		return [2][]tuple.Packed{}, 0, false
	}
	delete(rs.entries, k)
	var w [2][]tuple.Packed
	for s := 0; s < 2; s++ {
		w[s] = e.stores[s].Snapshot()
	}
	return w, e.epoch, true
}

// sweep ages every shadow one epoch and retires those idle past the TTL.
// Live shadows are refreshed every owner epoch (empty deltas included), so
// only orphans — owner switched buddies, group moved away, owner released —
// ever reach it.
func (rs *replicaSet) sweep() {
	rs.lock()
	defer rs.unlock()
	for k, e := range rs.entries {
		e.ticks++
		if e.ticks > replicaTTL {
			delete(rs.entries, k)
		}
	}
}

// stats snapshots the receive counters for the epoch stats fold.
func (rs *replicaSet) stats() (deltas, tuples int64) {
	rs.lock()
	defer rs.unlock()
	return rs.deltasRecv, rs.tuplesRecv
}

// addCloser registers a replication connection's teardown with the set, so
// slave shutdown (and the kill seam) can sever every inbound stream.
func (rs *replicaSet) addCloser(f func()) {
	rs.lock()
	rs.closers = append(rs.closers, f)
	rs.unlock()
}

func (rs *replicaSet) closeAll() {
	rs.lock()
	closers := rs.closers
	rs.closers = nil
	rs.unlock()
	for _, f := range closers {
		f()
	}
}

// installReplica completes move d from this slave's own shadow of
// (src, d.Group): a promotion order naming the crashed owner that
// chain-replicated the group here, or an ordinary move whose supplier died
// while this slave happens to be its buddy. Without a shadow — replication
// off, or the buddy assignment raced the crash — the window contents are
// lost: the group installs empty and the move is reported degraded in the
// next Hello, so the loss is accounted, not silent. Either way the move is
// acked and ownership transfers.
func (s *slaveNode) installReplica(d wire.Directive, src int32) {
	st, ok := emptyState(d.Group), false
	if s.rset != nil {
		patience := time.Duration(s.cfg.DistEpochMs) * time.Millisecond
		st.Window, _, ok = s.rset.take(src, d.Group, patience)
	}
	if ok {
		s.groupsPromoted++
	} else {
		s.promoteMisses++
		s.degraded = append(s.degraded, d.MoveID)
	}
	s.install(st, nil, d.MoveID)
}
