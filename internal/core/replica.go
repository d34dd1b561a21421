package core

import (
	"slices"
	"sync"
	"time"

	"streamjoin/internal/engine"
	"streamjoin/internal/tuple"
	"streamjoin/internal/window"
	"streamjoin/internal/wire"
)

// This file holds buddy replication — an owner's buddy stream of every owned
// group (replicator) — and the consumer side of every window stream
// (shadowSet). When the master evicts a crashed slave it promotes the
// buddy's replicas instead of re-adopting the groups empty (elastic.go), so
// they resume with their windows intact. A replica stream rides the mesh
// listener, opened with Hello{Epoch: replEpoch} instead of joinEpoch.

// replEpoch is the Epoch of the Hello (Slave: the owner) that opens a
// replication stream, where a mesh peer sends joinEpoch.
const replEpoch = int64(-3)

// Promotion directives encode the crashed source slave in the From field
// below the empty-adoption sentinel -1: From = -2 - src. The consumer takes
// the (src, group) replica from its own shadowSet.
func promoteFrom(src int32) int32 { return -2 - src }
func promoteSrc(from int32) int32 { return -2 - from }

// replicator is the owner side of buddy replication: it tracks the roster,
// keeps one batched connection to the current buddy's mesh listener, and
// sends every owned group's buddy-stream delta each distribution epoch —
// empty deltas included, so the buddy's shadows expire in lockstep and their
// TTL stays refreshed while the owner lives.
type replicator struct {
	cfg  *Config
	self int32
	dial func(addr string) (engine.Conn, func(), error)
	proc *engine.LiveProc

	buddy     int32
	buddyAddr string
	conn      engine.Conn
	connClose func()

	wd  wire.WindowDelta // scratch
	ids []int32          // scratch
}

func newReplicator(cfg *Config, self int32, proc *engine.LiveProc,
	dial func(addr string) (engine.Conn, func(), error)) *replicator {
	return &replicator{cfg: cfg, self: self, proc: proc, dial: dial, buddy: -1}
}

// updateRoster recomputes the buddy from a roster announcement: the next
// roster member after self, cyclically (the master's buddyAfter walks the
// same order over the same membership predicate, so owner and master agree
// on where every group's replica lives). A buddy change drops the old
// stream, which restarts every buddy stream.
func (r *replicator) updateRoster(slaves []wire.MemberSpec) {
	buddy, addr := int32(-1), ""
	at := slices.IndexFunc(slaves, func(sp wire.MemberSpec) bool { return sp.ID == r.self })
	if at >= 0 && len(slaves) > 1 {
		next := slaves[(at+1)%len(slaves)]
		buddy, addr = next.ID, next.Addr
	}
	if buddy == r.buddy && addr == r.buddyAddr {
		return
	}
	r.buddy, r.buddyAddr = buddy, addr
	r.close()
}

// close tears the replication connection down: on a buddy change, a
// transport failure, slave shutdown or the kill seam.
func (r *replicator) close() {
	if r.connClose != nil {
		r.connClose()
	}
	r.conn, r.connClose = nil, nil
}

// flush sends every owned group's buddy delta for the epoch just closed. A
// new connection starts every group's buddy stream over from a fresh
// snapshot (the receiver may have missed deltas, or be another slave); a
// group installed here since the last flush opens its stream the same way.
// A transport failure drops the connection and is retried next epoch —
// replication degrades, it never takes the owner down.
func (r *replicator) flush(ws *workerSet, epoch int64, nowMs int32) {
	if r.conn == nil {
		ws.endBuddyStreams()
		if r.buddy < 0 || r.buddyAddr == "" {
			return
		}
		conn, cl, err := r.dial(r.buddyAddr)
		if err != nil {
			return // buddy unreachable; retry next epoch
		}
		r.conn, r.connClose = conn, cl
		if !tolerateTCP(func() { conn.Send(&wire.Hello{Slave: r.self, Epoch: replEpoch}) }) {
			r.close()
			return
		}
	}
	cutoff := nowMs - r.cfg.WindowMs
	var deltas, tuples int64
	ok := tolerateTCP(func() {
		for _, w := range ws.workers {
			r.ids = w.mod.AppendIDs(r.ids[:0])
			for _, g := range r.ids {
				o := w.buddyStream(wire.Directive{Group: g, From: r.self, To: r.buddy})
				r.wd = ws.next(o)
				r.wd.Epoch, r.wd.Cutoff = epoch, cutoff
				// SendBuffered encodes into the pending frame before
				// returning, so the capture is immediately reusable.
				engine.SendBuffered(r.conn, &r.wd)
				o.clearCapture()
				deltas++
				tuples += int64(len(r.wd.Runs[0]) + len(r.wd.Runs[1]))
			}
		}
		if deltas == 0 {
			// Keepalive (Group -1, discarded): an owner with no groups still
			// moves a byte per epoch, so the buddy's read deadline never
			// mistakes a healthy idle stream for a wedged one.
			r.wd = wire.WindowDelta{From: r.self, Group: -1, Epoch: epoch, Cutoff: cutoff}
			engine.SendBuffered(r.conn, &r.wd)
		}
		engine.Flush(r.conn)
	})
	if !ok {
		r.close()
		return
	}
	if r.proc != nil {
		r.proc.AddRepl(deltas, tuples, 0, 0)
	}
}

// buddyStream returns group d.Group's buddy stream, opening it as d.
func (w *joinWorker) buddyStream(d wire.Directive) *shadowOut {
	for _, o := range w.streams[d.Group] {
		if o.d.MoveID == 0 {
			return o
		}
	}
	return w.open(d)
}

// endBuddyStreams ends every group's buddy stream; moves stream on.
func (ws *workerSet) endBuddyStreams() {
	for _, w := range ws.workers {
		for g, os := range w.streams {
			w.streams[g] = slices.DeleteFunc(os, func(o *shadowOut) bool { return o.d.MoveID == 0 })
		}
	}
}

// shadowKey addresses one shadow: the slave streaming it, the group, and
// the move — 0 for a replica, so a move's shadow stays apart from the
// replica of the same (src, group) when the consumer is the supplier's buddy.
type shadowKey struct {
	src, group int32
	move       int64
}

// replicaTTL bounds, in owner epochs, how long a replica may go without a
// delta before the buddy retires it.
const replicaTTL = 8

// shadow is one partition-group shadow: both stream windows rebuilt from the
// deltas, the last delta's Epoch, and the idle epochs a replica's TTL counts
// (an orphan — the group moved away, the owner changed buddy — must go).
type shadow struct {
	stores [2]*window.Store
	epoch  int64
	ticks  int
}

// shadowSet is the consumer side of every window stream, one per slave:
// shadows indexed by shadowKey, fed by the slave loop (moves) and the mesh
// listener's replication readers, consumed by promote. The mutex spans
// reader goroutines (apply) and the slave loop.
type shadowSet struct {
	mu      sync.Mutex
	entries map[shadowKey]*shadow
	readers map[int32]chan struct{}
	closers []func()

	scratch []tuple.Packed
	proc    *engine.LiveProc // receives the replication counters; may be nil
}

func newShadowSet(proc *engine.LiveProc) *shadowSet {
	return &shadowSet{
		proc:    proc,
		entries: make(map[shadowKey]*shadow),
		readers: make(map[int32]chan struct{}),
	}
}

// apply folds one delta into its shadow, creating it on first sight. Reset
// clears first; then the runs append in store order. A replica's watermark
// expires whole blocks, the policy every live primary runs, so it stays
// slot-for-slot identical to the primary (TestReplicaReplayIdentity); a
// move's deltas carry no cutoff, and its shadow expires nothing.
func (ss *shadowSet) apply(wd *wire.WindowDelta) {
	if wd.Group < 0 {
		return // keepalive from an owner with nothing to replicate
	}
	ss.mu.Lock()
	defer ss.mu.Unlock()
	k := shadowKey{src: wd.From, group: wd.Group, move: wd.MoveID}
	e := ss.entries[k]
	if e == nil {
		e = &shadow{stores: [2]*window.Store{window.NewStore(), window.NewStore()}}
		ss.entries[k] = e
	}
	for s := range 2 {
		if wd.Reset {
			e.stores[s].Clear()
		}
		ss.scratch = ss.scratch[:0]
		for _, t := range wd.Runs[s] {
			ss.scratch = append(ss.scratch, t.Packed())
		}
		e.stores[s].AppendRun(ss.scratch)
		if wd.MoveID == 0 {
			e.stores[s].ExpireBlocks(wd.Cutoff, nil)
		}
	}
	e.epoch, e.ticks = wd.Epoch, 0
	if wd.MoveID == 0 && ss.proc != nil {
		ss.proc.AddRepl(0, 0, 1, int64(len(wd.Runs[0])+len(wd.Runs[1])))
	}
}

// beginReader registers the reader goroutine draining owner src's
// replication stream, and closeConn, its connection's teardown for closeAll
// (slave shutdown and the kill seam). The returned channel is closed by
// endReader when the stream ends, which is what take waits for (stream
// down ⇒ every delta the owner flushed before dying has been applied).
func (ss *shadowSet) beginReader(src int32, closeConn func()) chan struct{} {
	ch := make(chan struct{})
	ss.mu.Lock()
	ss.readers[src] = ch
	ss.closers = append(ss.closers, closeConn)
	ss.mu.Unlock()
	return ch
}

func (ss *shadowSet) endReader(src int32, ch chan struct{}) {
	ss.mu.Lock()
	if ss.readers[src] == ch {
		delete(ss.readers, src)
	}
	ss.mu.Unlock()
	close(ch)
}

// take removes and returns shadow k's windows and last delta Epoch. For a
// replica it first waits (bounded by patience) for src's replication reader
// to finish, so a delta already on the wire when the owner crashed is
// applied before the snapshot.
func (ss *shadowSet) take(k shadowKey, patience time.Duration) ([2][]tuple.Packed, int64, bool) {
	ss.mu.Lock()
	ch := ss.readers[k.src]
	ss.mu.Unlock()
	if ch != nil && k.move == 0 {
		select {
		case <-ch:
		case <-time.After(patience):
		}
	}
	ss.mu.Lock()
	defer ss.mu.Unlock()
	e := ss.entries[k]
	if e == nil {
		return [2][]tuple.Packed{}, 0, false
	}
	delete(ss.entries, k)
	return [2][]tuple.Packed{e.stores[0].Snapshot(), e.stores[1].Snapshot()}, e.epoch, true
}

// sweep ages every replica one epoch and retires those idle past the TTL.
// Live replicas are refreshed every owner epoch (empty deltas included), so
// only orphans — owner switched buddies, group moved away, owner released —
// ever reach it. A move's shadow ends at its close or its supplier's death.
func (ss *shadowSet) sweep() {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	for k, e := range ss.entries {
		if e.ticks++; k.move == 0 && e.ticks > replicaTTL {
			delete(ss.entries, k)
		}
	}
}

// closeAll severs every inbound replication stream.
func (ss *shadowSet) closeAll() {
	ss.mu.Lock()
	closers := ss.closers
	ss.closers = nil
	ss.mu.Unlock()
	for _, f := range closers {
		f()
	}
}
