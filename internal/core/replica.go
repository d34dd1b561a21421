package core

import (
	"slices"
	"time"

	"streamjoin/internal/engine"
	"streamjoin/internal/tuple"
	"streamjoin/internal/window"
	"streamjoin/internal/wire"
)

// This file holds buddy replication — an owner's buddy stream of every owned
// group into its buddy's inbox (replicator) — and the consumer side of every
// window stream (shadowSet). When the master evicts a crashed slave it
// promotes the buddy's replicas instead of re-adopting the groups empty
// (elastic.go), so they resume with their windows intact.

// replEpoch is the Epoch of the Hello (Slave: the owner) that opens a
// replication stream, where a mesh peer sends joinEpoch.
const replEpoch = int64(-3)

// Promotion directives encode the crashed source slave in the From field
// below the empty-adoption sentinel -1: From = -2 - src. The consumer takes
// the (src, group) replica from its own shadowSet.
func promoteFrom(src int32) int32 { return -2 - src }
func promoteSrc(from int32) int32 { return -2 - from }

// replicator is the owner side of buddy replication: it tracks the roster,
// keeps one stream open toward the current buddy's inbox — dial opens it:
// in process on pipes and in the simulator, over the mesh on TCP — and
// sends every owned group's delta each distribution epoch, empty deltas
// included, so the buddy's shadows expire in lockstep and their TTL stays
// refreshed while the owner lives.
type replicator struct {
	cfg  *Config
	self int32
	proc engine.Proc
	dial func(buddy wire.MemberSpec) (engine.AsyncSender, func(), error)

	buddy    wire.MemberSpec // ID -1: none; the zero value until updateRoster
	out      engine.AsyncSender
	outClose func()

	ids []int32 // scratch
}

// updateRoster recomputes the buddy from a roster announcement: the next
// roster member after self, cyclically (the master's buddyAfter walks the
// same order over the same membership predicate, so owner and master agree
// on where every group's replica lives). A buddy change ends the old
// stream, which restarts every buddy stream.
func (r *replicator) updateRoster(slaves []wire.MemberSpec) {
	buddy := wire.MemberSpec{ID: -1}
	at := slices.IndexFunc(slaves, func(sp wire.MemberSpec) bool { return sp.ID == r.self })
	if at >= 0 && len(slaves) > 1 {
		buddy = slaves[(at+1)%len(slaves)]
	}
	if buddy == r.buddy {
		return
	}
	r.buddy = buddy
	r.close()
}

// close ends the stream: on a buddy change, a transport failure, slave
// shutdown or the kill seam.
func (r *replicator) close() {
	if r.outClose != nil {
		r.outClose()
	}
	r.out, r.outClose = nil, nil
}

// flush sends every owned group's buddy delta for the epoch just closed. A
// new stream opens with Hello{Slave: self, Epoch: replEpoch} and starts
// every group's buddy stream over from a fresh snapshot (the receiver may
// have missed deltas, or be another slave); a group installed here since the
// last flush opens its stream the same way. Each delta is a fresh message
// owning its runs (next hands the capture over): an in-process inbox keeps
// what it is sent. A transport failure ends the stream, reopened next
// epoch: replication degrades, it never takes the owner down.
func (r *replicator) flush(ws *workerSet, epoch int64, nowMs int32) {
	opened := r.out == nil
	if opened {
		ws.endBuddyStreams()
		if r.buddy.ID < 0 {
			return
		}
		out, cl, err := r.dial(r.buddy)
		if err != nil {
			return // buddy unreachable; retry next epoch
		}
		r.out, r.outClose = out, cl
	}
	cutoff := nowMs - r.cfg.WindowMs
	var deltas, tuples int64
	ok := tolerateTCP(func() {
		if opened {
			r.out.SendAsync(&wire.Hello{Slave: r.self, Epoch: replEpoch})
		}
		for _, w := range ws.workers {
			r.ids = w.mod.AppendIDs(r.ids[:0])
			for _, g := range r.ids {
				o := w.buddyStream(wire.Directive{Group: g, From: r.self, To: r.buddy.ID})
				wd := ws.next(o)
				wd.Epoch, wd.Cutoff = epoch, cutoff
				r.out.SendAsync(&wd)
				deltas++
				tuples += int64(len(wd.Runs[0]) + len(wd.Runs[1]))
			}
		}
		if deltas == 0 {
			// Keepalive (Group -1, discarded): an owner with no groups still
			// moves a byte per epoch, so the buddy's read deadline never
			// mistakes a healthy idle stream for a wedged one.
			r.out.SendAsync(&wire.WindowDelta{From: r.self, Group: -1, Epoch: epoch, Cutoff: cutoff})
		}
		engine.Flush(r.out)
	})
	if !ok {
		r.close()
		return
	}
	if lp, ok := r.proc.(*engine.LiveProc); ok {
		lp.AddRepl(deltas, tuples, 0, 0)
	}
}

// replicate turns buddy replication on (cfg.Replicate) from roster; dial
// opens the stream to a buddy.
func (s *slaveNode) replicate(roster []wire.MemberSpec, dial func(buddy wire.MemberSpec) (engine.AsyncSender, func(), error)) {
	if s.cfg.Replicate {
		s.repl = &replicator{cfg: s.cfg, self: s.id, proc: s.proc, dial: dial}
		s.repl.updateRoster(roster)
	}
}

// replicateLocal is replicate in process, on pipes or in the simulator:
// send(id) posts into slave id's inbox, and the roster is the static
// founder one the master's buddyAfter walks.
func (s *slaveNode) replicateLocal(send func(id int32) engine.AsyncSender) {
	roster := make([]wire.MemberSpec, s.cfg.Slaves)
	for i := range roster {
		roster[i].ID = int32(i)
	}
	s.replicate(roster, func(buddy wire.MemberSpec) (engine.AsyncSender, func(), error) {
		out := send(buddy.ID)
		return out, func() { out.SendAsync(streamEnd(s.id)) }, nil
	})
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

// streamEnd is the end marker of owner src's buddy stream, posted by the
// inbox's local writer (a TCP reader, an in-process replicator), never sent.
func streamEnd(src int32) *wire.WindowDelta {
	return &wire.WindowDelta{From: src, Group: -1, Close: true}
}

// shadow is one partition-group shadow: both stream windows rebuilt from the
// deltas, the last delta's Epoch, and the idle epochs a replica's TTL counts
// (an orphan — the group moved away, the owner changed buddy — must go).
type shadow struct {
	stores [2]*window.Store
	epoch  int64
	ticks  int
}

// shadowSet is the consumer side of every window stream, one per slave:
// shadows indexed by shadowKey, consumed by promote. Moves' deltas arrive on
// the slave loop's mesh reads; buddy streams queue in the inbox, which the
// slave loop drains each epoch and before a promotion, so every apply runs
// on the slave loop.
type shadowSet struct {
	entries map[shadowKey]*shadow
	in      engine.Inbox
	open    map[int32]int // buddy streams per owner: opened by a Hello, not yet ended
	proc    engine.Proc   // take's clock; a LiveProc counts the replication

	scratch []tuple.Packed
}

func newShadowSet(proc engine.Proc, in engine.Inbox) *shadowSet {
	return &shadowSet{entries: make(map[shadowKey]*shadow), in: in, open: make(map[int32]int), proc: proc}
}

// drain applies every buddy-stream message queued in the inbox, at once.
func (ss *shadowSet) drain() {
	for m, ok := ss.in.TryRecv(); ok; m, ok = ss.in.TryRecv() {
		ss.receive(m)
	}
}

// receive takes a buddy stream's opening Hello, a delta, or its end marker.
func (ss *shadowSet) receive(m wire.Message) {
	switch v := m.(type) {
	case *wire.Hello:
		ss.open[v.Slave]++
	case *wire.WindowDelta:
		if v.Close {
			ss.open[v.From]--
		} else {
			ss.apply(v)
		}
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
	if lp, ok := ss.proc.(*engine.LiveProc); ok && wd.MoveID == 0 {
		lp.AddRepl(0, 0, 1, int64(len(wd.Runs[0])+len(wd.Runs[1])))
	}
}

// take removes and returns shadow k's windows and last delta Epoch. For a
// replica it first drains the inbox and, while src's buddy stream is open,
// waits (bounded by patience) for its end marker, so a delta already on the
// wire when the owner crashed is applied before the snapshot.
func (ss *shadowSet) take(k shadowKey, patience time.Duration) ([2][]tuple.Packed, int64, bool) {
	if k.move == 0 {
		ss.drain()
		for deadline := ss.proc.Now() + patience; ss.open[k.src] > 0; {
			m, ok := ss.in.RecvBefore(deadline)
			if !ok {
				break
			}
			ss.receive(m)
		}
	}
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
	for k, e := range ss.entries {
		if e.ticks++; k.move == 0 && e.ticks > replicaTTL {
			delete(ss.entries, k)
		}
	}
}
