package core

import (
	"slices"

	"streamjoin/internal/engine"
	"streamjoin/internal/tuple"
	"streamjoin/internal/wire"
)

// This file is the master half of cluster membership: slaves join, leave,
// and fail while the join runs. The paper's cluster is fixed for the
// length of an experiment; its follow-up ("Processing Database Joins over a
// Shared-Nothing System of Multicore Machines", PAPERS.md) treats node-set
// change as the normal case and reuses the same partition-movement primitive
// for it. We do the same: every membership transition is expressed as
// ordinary state movements (a wire.Directive, then a wire.WindowDelta
// stream through the slaves' workerSets), so the join-correctness argument of §IV-C carries
// over unchanged — the only new mechanics are the roster itself
// (wire.Membership), the failure detector (wire.Ping/Pong heartbeats), and
// the empty-state adoption used when a crashed slave's windows are
// unrecoverable.

// Event kinds delivered to the master's membership queue.
const (
	evJoin = iota
	evDeath
	evLeave
)

// startEpoch is the sentinel epoch of a founder's anchor batch: the cluster
// has just formed, the master's grid starts now, and epoch 0 with it.
const startEpoch = int64(-1)

// joinEpoch is the sentinel Epoch a joining slave sends in its first Hello
// (Slave: -1), and a mesh state-movement peer in its identifying Hello.
const joinEpoch = int64(-2)

// memberEvent is one membership transition, queued by the deploy layer
// (acceptor, heartbeat monitor) and drained by the master at epoch
// boundaries so all roster mutation happens on the master goroutine.
type memberEvent struct {
	kind    int
	conn    engine.Conn // join: the wrapped control connection
	close   func()      // join: closes the raw connection (rejection, death)
	addr    string      // join: advertised mesh address
	workers int32       // join: announced worker count
	slave   int32       // death/leave: the subject slave
	reason  string      // death: human-readable cause
}

// logf emits a membership log line when the deploy layer installed a logger.
func (m *masterNode) logf(format string, args ...any) {
	if m.logfn != nil {
		m.logfn(format, args...)
	}
}

// memberCount is the current roster size.
func (m *masterNode) memberCount() int {
	n := 0
	for i := range m.slots {
		if m.slots[i].member() {
			n++
		}
	}
	return n
}

// membershipFor builds the roster announcement for slave id.
func (m *masterNode) membershipFor(id int32) *wire.Membership {
	ms := &wire.Membership{Epoch: m.memEpoch, Self: id}
	for i := range m.slots {
		if m.slots[i].member() {
			ms.Slaves = append(ms.Slaves, m.slots[i].spec)
		}
	}
	return ms
}

// querySet returns the cluster's query registration message, or nil for the
// legacy single-query configuration.
func (m *masterNode) querySet() *wire.QuerySet {
	if len(m.cfg.Queries) == 0 {
		return nil
	}
	if m.qset == nil {
		qs := &wire.QuerySet{Specs: make([]wire.QuerySpec, len(m.cfg.Queries))}
		for i, q := range m.cfg.Queries {
			qs.Specs[i] = wire.QuerySpec{
				Query:     q.ID,
				Prober:    uint8(q.Prober),
				CountOnly: q.CountOnly,
				SinkAddr:  q.SinkAddr,
			}
		}
		m.qset = qs
	}
	return m.qset
}

// drainEvents applies queued membership transitions at the top of epoch e.
// Joins arriving while the run is shutting down are turned away. The
// simulator and in-process runs have no queue: a nil channel is never ready.
func (m *masterNode) drainEvents(e int64, stopping bool) {
	for {
		select {
		case ev := <-m.events:
			switch ev.kind {
			case evJoin:
				if stopping {
					m.logf("membership: join rejected at epoch %d: run is shutting down", e)
					if ev.close != nil {
						ev.close()
					}
					continue
				}
				m.admit(ev, e)
			case evDeath:
				m.handleDeath(ev.slave, ev.reason)
			case evLeave:
				m.requestLeave(ev.slave)
			}
		default:
			return
		}
	}
}

// slotClean reports whether slave i holds no groups and no movement touches
// it — the condition for releasing a leaver and for recycling its slot.
func (m *masterNode) slotClean(i int32) bool {
	s := &m.slots[i]
	return len(s.dirs) == 0 && !s.activating && !s.deactivating &&
		!m.slaveInflight(i) && !slices.Contains(m.groupOwner, i)
}

// freeSlot picks the slot a joiner takes: the lowest never-used one, else
// the lowest departed or dead one whose groups have all drained; -1 when
// none is.
func (m *masterNode) freeSlot() int32 {
	reuse := int32(-1)
	for i := range m.slots {
		switch ph := m.slots[i].phase; {
		case ph == phaseFree:
			return int32(i)
		case reuse < 0 && (ph == phaseGone || ph == phaseDead) && m.slotClean(int32(i)):
			reuse = int32(i)
		}
	}
	return reuse
}

// admit registers a joining slave: assign it a slot (freeSlot) and start
// the handshake on its new control connection — Membership (assigning its
// ID) and the query registration if any. A mid-run joiner (e >= 0) is also
// sent its anchor Batch right away, at the start of epoch e: the anchor
// carries the grid origin, so the joiner's clock reads the master's, and
// its first participating epoch is the reorganization boundary after e,
// where planBoundary activates it and peels groups toward it. At cluster
// formation (e == startEpoch) the anchors are held back until the whole
// roster has joined (startFormed), where the grid starts.
func (m *masterNode) admit(ev memberEvent, e int64) {
	id := m.freeSlot()
	if id < 0 {
		m.logf("membership: join from %s rejected: cluster at capacity (%d slaves)", ev.addr, m.cfg.Slaves)
		if ev.close != nil {
			ev.close()
		}
		return
	}

	// The slot starts afresh; a founder keeps its initial activation.
	s := &m.slots[id]
	forming := e == startEpoch
	*s = slot{conn: ev.conn, phase: phaseMember, active: forming && s.active,
		spec: wire.MemberSpec{ID: id, Addr: ev.addr, Workers: ev.workers}}
	if !forming {
		K := m.cfg.epochsPerReorg()
		s.phase, s.firstEpoch = phaseJoining, (e/K+1)*K
	}
	m.memEpoch++
	m.joins++
	if m.onAdmit != nil {
		m.onAdmit(id, ev.close)
	}
	m.logf("membership: slave %d joined (mesh %s, %d workers), first epoch %d, roster %d/%d",
		id, ev.addr, ev.workers, s.firstEpoch, m.memberCount(), m.cfg.Slaves)

	// A joiner that dies mid-handshake is evicted by its first exchange.
	tolerateTCP(func() {
		ev.conn.Send(m.membershipFor(id))
		s.lastMem = m.memEpoch
		if qs := m.querySet(); qs != nil {
			ev.conn.Send(qs)
		}
		if !forming {
			ev.conn.Send(&wire.Batch{Epoch: e, Origin: int64(m.gridAt)})
		}
	})
}

// startFormed starts the epoch grid at formation and sends every founder its
// anchor Batch (Epoch: startEpoch, Origin: the grid origin, with Activate for
// the initially active slots). A founder sets its clock to the origin on
// receipt, so the whole cluster keeps one clock, the master's — the paper's
// "synchronize clocks with the active slaves".
func (m *masterNode) startFormed() {
	m.gridAt = m.proc.Now()
	for i := range m.slots {
		if s := &m.slots[i]; s.member() {
			tolerateTCP(func() {
				s.conn.Send(&wire.Batch{Epoch: startEpoch, Origin: int64(m.gridAt), Activate: s.active})
			})
		}
	}
}

// requestLeave marks a slave as gracefully leaving: the next reorganization
// drains its groups to the survivors; once every move is acknowledged, its
// next poll batch carries Shutdown and it exits cleanly.
func (m *masterNode) requestLeave(i int32) {
	if i < 0 || int(i) >= m.cfg.Slaves {
		return
	}
	s := &m.slots[i]
	if s.phase != phaseJoining && s.phase != phaseMember {
		return
	}
	s.phase = phaseLeaving
	m.logf("membership: slave %d requested graceful leave", i)
}

// handleDeath evicts slave i after a crash (transport failure or heartbeat
// timeout). With replication off its window contents are gone with the node,
// so every group it owned is re-adopted empty by a survivor (a From: -1
// directive installing a fresh group); with cfg.Replicate the groups are
// instead promoted from the buddy's shadows (a From: -2-src directive — the
// buddy installs the replica it has been fed every epoch). In-flight
// movements touching the dead slave are unwound:
//
//   - consumer dead, directive not yet delivered to the supplier: the move
//     is cancelled and the group stays (intact) with the supplier;
//   - consumer dead, directive delivered: the supplier aborts its stream and
//     drops the group (transfer.go, abortOutgoing), so the state counts as
//     lost in transit — re-adopted empty, or promoted from the *supplier's*
//     buddy, whose shadow survives (the supplier only drops its delta
//     accumulator, never the buddy's copy);
//   - supplier dead: the consumer's mesh read fails over — to the local
//     shadow when the consumer is the dead supplier's buddy, else to an
//     empty install — and it acks normally, so the move completes by itself.
func (m *masterNode) handleDeath(i int32, reason string) {
	if i < 0 || int(i) >= m.cfg.Slaves || !m.slots[i].member() {
		return
	}
	// Nothing further is sent on its conn. accountWindowLoss below reads
	// its last reported window.
	s := &m.slots[i]
	*s = slot{conn: s.conn, phase: phaseDead, lastWindow: s.lastWindow}
	m.memEpoch++
	m.evictions++

	dropped := 0
	lostSrc := make(map[int32]int32) // group -> supplier whose buddy holds its shadow
	for id, mi := range m.inflight {
		if mi.to != i {
			continue
		}
		if m.dropPend(mi.from, id) {
			// The supplier never saw the directive: cancel the move, the
			// group stays where it is.
			m.groupOwner[mi.group] = mi.from
		} else {
			// The state is in flight toward the dead consumer: lost. Mark
			// the group as the dead slave's so the adoption pass below
			// re-creates it on a survivor — from the supplier's buddy's
			// shadow when replication is on.
			m.groupOwner[mi.group] = i
			if mi.from >= 0 {
				lostSrc[mi.group] = mi.from
			}
		}
		delete(m.heldGroup, mi.group)
		delete(m.inflight, id)
		delete(m.memMoves, id)
		dropped++
	}

	// What is still in flight now has the dead slave as its supplier, if it
	// touches it at all: the consumer's fail-over completes those moves, so
	// their groups are not free and are not re-created here.
	installs, orphans, adopted := planEviction(m.view(), i, lostSrc)
	for _, g := range orphans {
		m.logf("membership: no live slave can adopt group %d of dead slave %d", g, i)
	}
	promoted := len(installs) - adopted
	m.promotions += promoted
	m.apply(installs)
	m.accountWindowLoss(i, adopted, promoted)
	m.logf("membership: slave %d dead (%s): %d groups promoted from replicas, %d re-adopted empty, %d in-flight moves unwound, roster %d/%d",
		i, reason, promoted, adopted, dropped, m.memberCount(), m.cfg.Slaves)
}

// buddyAfter returns src's buddy on the current roster (placementView.buddyAfter).
func (m *masterNode) buddyAfter(src int32) int32 { return m.view().buddyAfter(src) }

// issueInstall directs slave `to` to create group g without a supplier:
// empty (from = -1, an adoption) or from its local replica shadow of a
// crashed slave (from = promoteFrom(src); see replica.go). Ownership
// transfers on its ack like any other movement; there is nothing to unwind —
// if `to` dies before acking, the next handleDeath re-creates the group on
// another survivor. It returns the move's id.
func (m *masterNode) issueInstall(g, from, to int32) int64 {
	d := wire.Directive{MoveID: m.nextMove, Group: g, From: from, To: to}
	m.nextMove++
	m.slots[to].dirs = append(m.slots[to].dirs, d)
	m.heldGroup[g] = true
	m.inflight[d.MoveID] = moveInfo{id: d.MoveID, group: g, from: -1, to: to}
	m.movesIssued++
	return d.MoveID
}

// accountWindowLoss estimates the window tuples lost with an eviction that
// re-adopted `adopted` groups empty (and promoted `promoted` from replicas):
// the dead slave's last reported window footprint, prorated over the groups
// that actually lost their windows. The master cannot see per-group sizes —
// this is an estimate, surfaced as such in the final summary (PairsLost).
func (m *masterNode) accountWindowLoss(i int32, adopted, promoted int) {
	if adopted <= 0 {
		return
	}
	tuples := m.slots[i].lastWindow / tuple.LogicalSize
	m.lostWindowTuples += tuples * int64(adopted) / int64(adopted+promoted)
}

// dropPend removes the directive with the given move id from slave i's
// undelivered queue, reporting whether it was still there.
func (m *masterNode) dropPend(i int32, id int64) bool {
	if i < 0 || int(i) >= m.cfg.Slaves {
		return false
	}
	s := &m.slots[i]
	for k, d := range s.dirs {
		if d.MoveID == id {
			s.dirs = slices.Delete(s.dirs, k, k+1)
			return true
		}
	}
	return false
}

// trackMove marks movement id as membership-driven: it counts toward
// GroupsRebalanced and its held time toward RebalanceStallMs.
func (m *masterNode) trackMove(id int64) {
	m.memMoves[id] = m.proc.Now()
	m.groupsMoved++
}
