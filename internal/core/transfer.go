package core

import (
	"fmt"
	"maps"
	"slices"
	"time"

	"streamjoin/internal/engine"
	"streamjoin/internal/join"
	"streamjoin/internal/tuple"
	"streamjoin/internal/wire"
)

// This file implements state movement (§IV-C): how a partition-group's
// window state travels from its supplier to its consumer. The supplier
// snapshots the group's windows at the directive epoch and streams the
// snapshot as StateChunk installments, one per distribution epoch, while it
// KEEPS OWNING AND PROCESSING the group: new arrivals that reach the group
// during the transfer are ingested and probed locally, and recorded as a
// catch-up delta. When the snapshot is fully shipped, the next epoch carries
// the closing StateTransfer whose window payload is that catch-up delta
// (everything ingested since the snapshot), plus the remaining unprocessed
// backlog and the directory shape — the atomic cut-over at an epoch
// boundary. The consumer concatenates snapshot installments and delta,
// installs exactly once, then acks the MoveID, which transfers ownership at
// the master. So the epoch barrier never carries more than one installment
// of any group: the stall a move inserts is bounded by the installment, not
// by the window.
//
// The installment size is derived, not configured (installmentSize): a
// move ordered at one reorganization boundary must have acked before the
// master plans the next, so the paper's cadence of one group per
// supplier/consumer pair per t_r survives.
//
// Correctness sketch: while the snapshot streams, the master keeps routing
// the moving group's new tuples to the supplier — it still owns the group,
// probes them on arrival, and the capture folds them into the delta. When
// the snapshot is fully shipped the supplier announces the cut-over in its
// next Hello (wire.Hello.Closing); from that epoch the master withholds the
// group's tuples, so the closing delta — built the same epoch — covers every
// tuple the supplier ever ingested, with nothing in flight behind it. The
// withheld tuples (one or two epochs' worth) release to the new owner when
// the consumer's ack completes the move. Each tuple is probed exactly once
// against the full window of its time, so the output pair multiset is that
// of a join that never moved anything (the *Equivalence suites assert this
// against a brute-force oracle over real TCP). The directive epoch itself
// delivers tuples to the supplier, so every supply takes this path — an
// empty or small group ships its whole snapshot in the opening installment
// and cuts over one epoch later; an extract at the directive epoch would
// race the tuples delivered behind that very directive.
//
// Ordering and deadlock freedom: one step (stepTransfers) moves every
// transfer, at every epoch and at shutdown. On each supplier→consumer link
// both ends walk their transfers in ascending MoveID, so the consumer reads
// messages in the order the supplier sent them. (A graceful leaver drains
// several groups to one survivor at once; they share a link.) MoveIDs
// ascend, so a transfer opened this epoch sorts after any already on its
// link, though there is none: planBoundary never gives a busy supplier a new
// move. That exclusion also keeps the set of concurrent transfers a
// bipartite supplier→consumer graph with disjoint sides. Every supplier
// buffers its step's messages and flushes before any slave blocks
// receiving, so no cycle can form, even over in-process rendezvous pipes.
//
// Paper correspondence: §IV-C describes the movement as one step; the
// follow-up work ("Processing Database Joins over a Shared-Nothing System of
// Multicore Machines") overlaps communication with computation to hide
// data-redistribution latency behind the join itself. Streaming the
// snapshot is that idea applied to the windowed stream-join setting, where
// the unit of redistribution is a partition-group's window state rather than
// a static relation fragment.

// xferCapture accumulates the catch-up delta of one outgoing transfer: every
// tuple the supplier ingests into the moving group after its snapshot, in
// processing order per stream. It is fed by runRound on the
// owning worker's goroutine (like the buddy-replication capture) and read by
// the slave loop with the workers parked, so it needs no locking.
type xferCapture struct {
	runs [2][]tuple.Tuple
}

// outXfer is the supplier side of one in-flight movement.
type outXfer struct {
	d    wire.Directive
	snap [2][]tuple.Tuple // unsent remainder of the wire-converted snapshot
	size int              // snapshot tuples per installment (installmentSize)
	seq  int32            // next installment index
}

func (x *outXfer) snapLeft() int { return len(x.snap[0]) + len(x.snap[1]) }

// inXfer is the consumer side of one in-flight movement: the snapshot
// installments received so far, awaiting the closing StateTransfer.
type inXfer struct {
	d      wire.Directive
	window [2][]tuple.Tuple
	next   int32 // expected next installment index; 0 until the first step
}

// installmentSize is the number of snapshot tuples each installment of a
// move carries, given the snapshot's length. A move delivered at a
// reorganization boundary B sends installments in epochs B..B+n-1, cuts over
// in B+n, and its ack rides the consumer's Hello of B+n+1; the master plans
// the next reorganization after epoch B+K-1 (K = t_r/t_d), so n may be at
// most K-2. The size is the smallest that keeps to that, but never below
// ChunkTuples, the quantum a slave already works in between looks at the
// epoch clock. With K < 3 no n meets the deadline and the opening installment
// carries the whole snapshot.
func (c *Config) installmentSize(snapLen int) int {
	n := max(int(c.epochsPerReorg())-2, 1)
	return max(c.ChunkTuples, (snapLen+n-1)/n)
}

// startOutgoing registers the transfer of directive d: snapshot the group
// without detaching it and start the catch-up capture. A group not grown yet
// snapshots empty; its opening installment is empty too, and its whole state
// rides the catch-up delta.
func (s *slaveNode) startOutgoing(d wire.Directive) {
	w := s.ws.workerOf(d.Group)
	x := &outXfer{d: d}
	if g, ok := w.mod.Get(d.Group); ok {
		snap := g.Extract()
		x.snap = snap.ToWire(d.MoveID, nil).Window
	}
	x.size = s.cfg.installmentSize(x.snapLeft())
	if w.xcap == nil {
		w.xcap = make(map[int32]*xferCapture)
	}
	w.xcap[d.Group] = &xferCapture{}
	if s.xferOut == nil {
		s.xferOut = make(map[int64]*outXfer)
	}
	s.xferOut[d.MoveID] = x
}

// sendInstallment ships the next chunk of the snapshot (at most x.size
// tuples, zero-copy sub-slices). A delivery failure aborts the transfer. The
// installment that exhausts the snapshot schedules the cut-over: the next
// Hello announces the move as Closing so the master stops routing the
// group's tuples here, and the epoch after carries the closing transfer.
func (s *slaveNode) sendInstallment(x *outXfer) {
	chunk := &wire.StateChunk{MoveID: x.d.MoveID, Group: x.d.Group, Seq: x.seq}
	limit := x.size
	for st := 0; st < 2 && limit > 0; st++ {
		n := min(limit, len(x.snap[st]))
		chunk.Window[st] = x.snap[st][:n:n]
		x.snap[st] = x.snap[st][n:]
		limit -= n
	}
	x.seq++
	n := len(chunk.Window[0]) + len(chunk.Window[1])
	s.proc.Compute(s.cfg.Cost.Move(n))
	s.addXfer(1, int64(n))
	if !s.sendTo(x.d.To, chunk) {
		s.abortOutgoing(x)
		return
	}
	if x.snapLeft() == 0 {
		s.closing = append(s.closing, x.d.MoveID)
	}
}

// finishOutgoing cuts the movement over: the group now really leaves this
// slave (extractGroup) and the closing StateTransfer carries the catch-up
// delta — the snapshot itself is already on the consumer — plus the
// remaining backlog and the directory shape the consumer rebuilds under.
func (s *slaveNode) finishOutgoing(x *outXfer) {
	w := s.ws.workerOf(x.d.Group)
	delta := w.xcap[x.d.Group]
	st, pending := s.ws.extractGroup(x.d.Group) // the snapshot is already on the consumer
	msg := st.ToWire(x.d.MoveID, pending)
	if delta != nil {
		msg.Window = delta.runs
	}
	n := len(msg.Window[0]) + len(msg.Window[1]) + len(pending)
	s.proc.Compute(s.cfg.Cost.Move(n))
	s.addXfer(1, int64(n))
	delete(s.xferOut, x.d.MoveID)
	s.sendTo(x.d.To, msg)
}

// abortOutgoing drops an in-flight outgoing transfer whose consumer is gone.
// The group's state is discarded, because that is what the master assumes of
// a move whose directive reached the supplier: it unwinds the move and
// re-adopts the group empty (or promotes a replica) on a survivor.
func (s *slaveNode) abortOutgoing(x *outXfer) {
	s.ws.extractGroup(x.d.Group) // discard; also clears the catch-up capture
	delete(s.xferOut, x.d.MoveID)
	s.xfersAborted++
}

// abortOutgoingGroup aborts any outgoing transfer of group g before an
// install of the same group: when a consumer dies mid-transfer the master
// may re-adopt g anywhere — including right back onto its old supplier —
// and the install must find the group unowned.
func (s *slaveNode) abortOutgoingGroup(g int32) {
	for _, x := range s.xferOut {
		if x.d.Group == g {
			s.abortOutgoing(x)
		}
	}
}

// stepTransfers advances every in-flight transfer by one message, the same
// step at every epoch and, repeated until none is left, at shutdown. Sends
// come first, in MoveID order: each outgoing transfer ships installment 0
// (even of an empty snapshot), then one installment per step, then the
// closing StateTransfer. They are buffered, so several messages to one
// consumer share a physical frame on a batched transport; every touched
// peer connection is flushed before the first blocking receive. Receives
// follow, also in MoveID order: one message of each incoming transfer.
func (s *slaveNode) stepTransfers() {
	for _, id := range slices.Sorted(maps.Keys(s.xferOut)) {
		x := s.xferOut[id]
		if x.seq == 0 || x.snapLeft() > 0 {
			s.sendInstallment(x)
		} else {
			s.finishOutgoing(x)
		}
	}
	s.flushPeers()
	for _, id := range slices.Sorted(maps.Keys(s.xferIn)) {
		s.stepIncoming(s.xferIn[id])
	}
}

// stepIncoming receives one message of incoming transfer x: an installment
// extends the accumulated snapshot; the closing StateTransfer completes the
// movement (snapshot plus catch-up delta install as one) and acks it. The
// first step opens the transfer: an install or promotion (From < 0)
// completes at once, and a stream must open with installment 0. A supplier
// death at any step discards the incomplete prefix and fails over to what
// this slave holds locally.
func (s *slaveNode) stepIncoming(x *inXfer) {
	d := x.d
	if x.next == 0 {
		// A consumer death mid-transfer can bounce a group right back onto
		// its old supplier (re-adoption); any outgoing transfer of this group
		// must die first so the install finds the group unowned.
		s.abortOutgoingGroup(d.Group)
		switch {
		case d.From <= -2:
			// Promotion order: the previous owner crashed, but its windows
			// were chain-replicated here — install the local shadow
			// (replica.go).
			delete(s.xferIn, d.MoveID)
			s.installReplica(d, promoteSrc(d.From))
			return
		case d.From < 0:
			// Adoption order: the previous owner crashed and its windows are
			// gone. Install the group empty so processing resumes, and ack
			// so ownership transfers.
			delete(s.xferIn, d.MoveID)
			s.install(emptyState(d.Group), nil, d.MoveID)
			return
		}
	}
	switch m := s.recvFrom(d).(type) {
	case nil:
		// If this slave happens to be the dead supplier's buddy the group's
		// shadow is local; otherwise the move completes empty and degraded.
		delete(s.xferIn, d.MoveID)
		s.installReplica(d, d.From)
	case *wire.StateChunk:
		if m.Seq != x.next {
			panic(fmt.Sprintf("core: slave %d: transfer %d installment %d, want %d",
				s.id, d.MoveID, m.Seq, x.next))
		}
		x.next++
		x.window[0] = append(x.window[0], m.Window[0]...)
		x.window[1] = append(x.window[1], m.Window[1]...)
	case *wire.StateTransfer:
		if x.next == 0 {
			panic(fmt.Sprintf("core: slave %d: transfer %d opened with %T, want the first installment",
				s.id, d.MoveID, m))
		}
		delete(s.xferIn, d.MoveID)
		m.Window[0] = append(x.window[0], m.Window[0]...)
		m.Window[1] = append(x.window[1], m.Window[1]...)
		s.install(join.StateFromWire(m), m.Pending, m.MoveID)
	}
}

// settleTransfers completes every in-flight transfer at shutdown.
func (s *slaveNode) settleTransfers() {
	for len(s.xferOut) > 0 || len(s.xferIn) > 0 {
		s.stepTransfers()
	}
}

// sendTo buffers msg toward peer `to`, reporting delivery. A dead or
// unreachable peer is severed — later sends naming it fail fast instead of
// each waiting out the table's patience budget — and false is returned so the
// caller can unwind (the master re-plans around the lost consumer).
func (s *slaveNode) sendTo(to int32, msg wire.Message) bool {
	if p := s.ptab.get(to); p != nil && tolerateTCP(func() { engine.SendBuffered(p, msg) }) {
		return true
	}
	s.ptab.fail(to)
	return false
}

// addXfer accounts shipped transfer messages (live engine; the simulated
// engine carries movement cost through the modeled clock instead).
func (s *slaveNode) addXfer(chunks, tuples int64) {
	if lp, ok := s.proc.(*engine.LiveProc); ok {
		lp.AddXfer(chunks, tuples, 0)
	}
}

// addXferStall accounts epoch-barrier time spent moving state.
func (s *slaveNode) addXferStall(d time.Duration) {
	if lp, ok := s.proc.(*engine.LiveProc); ok {
		lp.AddXfer(0, 0, d)
	}
}
