package core

import (
	"fmt"
	"maps"
	"slices"
	"time"

	"streamjoin/internal/engine"
	"streamjoin/internal/exthash"
	"streamjoin/internal/join"
	"streamjoin/internal/tuple"
	"streamjoin/internal/wire"
)

// This file implements state movement (§IV-C): how a partition-group's
// window state travels from its supplier to its consumer. The supplier
// snapshots the group's windows at the directive epoch and streams the
// snapshot as wire.WindowDelta installments, one per distribution epoch (the
// first a Reset), while it KEEPS OWNING AND PROCESSING the group: new
// arrivals that reach the group during the transfer are ingested and probed
// locally, and recorded as a catch-up delta. When the snapshot is fully
// shipped, the next epoch carries the closing delta (Close set) whose runs
// are that catch-up delta (everything ingested since the snapshot), plus the
// remaining unprocessed backlog and the directory shape — the atomic
// cut-over at an epoch boundary. The consumer concatenates snapshot
// installments and delta, installs exactly once, then acks the MoveID, which
// transfers ownership at the master. So the epoch barrier never carries
// more than one installment of any group: the stall a move inserts is
// bounded by the installment, not by the window.
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

// outXfer is the supplier side of one in-flight movement.
type outXfer struct {
	d    wire.Directive
	snap [2][]tuple.Tuple // unsent remainder of the snapshot, as runs
	size int              // snapshot tuples per installment (installmentSize)
	seq  int32            // next installment index
}

func (x *outXfer) snapLeft() int { return len(x.snap[0]) + len(x.snap[1]) }

// inXfer is the consumer side of one in-flight movement: the snapshot
// installments received so far, awaiting the closing delta.
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

// stateRuns appends the windows of st to dst as per-stream tuple runs, in
// the temporal order its stores hold them: the payload of a move's snapshot
// and of a replication reset.
func stateRuns(dst [2][]tuple.Tuple, st join.State) [2][]tuple.Tuple {
	for s := range 2 {
		dst[s] = slices.Grow(dst[s], len(st.Window[s]))
		for _, p := range st.Window[s] {
			dst[s] = append(dst[s], tuple.Tuple{Stream: tuple.StreamID(s), Key: p.Key, TS: p.TS})
		}
	}
	return dst
}

// closeDelta is the closing delta of move d carrying st — its directory
// shape and windows — and the group's unprocessed backlog.
func closeDelta(d wire.Directive, st join.State, pending []tuple.Tuple) *wire.WindowDelta {
	wd := &wire.WindowDelta{From: d.From, Group: d.Group, MoveID: d.MoveID, Close: true,
		GlobalDepth: uint8(st.GlobalDepth), Runs: stateRuns([2][]tuple.Tuple{}, st), Pending: pending}
	for _, sp := range st.Buckets {
		wd.Buckets = append(wd.Buckets, wire.BucketSpec{LocalDepth: uint8(sp.Local), Bits: sp.Bits})
	}
	return wd
}

// closedState is the group state a closing delta installs: its directory
// shape and its runs as windows (the backlog stays on the delta).
func closedState(wd *wire.WindowDelta) join.State {
	st := join.State{ID: wd.Group, GlobalDepth: uint(wd.GlobalDepth)}
	for _, sp := range wd.Buckets {
		st.Buckets = append(st.Buckets, exthash.Spec{Local: uint(sp.LocalDepth), Bits: sp.Bits})
	}
	for s := range 2 {
		st.Window[s] = make([]tuple.Packed, len(wd.Runs[s]))
		for i, t := range wd.Runs[s] {
			st.Window[s][i] = t.Packed()
		}
	}
	return st
}

// startOutgoing registers the transfer of directive d: snapshot the group
// without detaching it and start the catch-up capture. A group not grown yet
// snapshots empty; its opening installment is empty too, and its whole state
// rides the catch-up delta.
func (s *slaveNode) startOutgoing(d wire.Directive) {
	w := s.ws.workerOf(d.Group)
	x := &outXfer{d: d}
	if g, ok := w.mod.Get(d.Group); ok {
		x.snap = stateRuns(x.snap, g.Extract())
	}
	x.size = s.cfg.installmentSize(x.snapLeft())
	w.xcap[d.Group] = &replDelta{}
	if s.xferOut == nil {
		s.xferOut = make(map[int64]*outXfer)
	}
	s.xferOut[d.MoveID] = x
}

// sendNext ships move x's next delta. While snapshot is left, and at least
// once even for an empty snapshot, that is an installment: at most x.size
// tuples as zero-copy sub-slices, the first a Reset. The installment that
// exhausts the snapshot schedules the cut-over: the next Hello announces the
// move as Closing so the master stops routing the group's tuples here. The
// step after sends the closing delta: the group now really leaves this slave
// (extractGroup), and the delta carries the catch-up runs — the snapshot is
// already on the consumer — plus the remaining backlog and the directory
// shape the consumer rebuilds under. A failed installment aborts the move.
func (s *slaveNode) sendNext(x *outXfer) {
	var wd *wire.WindowDelta
	last := x.seq > 0 && x.snapLeft() == 0
	if last {
		catchUp := s.ws.workerOf(x.d.Group).xcap[x.d.Group]
		st, pending := s.ws.extractGroup(x.d.Group)
		wd = closeDelta(x.d, st, pending)
		wd.Runs = catchUp.runs
		delete(s.xferOut, x.d.MoveID)
	} else {
		wd = &wire.WindowDelta{From: x.d.From, Group: x.d.Group, MoveID: x.d.MoveID, Reset: x.seq == 0}
		limit := x.size
		for st := 0; st < 2 && limit > 0; st++ {
			n := min(limit, len(x.snap[st]))
			wd.Runs[st] = x.snap[st][:n:n]
			x.snap[st] = x.snap[st][n:]
			limit -= n
		}
	}
	wd.Epoch = int64(x.seq)
	x.seq++
	n := len(wd.Runs[0]) + len(wd.Runs[1]) + len(wd.Pending)
	s.proc.Compute(s.cfg.Cost.Move(n))
	s.addXfer(1, int64(n), 0)
	switch ok := s.sendTo(x.d.To, wd); {
	case last:
	case !ok:
		s.abortOutgoing(x)
	case x.snapLeft() == 0:
		s.closing = append(s.closing, x.d.MoveID)
	}
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
// closing delta. They are buffered, so several messages to one
// consumer share a physical frame on a batched transport; every touched
// peer connection is flushed before the first blocking receive. Receives
// follow, also in MoveID order: one message of each incoming transfer.
func (s *slaveNode) stepTransfers() {
	for _, id := range slices.Sorted(maps.Keys(s.xferOut)) {
		s.sendNext(s.xferOut[id])
	}
	s.flushPeers()
	for _, id := range slices.Sorted(maps.Keys(s.xferIn)) {
		s.stepIncoming(s.xferIn[id])
	}
}

// stepIncoming receives one delta of incoming transfer x: an installment
// extends the accumulated snapshot; the closing delta completes the movement
// (snapshot plus catch-up delta install as one) and acks it. The first step
// opens the transfer: an install or promotion (From < 0) completes at once,
// and a stream must open with the Reset installment 0; every delta must
// arrive in sequence. A supplier death at any step discards the incomplete
// prefix and fails over to what this slave holds locally.
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
	m := s.recvFrom(d)
	switch {
	case m == nil:
		// If this slave happens to be the dead supplier's buddy the group's
		// shadow is local; otherwise the move completes empty and degraded.
		delete(s.xferIn, d.MoveID)
		s.installReplica(d, d.From)
		return
	case m.Epoch != int64(x.next) || m.Reset != (x.next == 0) || m.Close && x.next == 0:
		panic(fmt.Sprintf("core: slave %d: transfer %d got installment %d (reset %v, close %v), want %d",
			s.id, d.MoveID, m.Epoch, m.Reset, m.Close, x.next))
	}
	x.next++
	x.window[0] = append(x.window[0], m.Runs[0]...)
	x.window[1] = append(x.window[1], m.Runs[1]...)
	if m.Close {
		delete(s.xferIn, d.MoveID)
		m.Runs = x.window
		s.install(closedState(m), m.Pending, m.MoveID)
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

// addXfer accounts shipped transfer messages and epoch-barrier time spent
// moving state (live engine; the simulated engine carries movement cost
// through the modeled clock instead).
func (s *slaveNode) addXfer(msgs, tuples int64, stall time.Duration) {
	if lp, ok := s.proc.(*engine.LiveProc); ok {
		lp.AddXfer(msgs, tuples, stall)
	}
}
