package core

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"time"

	"streamjoin/internal/exthash"
	"streamjoin/internal/join"
	"streamjoin/internal/tuple"
	"streamjoin/internal/wire"
)

// This file implements the window stream: how a partition-group's window
// state travels to another slave while its owner KEEPS OWNING AND PROCESSING
// the group (§IV-C, overlapped with computation as in the multicore
// follow-up paper). A move (MoveID ≠ 0) streams the group to its consumer,
// which promotes the shadow at the closing delta; buddy replication (MoveID
// 0, replica.go) streams every owned group to the next roster member, which
// promotes its replica only if the owner crashes. The supplier side
// (shadowOut) opens on a snapshot of the group's windows and captures every
// chunk the group ingests from then on; each step sends one WindowDelta
// (next). The consumer side is the slave's shadowSet (replica.go). A move is
// paced at installmentSize tuples per epoch, so the stall it inserts into
// the epoch barrier is bounded by the installment, not by the window.
// ARCHITECTURE.md ("How a partition-group moves") draws the choreography.
//
// Correctness sketch: while a move's snapshot streams, the master keeps
// routing the group's new tuples to the supplier, which probes them on
// arrival and captures them. Once the snapshot is fully shipped the supplier
// announces the cut-over in its next Hello (wire.Hello.Closing); from that
// epoch the master withholds the group's tuples, so the closing delta —
// built the same epoch — covers every tuple the supplier ever ingested, with
// nothing in flight behind it. The withheld tuples release to the new owner
// when the consumer's ack completes the move. Each tuple is probed exactly
// once against the full window of its time, so the output pair multiset is
// that of a join that never moved anything (the *Equivalence suites). The
// directive epoch itself delivers tuples to the supplier, so even an empty
// group ships an opening installment and cuts over one epoch later.
//
// Ordering and deadlock freedom: moves ride the mesh links, and one step
// (stepTransfers) moves every one of them, at every epoch and at shutdown,
// both ends of a link in ascending MoveID. The concurrent moves form a
// bipartite supplier→consumer graph (planBoundary never gives a busy
// supplier a new move), and every supplier flushes its step before any
// slave blocks receiving, so no cycle can form, even over rendezvous pipes.

// shadowOut is the supplier side of one window stream: group d.Group from
// slave d.From to slave d.To, for move d.MoveID (0 for the buddy's stream).
type shadowOut struct {
	d       wire.Directive
	size    int              // snapshot tuples per installment
	seq     int64            // index of the next delta
	snap    [2][]tuple.Tuple // unsent remainder of the snapshot, as runs
	capture [2][]tuple.Tuple // chunks the group ingested since the snapshot
}

func (o *shadowOut) snapLeft() int { return len(o.snap[0]) + len(o.snap[1]) }

// record appends a processed chunk to the capture, on the owning worker's
// goroutine (runRound): group→worker routing is static, and the slave loop
// touches a group's streams only with the workers parked.
func (o *shadowOut) record(chunk []tuple.Tuple) {
	for _, t := range chunk {
		o.capture[t.Stream] = append(o.capture[t.Stream], t)
	}
}

// clearCapture empties the capture once a buddy delta carrying it is
// encoded, keeping its buffers.
func (o *shadowOut) clearCapture() {
	o.capture[0], o.capture[1] = o.capture[0][:0], o.capture[1][:0]
}

// inXfer is the consumer side of one in-flight move: its directive and the
// index of the delta expected next (the windows build up in the shadowSet).
type inXfer struct {
	d    wire.Directive
	next int64
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
// the temporal order its stores hold them: a stream's snapshot.
func stateRuns(dst [2][]tuple.Tuple, st join.State) [2][]tuple.Tuple {
	for s := range 2 {
		dst[s] = slices.Grow(dst[s], len(st.Window[s]))
		for _, p := range st.Window[s] {
			dst[s] = append(dst[s], tuple.Tuple{Stream: tuple.StreamID(s), Key: p.Key, TS: p.TS})
		}
	}
	return dst
}

// bucketSpecs is st's directory shape as a closing delta carries it.
func bucketSpecs(st join.State) []wire.BucketSpec {
	specs := make([]wire.BucketSpec, len(st.Buckets))
	for i, sp := range st.Buckets {
		specs[i] = wire.BucketSpec{LocalDepth: uint8(sp.Local), Bits: sp.Bits}
	}
	return specs
}

// closedShape is the directory shape a closing delta installs under.
func closedShape(wd *wire.WindowDelta) join.State {
	st := join.State{ID: wd.Group, GlobalDepth: uint(wd.GlobalDepth)}
	for _, sp := range wd.Buckets {
		st.Buckets = append(st.Buckets, exthash.Spec{Local: uint(sp.LocalDepth), Bits: sp.Bits})
	}
	return st
}

// open starts stream d on a snapshot of the group's windows, without
// detaching the group; a group not grown yet snapshots empty. The stream
// ships its snapshot in one installment unless the caller paces it (size).
func (w *joinWorker) open(d wire.Directive) *shadowOut {
	o := &shadowOut{d: d, size: math.MaxInt}
	if g, ok := w.mod.Get(d.Group); ok {
		o.snap = stateRuns(o.snap, g.Extract())
	}
	w.streams[d.Group] = append(w.streams[d.Group], o)
	return o
}

// next builds stream o's next delta. While snapshot is left, and at least
// once even for an empty snapshot, that is an installment: at most o.size
// tuples as zero-copy sub-slices, the first a Reset. After it a buddy's
// delta carries the capture (the caller clears it once the delta is
// encoded), and a move's is the closing delta: the group now really leaves
// this slave (extractGroup), and the delta carries the capture — the
// snapshot is already on the consumer — plus the remaining backlog and the
// directory shape the consumer rebuilds under.
func (ws *workerSet) next(o *shadowOut) wire.WindowDelta {
	wd := wire.WindowDelta{From: o.d.From, Group: o.d.Group, MoveID: o.d.MoveID, Epoch: o.seq, Reset: o.seq == 0}
	switch {
	case wd.Reset || o.snapLeft() > 0:
		limit := o.size
		for s := range 2 {
			n := min(limit, len(o.snap[s]))
			wd.Runs[s], o.snap[s] = o.snap[s][:n:n], o.snap[s][n:]
			if len(o.snap[s]) == 0 {
				o.snap[s] = nil // a buddy stream outlives its snapshot
			}
			limit -= n
		}
	case o.d.MoveID == 0:
		wd.Runs = o.capture
	default:
		st, pending := ws.extractGroup(o.d.Group)
		wd.Close, wd.GlobalDepth, wd.Runs, wd.Pending = true, uint8(st.GlobalDepth), o.capture, pending
		wd.Buckets = bucketSpecs(st)
	}
	o.seq++
	return wd
}

// startOutgoing opens the stream of move d, paced to meet the deadline.
func (s *slaveNode) startOutgoing(d wire.Directive) {
	o := s.ws.workerOf(d.Group).open(d)
	o.size = s.cfg.installmentSize(o.snapLeft())
	s.xferOut[d.MoveID] = o
}

// sendNext ships move o's next delta. The installment that exhausts the
// snapshot schedules the cut-over: the next Hello announces the move as
// Closing so the master stops routing the group's tuples here, and the step
// after sends the closing delta. A failed installment aborts the move.
func (s *slaveNode) sendNext(o *shadowOut) {
	wd := s.ws.next(o)
	n := len(wd.Runs[0]) + len(wd.Runs[1]) + len(wd.Pending)
	s.proc.Compute(s.cfg.Cost.Move(n))
	s.addXfer(1, int64(n), 0)
	switch ok := s.sendTo(o.d.To, &wd); {
	case wd.Close:
		delete(s.xferOut, o.d.MoveID)
	case !ok:
		s.abortOutgoing(o)
	case o.snapLeft() == 0:
		s.closing = append(s.closing, o.d.MoveID)
	}
}

// abortOutgoing drops an in-flight move whose consumer is gone. The group's
// state is discarded, because that is what the master assumes of a move
// whose directive reached the supplier: it unwinds the move and re-adopts
// the group empty (or promotes a replica) on a survivor.
func (s *slaveNode) abortOutgoing(o *shadowOut) {
	s.ws.extractGroup(o.d.Group) // discard; also ends the group's streams
	delete(s.xferOut, o.d.MoveID)
}

// stepTransfers advances every in-flight move by one message: sends first,
// buffered so several messages to one consumer share a frame, and flushed
// before the first blocking receive; then one receive per incoming move.
func (s *slaveNode) stepTransfers() {
	for _, id := range slices.Sorted(maps.Keys(s.xferOut)) {
		s.sendNext(s.xferOut[id])
	}
	s.flushPeers()
	for _, id := range slices.Sorted(maps.Keys(s.xferIn)) {
		s.stepIncoming(s.xferIn[id])
	}
}

// stepIncoming receives one delta of incoming move x into its shadow; the
// closing delta promotes the shadow. An adoption or promotion order
// (From < 0) completes at once. A stream must open with the Reset
// installment 0, and every delta must arrive in sequence. A supplier death
// at any step discards the incomplete shadow and fails over to the replica
// this slave holds if it is the supplier's buddy.
func (s *slaveNode) stepIncoming(x *inXfer) {
	d := x.d
	if d.From < 0 {
		// A consumer death mid-transfer can bounce a group right back onto
		// its old supplier; its outgoing move must die first so the install
		// finds the group unowned.
		delete(s.xferIn, d.MoveID)
		for _, o := range s.xferOut {
			if o.d.Group == d.Group {
				s.abortOutgoing(o)
			}
		}
		if d.From == -1 {
			// Adoption order: the previous owner's windows are gone.
			s.install(emptyState(d.Group), nil, d.MoveID)
		} else {
			// Promotion order: they were chain-replicated here.
			s.promote(d, shadowKey{src: promoteSrc(d.From), group: d.Group}, nil)
		}
		return
	}
	k := shadowKey{src: d.From, group: d.Group, move: d.MoveID}
	m := s.recvFrom(d)
	switch {
	case m == nil:
		delete(s.xferIn, d.MoveID)
		s.rset.take(k, 0) // drop the incomplete shadow
		s.promote(d, shadowKey{src: d.From, group: d.Group}, nil)
		return
	case m.Epoch != x.next || m.Reset != (x.next == 0) || m.Close && x.next == 0:
		panic(fmt.Sprintf("core: slave %d: transfer %d got installment %d (reset %v, close %v), want %d",
			s.id, d.MoveID, m.Epoch, m.Reset, m.Close, x.next))
	}
	x.next++
	s.rset.apply(m)
	if m.Close {
		delete(s.xferIn, d.MoveID)
		s.promote(d, k, m)
	}
}

// promote completes move d from shadow k: a move's own shadow at its
// closing delta wd, installed with wd's directory shape and backlog, or —
// wd nil, the default shape — the replica a crashed owner chain-replicated
// here. A missing replica (replication off, or the buddy assignment raced
// the crash) installs the group empty and reports the move degraded in the
// next Hello, so the loss is accounted, not silent. Either way the move is
// acked and ownership transfers.
func (s *slaveNode) promote(d wire.Directive, k shadowKey, wd *wire.WindowDelta) {
	st, pending := emptyState(d.Group), []tuple.Tuple(nil)
	if wd != nil {
		st, pending = closedShape(wd), wd.Pending
	}
	var ok bool
	if st.Window, _, ok = s.rset.take(k, time.Duration(s.cfg.DistEpochMs)*time.Millisecond); !ok && wd == nil {
		s.degraded = append(s.degraded, d.MoveID)
	}
	s.install(st, pending, d.MoveID)
}

// settleTransfers completes every in-flight move at shutdown.
func (s *slaveNode) settleTransfers() {
	for len(s.xferOut) > 0 || len(s.xferIn) > 0 {
		s.stepTransfers()
	}
}
