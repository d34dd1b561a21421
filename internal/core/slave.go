package core

import (
	"fmt"
	"time"

	"streamjoin/internal/engine"
	"streamjoin/internal/exthash"
	"streamjoin/internal/join"
	"streamjoin/internal/metrics"
	"streamjoin/internal/tuple"
	"streamjoin/internal/wire"
)

// slaveNode runs the join over the partition-groups assigned to it: each
// distribution epoch it reports its load, receives a tuple batch, executes
// any movement directives (as supplier or consumer), then processes its
// backlog in chunked rounds until the next epoch boundary. The join itself
// runs on a workerSet — W per-core join workers over disjoint subsets of the
// slave's partition-groups — while this event loop keeps the paper's
// single-threaded protocol: between processing phases the workers are
// parked, so occupancy sampling, state movement, and result flushing need no
// locking.
type slaveNode struct {
	cfg  *Config
	id   int32
	proc engine.Proc
	mst  engine.Conn
	ptab *peerTable // mesh connections by slave id
	coll engine.AsyncSender

	ws *workerSet

	occSum float64
	occN   int

	acks []int64

	// degraded carries the MoveIDs of consumes that completed with an empty
	// install because the state never arrived (supplier unreachable and no
	// local shadow, or a promotion miss). Reported in the next Hello so the
	// master can account the loss exactly instead of silently absorbing it.
	degraded []int64

	// closing carries the MoveIDs of outgoing transfers whose snapshot is
	// fully shipped: the next epoch sends the closing catch-up delta.
	// Announced in that epoch's Hello so the master starts withholding the
	// group's tuples exactly when the supplier stops covering them
	// (transfer.go).
	closing []int64

	active bool

	// origin is the master's grid origin: epoch e starts at origin + e·t_d
	// on the cluster's one clock, the master's (zero on pipes and in the
	// simulator). epoch0 is the first epoch this slave takes part in: 0 for
	// a founder, the reorganization boundary after a joiner's admission.
	origin time.Duration
	epoch0 int64

	// Window streams (transfer.go, replica.go). repl ships owned groups'
	// buddy deltas each epoch (nil unless cfg.Replicate); rset holds the
	// shadows streamed here, moves' and replicas', and drains the buddy
	// streams queued in the slave's inbox. preFlush
	// runs before each epoch's Hello (the pair-sink delivery barrier, so
	// downstream output never trails what the epoch reports); failHook is
	// the fault-injection seam of the crash-recovery tests, called with slot
	// 0 at the start of epoch e and with slot j once the epoch's batch is
	// in, before data slot j.
	repl     *replicator
	rset     *shadowSet
	preFlush func()
	failHook func(e int64, slot int)
	// batchWait, when set, receives each epoch's wait from Hello to Batch
	// (JoinOptions.batchWait).
	batchWait func(time.Duration)

	// Moves in flight (transfer.go), keyed by MoveID: xferOut the streams
	// this slave supplies, xferIn the ones it consumes.
	xferOut map[int64]*shadowOut
	xferIn  map[int64]*inXfer

	// epochLat records, per epoch, how far past its scheduled slot this
	// slave finished the barrier work (flush, Hello/Batch exchange, state
	// movement) and resumed processing — the latency reorganization stalls
	// inflate. Harvested into Result.EpochLat after the run.
	epochLat metrics.DelayStats
}

func newSlave(cfg *Config, id int32, proc engine.Proc, mst engine.Conn, peers *peerTable, coll engine.AsyncSender, inbox engine.Inbox, runner engine.Runner) *slaveNode {
	active := int(id) < cfg.initialActive()
	if runner == nil {
		runner = engine.NewInlineRunner(proc)
	}
	return &slaveNode{
		cfg:     cfg,
		id:      id,
		proc:    proc,
		mst:     mst,
		ptab:    peers,
		coll:    coll,
		ws:      newWorkerSet(cfg, id, runner),
		rset:    newShadowSet(proc, inbox),
		xferOut: make(map[int64]*shadowOut),
		xferIn:  make(map[int64]*inXfer),
		active:  active,
	}
}

// run is the slave process body.
func (s *slaveNode) run() {
	defer s.ws.close()
	td := time.Duration(s.cfg.DistEpochMs) * time.Millisecond
	slotOff := s.cfg.slotOffset(int(s.id))
	K := s.cfg.epochsPerReorg()
	k := s.cfg.dataSlots()

	e := s.epoch0
	for {
		epochStart := s.origin + time.Duration(e)*td
		s.proc.IdleUntil(epochStart + slotOff)

		// End-of-epoch occupancy sample (§IV-C): backlog bytes over the
		// allotted buffer, averaged over the reorganization interval.
		// Memory-limited nodes charge the prober's key index on top of the
		// window blocks, so reorganization sees the true footprint. Both
		// figures aggregate across the join workers, so the master keeps
		// seeing one slave regardless of W.
		backlogBytes := s.ws.backlogTuples() * tuple.LogicalSize
		occ := float64(backlogBytes) / float64(s.cfg.SlaveBufBytes)
		if bound := s.cfg.memBound(s.id); bound > 0 {
			if memOcc := float64(s.ws.memoryBytes()) / float64(bound); memOcc > occ {
				occ = memOcc
			}
		}
		if occ > 1 {
			occ = 1
		}
		s.occSum += occ
		s.occN++

		// Flush the previous epoch's results to the collector.
		if s.preFlush != nil {
			s.preFlush()
		}
		s.flushEpoch()
		if s.repl != nil {
			s.repl.flush(s.ws, e, msOf(s.proc.Now()))
		}
		s.rset.drain()
		s.rset.sweep()
		if s.failHook != nil {
			s.failHook(e, 0)
		}

		avg := 0.0
		if s.occN > 0 {
			avg = s.occSum / float64(s.occN)
		}
		helloAt := s.proc.Now()
		s.mst.Send(&wire.Hello{
			Slave:       s.id,
			Epoch:       e,
			Occupancy:   avg,
			WindowBytes: s.ws.windowBytes(),
			MoveACKs:    s.acks,
			Degraded:    s.degraded,
			Closing:     s.closing,
		})
		s.acks, s.degraded, s.closing = nil, nil, nil
		if e%K == 0 {
			// Reorganization boundary: restart the averaging window.
			s.occSum, s.occN = 0, 0
		}

		// The batch may be preceded by Membership updates (roster changes
		// since our last exchange): prune mesh connections of departed
		// peers before any directive could name a new one.
		var batch *wire.Batch
		for batch == nil {
			switch v := s.mst.Recv().(type) {
			case *wire.Batch:
				batch = v
			case *wire.Membership:
				s.applyMembership(v)
			default:
				panic(fmt.Sprintf("core: slave %d expected Batch, got %T", s.id, v))
			}
		}
		if s.batchWait != nil {
			s.batchWait(s.proc.Now() - helloAt)
		}
		if batch.Activate {
			s.active = true
		}
		moveT0 := s.proc.Now()
		if s.handleDirectives(batch.Directives) {
			s.addXfer(0, 0, s.proc.Now()-moveT0)
		}
		s.ws.enqueue(batch.Tuples)
		if batch.Deactivate {
			s.active = false
		}
		if batch.Shutdown {
			s.settleTransfers()
			s.flushEpoch()
			return
		}

		// Epoch servicing latency: how far past the scheduled slot the
		// barrier work (flush, exchange, state movement) pushed the start of
		// this epoch's processing phase.
		if lat := s.proc.Now() - (epochStart + slotOff); lat > 0 {
			s.epochLat.Add(msOf(lat), 1)
		} else {
			s.epochLat.Add(0, 1)
		}

		// The epoch's data slots: an active slave processes until each and
		// takes the tuples the master buffered for it since.
		if s.active {
			for j := 1; j < k; j++ {
				if s.failHook != nil {
					s.failHook(e, j)
				}
				s.ws.processUntil(epochStart + slotOff + time.Duration(j)*td/time.Duration(k))
				s.ws.enqueue(s.recvData(e))
			}
		}

		// Process until the next participation point.
		var next int64
		if s.active {
			next = e + 1
		} else {
			next = (e/K + 1) * K
		}
		deadline := s.origin + time.Duration(next)*td + slotOff
		s.ws.processUntil(deadline)
		e = next
	}
}

// recvData reads the Batch of one of epoch e's data slots. It carries tuples
// only: another kind, another epoch, a flag or a directive breaks the fixed
// schedule.
func (s *slaveNode) recvData(e int64) []tuple.Tuple {
	msg := s.mst.Recv()
	b, ok := msg.(*wire.Batch)
	if !ok || b.Epoch != e || b.Activate || b.Deactivate || b.Shutdown || len(b.Directives) > 0 {
		panic(fmt.Sprintf("core: slave %d expected a data batch of epoch %d, got %T", s.id, e, msg))
	}
	return b.Tuples
}

// flushEpoch ships the previous epoch's result batches to the collector and
// flushes the transport, so results reach the collector once per
// distribution epoch (§IV-B) and the final batches arrive before the slave
// loop returns.
func (s *slaveNode) flushEpoch() {
	s.ws.flushResults(s.coll)
	engine.Flush(s.coll)
}

// handleDirectives registers this epoch's movement orders and runs one
// transfer step (stepTransfers), reporting whether any movement work ran
// (stall accounting).
func (s *slaveNode) handleDirectives(dirs []wire.Directive) bool {
	if len(dirs) == 0 && len(s.xferOut) == 0 && len(s.xferIn) == 0 {
		return false
	}
	for _, d := range dirs {
		switch {
		case d.From == s.id:
			s.startOutgoing(d)
		case d.To == s.id:
			s.xferIn[d.MoveID] = &inXfer{d: d}
		default:
			panic(fmt.Sprintf("core: slave %d got foreign directive %+v", s.id, d))
		}
	}
	s.stepTransfers()
	return true
}

// flushPeers pushes buffered state transfers out on every live mesh
// connection. A peer may die mid-flush; the failure is absorbed (the master
// re-plans around the dead consumer).
func (s *slaveNode) flushPeers() {
	s.ptab.each(func(p engine.Conn) {
		tolerateTCP(func() { engine.Flush(p) })
	})
}

// applyMembership reacts to a roster update: mesh connections of slaves no
// longer in the roster are closed, which also fails over any read blocked
// on a dead supplier.
func (s *slaveNode) applyMembership(ms *wire.Membership) {
	live := make(map[int32]bool, len(ms.Slaves))
	for _, sp := range ms.Slaves {
		live[sp.ID] = true
	}
	s.ptab.prune(live)
	if s.repl != nil {
		s.repl.updateRoster(ms.Slaves)
	}
}

// install makes this slave the owner of the group in st — windows, directory
// shape and the unprocessed backlog that travelled with it — and acks the
// move, which transfers ownership at the master.
func (s *slaveNode) install(st join.State, pending []tuple.Tuple, moveID int64) {
	s.proc.Compute(s.cfg.Cost.Move(st.WindowTuples() + len(pending)))
	if err := s.ws.installState(st, pending); err != nil {
		panic(err)
	}
	s.acks = append(s.acks, moveID)
}

// emptyState is the install payload of a move whose state never arrives: one
// depth-0 bucket, no windows.
func emptyState(group int32) join.State {
	return join.State{ID: group, Buckets: []exthash.Spec{{}}}
}

// recvFrom reads the next delta of move d — an installment, or the closing
// delta — from its supplier's mesh connection, or returns nil when the
// supplier is gone, never arrives within the table's patience, or stalls
// past the mesh read deadline; in every case the peer is severed, so sibling
// directives fail fast instead of re-waiting. Protocol violations (wrong
// kind, mismatched move) stay fatal.
func (s *slaveNode) recvFrom(d wire.Directive) *wire.WindowDelta {
	var msg wire.Message
	if p := s.ptab.get(d.From); p == nil || !tolerateTCP(func() { msg = p.Recv() }) {
		s.ptab.fail(d.From)
		return nil
	}
	m, ok := msg.(*wire.WindowDelta)
	if !ok {
		panic(fmt.Sprintf("core: slave %d expected state transfer from %d, got %T", s.id, d.From, msg))
	}
	if m.MoveID != d.MoveID || m.Group != d.Group {
		panic(fmt.Sprintf("core: slave %d: transfer %d/%d does not match directive %+v",
			s.id, m.MoveID, m.Group, d))
	}
	return m
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

// addXfer accounts shipped move messages and epoch-barrier time spent
// moving state (live engine; the simulated engine carries movement cost
// through the modeled clock instead).
func (s *slaveNode) addXfer(msgs, tuples int64, stall time.Duration) {
	if lp, ok := s.proc.(*engine.LiveProc); ok {
		lp.AddXfer(msgs, tuples, stall)
	}
}

// tolerateTCP runs f, absorbing a transport failure (*engine.TCPError
// panic) and reporting whether f completed. Any other panic propagates.
func tolerateTCP(f func()) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, isTCP := r.(*engine.TCPError); isTCP {
				ok = false
				return
			}
			panic(r)
		}
	}()
	f()
	return true
}
