package core

import (
	"slices"
	"time"

	"streamjoin/internal/engine"
	"streamjoin/internal/join"
	"streamjoin/internal/metrics"
	"streamjoin/internal/tuple"
	"streamjoin/internal/wire"
)

// This file implements multi-prober slaves: one slave process hosts W join
// workers (one per core by default), each owning the disjoint subset of the
// slave's partition-groups that hashes to it, with its own windowed stores
// and prober index. The demux (workerOf/enqueue) routes tuples and state
// movements by partition-group; processing fans out across the workers each
// epoch through an engine.Runner barrier; occupancy and memory reports
// aggregate across workers so the master still sees one slave. Because
// partition-groups are independent join state and each group lives on
// exactly one worker, a W-worker slave produces bit-identical join output to
// the single-worker design (asserted over real TCP by
// TestMultiWorkerEquivalence).

// joinWorker is one join lane of a multi-prober slave: a join module over
// the worker's partition-groups, the backlog queued for them, and the
// worker-local round bookkeeping. Outside workerSet.processUntil it is only
// touched by the slave's event loop (the Runner barrier guarantees workers
// are parked between processing phases).
type joinWorker struct {
	id   int
	proc engine.Proc

	mod      *join.Module
	input    map[int32][]tuple.Tuple // backlog per group
	backlog  int64                   // tuples
	cursor   int                     // round-robin start for fairness
	curChunk int                     // adaptive round size (tuples)
	ids      []int32                 // reused sweep list (groupList)

	// rbs accumulates one result batch per registered query (parallel to
	// cfg.effectiveQueries()); a single-query slave has exactly one, with
	// Query 0.
	rbs []*wire.ResultBatch

	// repl accumulates per-group window deltas for buddy replication
	// (replica.go); only populated when the workerSet replicates.
	repl map[int32]*replDelta

	// xcap accumulates catch-up deltas for groups this slave is streaming
	// out (transfer.go): while a movement is in flight the group keeps
	// processing here, and every tuple it ingests must reach the consumer in
	// the closing delta.
	xcap map[int32]*replDelta

	// instrumentation
	outputs   int64
	roundsRun int64
}

// workerSet owns a slave's join workers and the demux across them.
type workerSet struct {
	cfg     *Config
	slave   int32
	runner  engine.Runner
	workers []*joinWorker

	// replicate turns on per-round delta capture for buddy replication;
	// set once before the slave loop starts (TCP deployment with
	// cfg.Replicate).
	replicate bool

	// nowMs overrides the round-timestamp clock (worker wall clock when
	// nil); deterministic tests pin it to epoch boundaries.
	nowMs func() int32
	// onRound, when set, observes every processing round on the worker's
	// goroutine (test instrumentation; group g is always observed by the
	// same worker, so per-group observers need no locking).
	onRound func(worker int, group int32, res *join.RoundResult)
}

// newWorkerSet builds one joinWorker per runner lane. The runner's Size
// fixes W for the lifetime of the slave.
func newWorkerSet(cfg *Config, slave int32, runner engine.Runner) *workerSet {
	ws := &workerSet{
		cfg:     cfg,
		slave:   slave,
		runner:  runner,
		workers: make([]*joinWorker, runner.Size()),
	}
	queries := cfg.effectiveQueries()
	for i := range ws.workers {
		rbs := make([]*wire.ResultBatch, len(queries))
		for qi, q := range queries {
			rbs[qi] = &wire.ResultBatch{Slave: slave, Query: q.ID}
		}
		ws.workers[i] = &joinWorker{
			id:       i,
			proc:     runner.Proc(i),
			mod:      join.MustNew(cfg.joinConfig()),
			input:    make(map[int32][]tuple.Tuple),
			rbs:      rbs,
			curChunk: cfg.ChunkTuples,
			repl:     make(map[int32]*replDelta),
			xcap:     make(map[int32]*replDelta),
		}
	}
	return ws
}

// workerOf routes a partition-group to its owning worker. The mapping is
// static (group mod W), so a group's windows, prober index and backlog live
// on exactly one worker and every movement of the group routes to it.
func (ws *workerSet) workerOf(g int32) *joinWorker {
	return ws.workers[int(uint32(g))%len(ws.workers)]
}

// enqueue demuxes an incoming batch to the worker backlogs run-wise: one
// GroupOfKey per tuple finds each maximal same-group run, and the run is
// bulk-appended to its group's queue — or, when that queue is empty, adopted
// in place. Adoption caps the sub-slice at its own length, so a later append
// to the group reallocates instead of overwriting the neighbouring run.
// ts belongs to the backlog afterwards. A master batch is group-contiguous,
// so it costs one queue operation per group; any other order is still demuxed
// correctly, run by run.
func (ws *workerSet) enqueue(ts []tuple.Tuple) {
	if len(ts) == 0 {
		return
	}
	g := ws.cfg.GroupOfKey(ts[0].Key)
	for lo := 0; lo < len(ts); {
		hi, next := lo+1, g
		for ; hi < len(ts); hi++ {
			if next = ws.cfg.GroupOfKey(ts[hi].Key); next != g {
				break
			}
		}
		w := ws.workerOf(g)
		if q := w.input[g]; len(q) == 0 {
			w.input[g] = ts[lo:hi:hi]
		} else {
			w.input[g] = append(q, ts[lo:hi]...)
		}
		w.backlog += int64(hi - lo)
		lo, g = hi, next
	}
}

// backlogTuples sums queued tuples across workers.
func (ws *workerSet) backlogTuples() int64 {
	var n int64
	for _, w := range ws.workers {
		n += w.backlog
	}
	return n
}

// windowBytes sums window state across workers (the slave's Hello report).
func (ws *workerSet) windowBytes() int64 {
	var n int64
	for _, w := range ws.workers {
		n += w.mod.WindowBytes()
	}
	return n
}

// memoryBytes sums the full accounted footprint (windows plus prober
// indexes) across workers, so memory-limited reorganization sees the
// process-wide total.
func (ws *workerSet) memoryBytes() int64 {
	var n int64
	for _, w := range ws.workers {
		n += w.mod.MemoryBytes()
	}
	return n
}

// splitsTotal and mergesTotal sum fine-tuning activity across workers.
func (ws *workerSet) splitsTotal() int64 {
	var n int64
	for _, w := range ws.workers {
		n += w.mod.Splits()
	}
	return n
}

func (ws *workerSet) mergesTotal() int64 {
	var n int64
	for _, w := range ws.workers {
		n += w.mod.Merges()
	}
	return n
}

// processUntil fans the backlog-processing phase out across the workers and
// waits for all of them (each runs chunked rounds over its own groups until
// its backlog drains or the deadline passes).
func (ws *workerSet) processUntil(deadline time.Duration) {
	ws.runner.Run(func(i int) {
		ws.workers[i].processBacklog(ws, deadline)
	})
}

// flushResults merges the workers' accumulated result batches into one per
// query and sends them to the collector (DelayStats.Merge is
// order-independent), so the slave ships at most one batch per query per
// flush regardless of W and its message-count accounting stays comparable
// across worker counts. A single-query slave therefore ships at most one
// ResultBatch (query 0) per flush.
func (ws *workerSet) flushResults(coll engine.AsyncSender) {
	for qi, q := range ws.cfg.effectiveQueries() {
		var st metrics.DelayStats
		for _, w := range ws.workers {
			rb := w.rbs[qi]
			if rb.Outputs == 0 {
				continue
			}
			d := statsFromBatch(rb)
			st.Merge(&d)
			*rb = wire.ResultBatch{Slave: ws.slave, Query: q.ID} // reset in place, keep the allocation
		}
		if st.Count == 0 {
			continue
		}
		rb := &wire.ResultBatch{
			Slave:      ws.slave,
			Query:      q.ID,
			Outputs:    st.Count,
			DelaySumMs: st.SumMs,
			DelayMinMs: st.MinMs,
			DelayMaxMs: st.MaxMs,
		}
		copy(rb.Hist[:], st.Hist[:])
		coll.SendAsync(rb)
	}
}

// extractGroup detaches group id (state movement supply) and returns its
// directory shape and queued backlog. Its windows are dropped: a streamed
// move has already shipped them as a snapshot (startOutgoing), and an
// aborted one discards them.
func (ws *workerSet) extractGroup(id int32) (join.State, []tuple.Tuple) {
	w := ws.workerOf(id)
	w.mod.Ensure(id)
	g, _ := w.mod.Remove(id)
	pending := w.input[id]
	delete(w.input, id)
	delete(w.repl, id) // the new owner re-replicates from its own snapshot
	delete(w.xcap, id) // an in-flight transfer of id ends with it
	w.backlog -= int64(len(pending))
	return g.Shape(), pending
}

// installState installs moved group state on its owning worker (state
// movement consume), queueing the supplier's pending tuples behind it.
func (ws *workerSet) installState(st join.State, pending []tuple.Tuple) error {
	w := ws.workerOf(st.ID)
	if err := w.mod.Install(st); err != nil {
		return err
	}
	if ws.replicate {
		// The group's replica chain restarts here: the next epoch flush
		// ships its full window to this slave's buddy.
		ws.markReplReset(st)
	}
	if len(pending) > 0 {
		w.input[st.ID] = append(w.input[st.ID], pending...)
		w.backlog += int64(len(pending))
	}
	return nil
}

// close releases the runner's workers (after the slave loop returns).
func (ws *workerSet) close() { ws.runner.Close() }

// roundNow is the round-timestamp clock: the worker's wall (or virtual)
// clock unless a deterministic override is pinned.
func (ws *workerSet) roundNow(w *joinWorker) int32 {
	if ws.nowMs != nil {
		return ws.nowMs()
	}
	return msOf(w.proc.Now())
}

// processBacklog runs chunked join rounds until the worker's backlog drains
// or the deadline passes. The first sweep visits every owned group (so
// expiration advances even without input); later sweeps only groups with
// pending input. The sweep start rotates across calls so no group starves
// under overload.
func (w *joinWorker) processBacklog(ws *workerSet, deadline time.Duration) {
	first := true
	for {
		ids := w.groupList(first)
		if len(ids) == 0 {
			return
		}
		if w.cursor >= len(ids) {
			w.cursor = 0
		}
		progressed := false
		for k := 0; k < len(ids); k++ {
			g := ids[(k+w.cursor)%len(ids)]
			chunk := w.takeChunk(g)
			if len(chunk) > 0 {
				progressed = true
			} else if !first {
				continue
			}
			w.runRound(ws, g, chunk)
			if w.proc.Now() >= deadline {
				w.cursor = (w.cursor + k + 1) % len(ids)
				return
			}
		}
		first = false
		if !progressed && w.backlog == 0 {
			return
		}
	}
}

// groupList returns the groups to visit this sweep in ascending order: all
// owned groups plus groups with queued input (first sweep), or only groups
// with queued input. The list reuses the worker's sweep buffer — per-epoch
// processing keeps no per-sweep allocations.
func (w *joinWorker) groupList(all bool) []int32 {
	out := w.ids[:0]
	if all {
		out = w.mod.AppendIDs(out)
	}
	for id, q := range w.input {
		if len(q) > 0 {
			out = append(out, id)
		}
	}
	slices.Sort(out)
	out = slices.Compact(out) // input groups the module also owns
	w.ids = out
	return out
}

func (w *joinWorker) takeChunk(g int32) []tuple.Tuple {
	q := w.input[g]
	if len(q) == 0 {
		return nil
	}
	n := w.curChunk
	if n > len(q) {
		n = len(q)
	}
	chunk := q[:n]
	if n == len(q) {
		delete(w.input, g)
	} else {
		w.input[g] = q[n:]
	}
	w.backlog -= int64(n)
	return chunk
}

// runRound processes one chunk for one group — every registered query probes
// the same arrival batch over the shared windows — charges the modeled CPU
// cost (dilated by the node's background load) to the worker's proc, and
// records the production delays of each query's outputs into that query's
// result batch.
func (w *joinWorker) runRound(ws *workerSet, g int32, chunk []tuple.Tuple) {
	if len(chunk) > 0 {
		if ws.replicate {
			w.replOf(g).record(chunk)
		}
		// The group is mid-movement: everything ingested from here on ships
		// in the closing delta's catch-up runs.
		if c := w.xcap[g]; c != nil {
			c.record(chunk)
		}
	}
	results := w.mod.ProcessAll(g, ws.roundNow(w), chunk)
	// Shared round work (ingest, expiry, tuning) is charged to results[0]
	// only, so summing per-query costs double-counts nothing.
	var cost time.Duration
	for qi := range results {
		cost += ws.cfg.Cost.Round(results[qi])
	}
	cpu := time.Duration(float64(cost) * ws.cfg.slowdown(ws.slave))
	w.proc.Compute(cpu)
	w.roundsRun++
	if ws.onRound != nil {
		for qi := range results {
			ws.onRound(w.id, g, &results[qi])
		}
	}
	// Self-clocking round size: keep one round well under an epoch so the
	// slave stays responsive to the fixed communication schedule even when
	// per-probe scans are expensive (no fine tuning, saturated windows).
	td := time.Duration(ws.cfg.DistEpochMs) * time.Millisecond
	if len(chunk) > 0 {
		switch {
		case cpu > td/2 && w.curChunk > 64:
			w.curChunk /= 2
		case cpu < td/16 && w.curChunk < ws.cfg.ChunkTuples:
			w.curChunk *= 2
		}
	}
	var doneMs int32
	haveDone := false
	for qi := range results {
		res := &results[qi]
		if res.Outputs == 0 {
			continue
		}
		if !haveDone {
			doneMs = ws.roundNow(w)
			haveDone = true
		}
		rb := w.rbs[qi]
		for _, match := range res.Matches {
			delay := doneMs - match.TS
			if delay < 0 {
				delay = 0
			}
			addDelay(rb, delay, match.N)
		}
		w.outputs += res.Outputs
	}
}

func addDelay(rb *wire.ResultBatch, delayMs int32, n int64) {
	if rb.Outputs == 0 || delayMs < rb.DelayMinMs {
		rb.DelayMinMs = delayMs
	}
	if rb.Outputs == 0 || delayMs > rb.DelayMaxMs {
		rb.DelayMaxMs = delayMs
	}
	rb.Outputs += n
	rb.DelaySumMs += int64(delayMs) * n
	rb.Hist[metrics.BucketFor(delayMs)] += n
}
