package core

import (
	"hash/fnv"
	"net"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"streamjoin/internal/engine"
	"streamjoin/internal/join"
	"streamjoin/internal/tuple"
	"streamjoin/internal/wire"
	"streamjoin/internal/workload"
)

// The multi-prober equivalence test: the same deterministic epoch schedule —
// master-style tuple batches plus a mid-run state transfer — is shipped over
// real TCP to a slave-side workerSet once with W=1 and once with W=4
// parallel join workers. Round timestamps are pinned to epoch boundaries, so
// the join is fully deterministic, and because each partition-group lives on
// exactly one worker the per-group round traces (counts and a chained
// fingerprint of every materialized output pair) must be bit-identical
// across W. The per-epoch result summaries flowing back on the result
// connection must match too.

// mwConfig is the deterministic multi-worker cluster shape: 8 one-partition
// groups (so W=4 owns two groups per worker), live join configuration.
func mwConfig() Config {
	cfg := DefaultConfig()
	cfg.Partitions = 8
	cfg.PartitionsPerGroup = 1
	cfg.WindowMs = 8_000
	cfg.Theta = 16 << 10
	cfg.Domain = 100_000
	return cfg
}

// mwSchedule builds the deterministic message schedule: E epochs of tuple
// batches demuxed over all 8 groups, with a state transfer installing a
// populated group 5 midway (W=4 routes it to worker 1, W=1 to worker 0).
func mwSchedule(t *testing.T, cfg *Config, epochs int) []wire.Message {
	t.Helper()
	s1, s2 := workload.Pair(workload.Config{Rate: 1500, Skew: 0.7, Domain: cfg.Domain, Seed: 7})
	var msgs []wire.Message
	now := int32(0)
	for e := 0; e < epochs; e++ {
		if e == epochs/2 {
			msgs = append(msgs, donorTransfer(t, 5))
		}
		batch := workload.Merge(s1.Batch(now, now+equivEpochMs), s2.Batch(now, now+equivEpochMs))
		now += equivEpochMs
		if e < epochs/2 {
			// Group 5 is owned elsewhere until the state transfer moves it
			// here; the master withholds a moving group's tuples exactly
			// like this (drainFor skips held groups).
			kept := batch[:0]
			for _, tp := range batch {
				if cfg.GroupOfKey(tp.Key) != 5 {
					kept = append(kept, tp)
				}
			}
			batch = kept
		}
		msgs = append(msgs, &wire.Batch{Epoch: int64(e), Tuples: batch})
	}
	return append(msgs, &wire.Batch{Shutdown: true})
}

// donorTransfer extracts a deterministic populated group g from a donor
// module, exactly as a supplying slave would. It is small enough (a few KB
// encoded) to sit under the batching threshold and share its frame with the
// epoch batch that follows.
func donorTransfer(t *testing.T, g int32) *wire.StateTransfer {
	t.Helper()
	donor := join.MustNew(equivJoinConfig())
	s1, s2 := workload.Pair(workload.Config{Rate: 60, Skew: 0.7, Domain: 50_000, Seed: 11})
	now := int32(0)
	for e := 0; e < 2; e++ {
		donor.Process(g, now+equivEpochMs, workload.Merge(s1.Batch(now, now+equivEpochMs), s2.Batch(now, now+equivEpochMs)))
		now += equivEpochMs
	}
	grp, ok := donor.Remove(g)
	if !ok {
		t.Fatal("donor group missing")
	}
	st := grp.Extract()
	return st.ToWire(1, []tuple.Tuple{{Stream: tuple.S1, Key: 42, TS: now}})
}

// captureSender records what a workerSet flush would send to the collector.
type captureSender struct {
	sent []wire.Message
}

func (c *captureSender) SendAsync(m wire.Message) { c.sent = append(c.sent, m) }

// mwOut is what runMultiWorker's slave side traced and read back.
type mwOut struct {
	traces        map[int32]map[int32][]epochSig // query id → group → rounds
	results       []wire.Message                 // per epoch, one result batch per query
	workerOutputs []int64
	err           any
}

// runMultiWorker ships the schedule over one real TCP connection into a
// workerSet with W join workers and returns the per-query, per-group round
// traces, the per-epoch result summaries the driver read back on a second
// connection, and per-worker outputs. A single-query config traces
// everything under query 0.
func runMultiWorker(t *testing.T, cfg Config, msgs []wire.Message, W int) mwOut {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	env := engine.NewLiveEnv()
	driverP := env.NewProc("driver")
	slaveP := env.NewProc("slave")

	queries := cfg.effectiveQueries()
	slaveCh := make(chan mwOut, 1)
	go func() {
		var out mwOut
		defer func() { out.err = recover(); slaveCh <- out }()
		c, err := ln.Accept()
		if err != nil {
			panic(err)
		}
		defer c.Close()
		rc, err := ln.Accept()
		if err != nil {
			panic(err)
		}
		defer rc.Close()
		conn := engine.WrapTCPBatched(slaveP, c, cfg.WireBatchBytes)
		res := engine.WrapTCPBatched(slaveP, rc, cfg.WireBatchBytes)

		runner := engine.NewLiveRunner(slaveP, W)
		ws := newWorkerSet(&cfg, 0, runner)
		defer ws.close()
		// Deterministic round clock: pinned to the epoch boundary.
		var epochNow atomic.Int32
		ws.nowMs = func() int32 { return epochNow.Load() }
		// Trace storage is fully populated before the workers start; each
		// (query, group) cell is only ever appended to by the one worker
		// that owns the group, so the hook needs no locking.
		traces := make(map[int32][]*[]epochSig, len(queries))
		for _, q := range queries {
			cells := make([]*[]epochSig, cfg.NumGroups())
			for g := range cells {
				cells[g] = &[]epochSig{}
			}
			traces[q.ID] = cells
		}
		ws.onRound = func(_ int, g int32, r *join.RoundResult) {
			cells, ok := traces[r.Query]
			if !ok {
				panic("round result for unregistered query")
			}
			h := fnv.New64a()
			hashPairs(h, r.Pairs)
			*cells[g] = append(*cells[g], epochSig{
				Outputs:    r.Outputs,
				Scanned:    r.Scanned,
				SplitMoves: r.SplitMoves,
				Ingested:   r.Ingested,
				Expired:    r.Expired,
				Splits:     r.Splits,
				Merges:     r.Merges,
				PairsHash:  h.Sum64(),
			})
		}

		epoch := 0
		for {
			switch m := conn.Recv().(type) {
			case *wire.StateTransfer:
				if err := ws.installState(join.StateFromWire(m), m.Pending); err != nil {
					panic(err)
				}
			case *wire.Batch:
				if m.Shutdown {
					engine.Flush(res)
					out.traces = make(map[int32]map[int32][]epochSig, len(queries))
					for id, cells := range traces {
						out.traces[id] = make(map[int32][]epochSig, len(cells))
						for g := range cells {
							out.traces[id][int32(g)] = *cells[g]
						}
					}
					for _, w := range ws.workers {
						out.workerOutputs = append(out.workerOutputs, w.outputs)
					}
					return
				}
				ws.enqueue(m.Tuples)
				epochNow.Store(int32(epoch+1) * equivEpochMs)
				ws.processUntil(time.Hour)
				// The production flush merges the workers' result batches
				// into at most one per registered query, stamped with its id;
				// ship each query's (or an empty one) so the driver reads a
				// fixed count per epoch.
				var cap captureSender
				ws.flushResults(&cap)
				sums := make(map[int32]*wire.ResultBatch, len(queries))
				for _, sm := range cap.sent {
					rb := sm.(*wire.ResultBatch)
					if _, ok := traces[rb.Query]; !ok || sums[rb.Query] != nil {
						panic("flushResults sent a second batch, or one for an unregistered query")
					}
					sums[rb.Query] = rb
				}
				for _, q := range queries {
					sum := sums[q.ID]
					if sum == nil {
						sum = &wire.ResultBatch{Slave: 0, Query: q.ID}
					}
					engine.SendBuffered(res, sum)
				}
				epoch++
			default:
				panic("unexpected message kind")
			}
		}
	}()

	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	driver := engine.WrapTCPBatched(driverP, c, cfg.WireBatchBytes)
	resConn := engine.WrapTCPBatched(driverP, rc, cfg.WireBatchBytes)
	epochs := 0
	for _, m := range msgs {
		if _, ok := m.(*wire.StateTransfer); ok {
			engine.SendBuffered(driver, m)
			continue
		}
		driver.Send(m)
		if b := m.(*wire.Batch); !b.Shutdown {
			epochs++
		}
	}
	var results []wire.Message
	var recvErr any
	func() {
		defer func() { recvErr = recover() }()
		for i := 0; i < epochs*len(queries); i++ {
			results = append(results, resConn.Recv())
		}
	}()

	out := <-slaveCh
	if out.err != nil {
		t.Fatalf("W=%d slave failed: %v", W, out.err)
	}
	if recvErr != nil {
		t.Fatalf("W=%d driver recv failed: %v", W, recvErr)
	}
	out.results = results
	return out
}

// compareTraces asserts two per-group trace sets are identical after
// mapping each signature through sig (fullSig for a bit-for-bit comparison),
// and returns got's total outputs.
func compareTraces(t *testing.T, label string, groups int,
	got, want map[int32][]epochSig, sig func(epochSig) epochSig) int64 {
	t.Helper()
	var total int64
	for g := int32(0); g < int32(groups); g++ {
		a, b := got[g], want[g]
		if len(a) != len(b) {
			t.Fatalf("%s: group %d: %d rounds vs %d", label, g, len(a), len(b))
		}
		for i := range a {
			if sig(a[i]) != sig(b[i]) {
				t.Fatalf("%s: group %d round %d diverged:\ngot  %+v\nwant %+v",
					label, g, i, sig(a[i]), sig(b[i]))
			}
			total += a[i].Outputs
		}
	}
	return total
}

func fullSig(s epochSig) epochSig { return s }

// TestMultiWorkerEquivalence is the tentpole acceptance test: a W=4 slave
// produces bit-identical join output to a W=1 slave over real TCP, while
// actually spreading the work across its workers.
func TestMultiWorkerEquivalence(t *testing.T) {
	cfg := mwConfig()
	const epochs = 24
	msgs := mwSchedule(t, &cfg, epochs)

	out1 := runMultiWorker(t, cfg, msgs, 1)
	out4 := runMultiWorker(t, cfg, msgs, 4)

	total := compareTraces(t, "W=4 vs W=1", cfg.NumGroups(), out4.traces[0], out1.traces[0], fullSig)
	var expired int64
	rounds := 0
	for _, trace := range out1.traces[0] {
		for _, r := range trace {
			expired += int64(r.Expired)
		}
		rounds += len(trace)
	}
	if total == 0 || expired == 0 || rounds < epochs {
		t.Fatalf("vacuous schedule: outputs=%d expired=%d rounds=%d", total, expired, rounds)
	}
	if !reflect.DeepEqual(out1.results, out4.results) {
		t.Fatal("per-epoch result summaries diverged between W=1 and W=4")
	}

	// The W=4 run must have genuinely parallelized: more than one worker
	// produced output.
	if len(out4.workerOutputs) != 4 {
		t.Fatalf("W=4 ran %d workers", len(out4.workerOutputs))
	}
	busy := 0
	for _, n := range out4.workerOutputs {
		if n > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Fatalf("only %d of 4 workers produced output: %v", busy, out4.workerOutputs)
	}
	t.Logf("W=1 ≡ W=4: %d outputs over %d rounds, %d expired; W=4 worker outputs %v",
		total, rounds, expired, out4.workerOutputs)
}
